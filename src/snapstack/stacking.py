"""Training-time likelihood weights, the weighted predictor, and parameter averaging.

A weight row is a plain array of one weight per member, and a [T, K] block holds
one ensemble per row. All weighting works on the MEAN per-example log-likelihood
of a snapshot (log_likelihoods: the negative of its mean NLL). The per-sample
likelihood product would underflow for any realistic sample size; the mean keeps
every ordering and limit property intact while staying finite. Weights are
normalized to sum to the member count, so the prediction (1/N) * sum(w_k * f_k)
is a convex combination: equal weighting is np.ones(N), and weighting by the
likelihood itself is weights_temperature at tau = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SOURCES, InputError
# forward_batch, the per-member reference, stays importable here: bench/spans.py traces it
from .nn import (  # noqa: F401
    Dataset,
    ParamVector,
    _example_nll,
    _read_only,
    forward_batch,
    forward_each,
)
from .snapshots import Snapshot

WEIGHT_SUM_TOL = 1e-9


def weights_temperature(log_liks, tau) -> np.ndarray:
    """Weights proportional to exp(log_lik / tau), normalized to sum to N.

    tau is one temperature, giving weights [N], or an array of them, giving
    one row of N weights per tau ([T, N] for T taus); each row equals the
    weights of its tau alone.
    The exponent is shifted by the max log-likelihood, which cancels under
    normalization but keeps exp() in range. Underflowed entries are floored
    at the smallest positive double so weights stay strictly positive.
    """
    taus = np.asarray(tau, dtype=np.float64)
    for t in taus.ravel().tolist():
        if not t > 0.0:
            raise InputError(f"temperature tau must be positive, got {t}")
    arr = np.asarray(log_liks, dtype=np.float64)
    if arr.size < 1:
        raise InputError("need at least one log-likelihood value")
    if not np.all(np.isfinite(arr)):
        raise InputError("log-likelihoods must be finite")
    with np.errstate(over="ignore"):  # a tiny tau sends an exponent to -inf, floored below
        raw = np.exp((arr - arr.max()) / taus[..., None])
    raw = np.maximum(raw, np.finfo(np.float64).tiny)
    return raw * (raw.shape[-1] / raw.sum(axis=-1, keepdims=True))


def log_likelihoods(snapshots: list[Snapshot], source: str) -> np.ndarray:
    """Each snapshot's mean log-likelihood [K] on its training or validation split: -nll."""
    if source not in SOURCES:
        raise InputError(f"unknown weighting source {source!r}")
    return -np.array([s.train_nll if source == "train" else s.val_nll for s in snapshots])


def _forward_into(out: np.ndarray, params, features: np.ndarray) -> np.ndarray:
    """forward_each's class probabilities of the parameter vectors, written into
    out [K, m, k] in order."""
    for row, probs in zip(out, forward_each(params, features)):
        row[...] = probs
    return out


def _check_members(values) -> None:
    if len(values) < 1:
        raise InputError("ensemble needs at least one member")


def member_probs(snapshots: list[Snapshot], features: np.ndarray) -> np.ndarray:
    """Each member's class probabilities, stacked [K, m, k]: one forward per member."""
    _check_members(snapshots)
    out = np.empty((len(snapshots), len(features), snapshots[0].params.arch.num_classes))
    return _forward_into(out, [s.params for s in snapshots], features)


def weighted_mean(values, weights: np.ndarray) -> np.ndarray:
    """(1/K) * sum_k w_k * values[k] over K members, a sequence or stack of probability
    matrices [m, k] or parameter vectors [P]. Weights [..., K] give one mean per row. The
    members are added in index order into one accumulator, the order in which a sum over
    axis 0 adds them, so each row equals the mean under its own weights alone.
    Each row must be finite, strictly positive and sum to K within WEIGHT_SUM_TOL."""
    w = np.asarray(weights, dtype=np.float64)
    _check_members(values)
    if w.shape[-1:] != (len(values),):
        raise InputError(f"weights of shape {w.shape} for {len(values)} members")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise InputError("ensemble weights must be finite and strictly positive")
    sums = w.sum(axis=-1)
    if np.any(np.abs(sums - len(values)) > WEIGHT_SUM_TOL):
        raise InputError(f"ensemble weights sum to {sums}, expected {len(values)}")
    w = np.moveaxis(w, -1, 0)
    w = w.reshape(w.shape + (1,) * np.ndim(values[0]))  # w[k] broadcasts over one member
    acc = values[0] * w[0]
    term = np.empty_like(acc)
    for i in range(1, len(values)):
        acc += np.multiply(values[i], w[i], out=term)
    acc /= len(values)
    return acc


def swa_probs(snapshots: list[Snapshot], weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class probabilities [T, m, k] of the snapshots' weighted mean parameter
    vector under each weight row [T, K], each mean a checked ParamVector. The
    means are made one at a time, as forward_each reads them, and each is equal to
    its row of weighted_mean(values, weights). The members share one architecture."""
    _check_members(snapshots)
    arch = snapshots[0].params.arch
    if any(s.params.arch != arch for s in snapshots):
        raise InputError("ensemble members must share one architecture")
    values = [s.params.values for s in snapshots]
    means = (_read_only(weighted_mean(values, row)) for row in weights)
    out = np.empty((len(weights), len(features), arch.num_classes))
    return _forward_into(out, (ParamVector(mean, arch) for mean in means), features)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    mean_nll: float


def evaluate_rows(probs: np.ndarray, data: Dataset) -> list[EvalMetrics]:
    """Argmax accuracy (ties to the lowest class index) and mean NLL against data's
    labels of each prediction in stacked class probabilities [T, m, k]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1:] != (data.num_examples, data.num_classes):
        raise InputError(
            f"probabilities have shape {probs.shape}, expected "
            f"(T, {data.num_examples}, {data.num_classes})"
        )
    preds = probs.argmax(axis=-1)  # argmax returns the first max: lowest class index
    accuracy = (preds == data.labels).mean(axis=-1)
    mean_nll = _example_nll(probs, data.labels).mean(axis=-1)
    return [EvalMetrics(a, nll) for a, nll in zip(accuracy.tolist(), mean_nll.tolist())]
