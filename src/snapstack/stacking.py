"""Ensemble weighting rules, the weighted predictor, and parameter averaging.

All weighting works on the MEAN per-example log-likelihood of a snapshot
(the negative of its mean NLL). The per-sample likelihood product would
underflow for any realistic sample size; the mean keeps every ordering and
limit property intact while staying finite. Weights are normalized to sum
to the member count, so the prediction (1/N) * sum(w_k * f_k) is a convex
combination and equal weighting is exactly w_k = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
# forward_batch, the per-member reference, stays importable here: bench/spans.py traces it
from .nn import (  # noqa: F401
    PROB_FLOOR,
    Dataset,
    ParamVector,
    _read_only,
    forward_batch,
    forward_each,
)
from .snapshots import Snapshot

RULES = ("equal", "inverse_loss", "likelihood", "temperature")
SOURCES = ("train", "validation")

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class WeightingSpec:
    """Which weighting rule to apply and which loss source feeds it."""

    rule: str
    tau: float = 1.0
    source: str = "train"

    def __post_init__(self):
        if self.rule not in RULES:
            raise InputError(f"unknown weighting rule {self.rule!r}, expected one of {RULES}")
        if self.source not in SOURCES:
            raise InputError(f"unknown weighting source {self.source!r}")
        if self.rule == "temperature" and not self.tau > 0.0:
            raise InputError(f"temperature tau must be positive, got {self.tau}")


@dataclass(eq=False)
class EnsembleModel:
    """Ordered (snapshot, weight) pairs defining the stacked predictor."""

    members: list[tuple[Snapshot, float]]

    def __post_init__(self):
        if not self.members:
            raise InputError("ensemble needs at least one member")
        w = np.array([weight for _, weight in self.members], dtype=np.float64)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InputError("ensemble weights must be finite and strictly positive")
        if abs(w.sum() - len(self.members)) > WEIGHT_SUM_TOL:
            raise InputError(
                f"ensemble weights sum to {w.sum()}, expected {len(self.members)}"
            )
        arch = self.members[0][0].params.arch
        if any(s.params.arch != arch for s, _ in self.members):
            raise InputError("ensemble members must share one architecture")

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.members], dtype=np.float64)

    @property
    def snapshots(self) -> list[Snapshot]:
        return [s for s, _ in self.members]


def _as_weights(raw: np.ndarray) -> np.ndarray:
    """Scale each row [..., N] to sum to N."""
    return raw * (raw.shape[-1] / raw.sum(axis=-1, keepdims=True))


def weights_equal(n: int) -> np.ndarray:
    if n < 1:
        raise InputError(f"ensemble size must be positive, got {n}")
    return np.ones(n)


def weights_inverse_loss(losses) -> np.ndarray:
    """Weights proportional to 1/loss, normalized to sum to N."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size < 1:
        raise InputError("need at least one loss value")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise InputError("inverse-loss weighting needs strictly positive finite losses")
    return _as_weights(1.0 / arr)


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
    raw = np.exp((arr - arr.max()) / taus[..., None])
    raw = np.maximum(raw, np.finfo(np.float64).tiny)
    return _as_weights(raw)


def _losses(snapshots: list[Snapshot], source: str) -> np.ndarray:
    return np.array([s.train_nll if source == "train" else s.val_nll for s in snapshots])


def weight_rows(snapshots: list[Snapshot], specs: list[WeightingSpec]) -> np.ndarray:
    """One weight row per spec for an ensemble of snapshots, [len(specs), N].

    The temperature specs of one loss source share one weights_temperature
    call over their taus.
    """
    if not snapshots:
        raise InputError("cannot build an ensemble from zero snapshots")
    rows = np.empty((len(specs), len(snapshots)))
    temperatures: dict[str, tuple[list[int], list[float]]] = {}
    for i, spec in enumerate(specs):
        if spec.rule == "equal":
            rows[i] = weights_equal(len(snapshots))
        elif spec.rule == "inverse_loss":
            rows[i] = weights_inverse_loss(_losses(snapshots, spec.source))
        else:
            # likelihood is the tau = 1 temperature rule; one code path keeps that exact
            index, taus = temperatures.setdefault(spec.source, ([], []))
            index.append(i)
            taus.append(1.0 if spec.rule == "likelihood" else spec.tau)
    for source, (index, taus) in temperatures.items():
        rows[index] = weights_temperature(-_losses(snapshots, source), taus)
    return rows


def build_ensemble(snapshots: list[Snapshot], spec: WeightingSpec) -> EnsembleModel:
    """Pair snapshots with weights computed by the chosen rule."""
    return EnsembleModel(list(zip(snapshots, weight_rows(snapshots, [spec])[0].tolist())))


def _forward_into(out: np.ndarray, params, features: np.ndarray) -> np.ndarray:
    """forward_each's class probabilities of the parameter vectors, written into
    out [K, m, k] in order."""
    for row, probs in zip(out, forward_each(params, features)):
        row[...] = probs
    return out


def member_probs(snapshots: list[Snapshot], features: np.ndarray) -> np.ndarray:
    """Each member's class probabilities, stacked [K, m, k]: one forward per member."""
    out = np.empty((len(snapshots), len(features), snapshots[0].params.arch.num_classes))
    return _forward_into(out, [s.params for s in snapshots], features)


def weighted_mean(values, weights: np.ndarray) -> np.ndarray:
    """(1/K) * sum_k w_k * values[k] over K members, a sequence or stack of probability
    matrices [m, k] or parameter vectors [P]. Weights [..., K] give one mean per row. The
    members are added in index order into one accumulator, the order in which a sum over
    axis 0 adds them, so each row equals the mean under its own weights alone."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape[-1:] != (len(values),):
        raise InputError(f"weights of shape {w.shape} for {len(values)} members")
    w = np.moveaxis(w, -1, 0)
    w = w.reshape(w.shape + (1,) * np.ndim(values[0]))  # w[k] broadcasts over one member
    acc = values[0] * w[0]
    term = np.empty_like(acc)
    for i in range(1, len(values)):
        acc += np.multiply(values[i], w[i], out=term)
    acc /= len(values)
    return acc


def ensemble_predict_batch(ens: EnsembleModel, features: np.ndarray) -> np.ndarray:
    """Weighted mean of member probabilities for a feature matrix [m, d]."""
    return weighted_mean(member_probs(ens.snapshots, features), ens.weights)


def swa_average(ensemble: EnsembleModel) -> ParamVector:
    """The ensemble's weighted mean parameter vector: ensembling in weight space."""
    snaps = ensemble.snapshots
    values = [s.params.values for s in snaps]
    return ParamVector(weighted_mean(values, ensemble.weights), snaps[0].params.arch)


def swa_probs(snapshots: list[Snapshot], weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class probabilities [T, m, k] of the snapshots' weighted mean parameter
    vector under each weight row [T, K], each mean a checked ParamVector. The
    means are made one at a time, as forward_each reads them, and each is equal to
    its row of weighted_mean(values, weights)."""
    arch = snapshots[0].params.arch
    values = [s.params.values for s in snapshots]
    means = (_read_only(weighted_mean(values, row)) for row in weights)
    out = np.empty((len(weights), len(features), arch.num_classes))
    return _forward_into(out, (ParamVector(mean, arch) for mean in means), features)


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    mean_nll: float


def evaluate(probs: np.ndarray, data: Dataset) -> EvalMetrics:
    """Argmax accuracy (ties to the lowest class index) and mean NLL of predicted
    class probabilities [m, k] against data's labels."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != (data.num_examples, data.num_classes):
        raise InputError(
            f"probabilities have shape {probs.shape}, expected "
            f"({data.num_examples}, {data.num_classes})"
        )
    return evaluate_rows(probs[None], data)[0]


def evaluate_rows(probs: np.ndarray, data: Dataset) -> list[EvalMetrics]:
    """evaluate() of each prediction in stacked class probabilities [T, m, k]."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[1:] != (data.num_examples, data.num_classes):
        raise InputError(
            f"probabilities have shape {probs.shape}, expected "
            f"(T, {data.num_examples}, {data.num_classes})"
        )
    preds = probs.argmax(axis=-1)  # argmax returns the first max: lowest class index
    # the gathered [T, m] block comes out strided, and a strided mean sums in
    # another order; a contiguous copy keeps each row's sum that of a 1-D mean
    p_true = np.ascontiguousarray(probs[:, np.arange(data.num_examples), data.labels])
    accuracy = (preds == data.labels).mean(axis=-1)
    mean_nll = (-np.log(np.maximum(p_true, PROB_FLOOR))).mean(axis=-1)
    return [EvalMetrics(a, nll) for a, nll in zip(accuracy.tolist(), mean_nll.tolist())]
