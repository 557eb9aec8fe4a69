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
from .nn import PROB_FLOOR, Dataset, ParamVector, forward_batch
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
    return raw * (raw.size / raw.sum())


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


def weights_temperature(log_liks, tau: float) -> np.ndarray:
    """Weights proportional to exp(log_lik / tau), normalized to sum to N.

    The exponent is shifted by the max log-likelihood, which cancels under
    normalization but keeps exp() in range. Underflowed entries are floored
    at the smallest positive double so weights stay strictly positive.
    """
    if not tau > 0.0:
        raise InputError(f"temperature tau must be positive, got {tau}")
    arr = np.asarray(log_liks, dtype=np.float64)
    if arr.size < 1:
        raise InputError("need at least one log-likelihood value")
    if not np.all(np.isfinite(arr)):
        raise InputError("log-likelihoods must be finite")
    raw = np.exp((arr - arr.max()) / tau)
    raw = np.maximum(raw, np.finfo(np.float64).tiny)
    return _as_weights(raw)


def build_ensemble(snapshots: list[Snapshot], spec: WeightingSpec) -> EnsembleModel:
    """Pair snapshots with weights computed by the chosen rule."""
    if not snapshots:
        raise InputError("cannot build an ensemble from zero snapshots")
    if spec.rule == "equal":
        w = weights_equal(len(snapshots))
    else:
        nlls = np.array(
            [s.train_nll if spec.source == "train" else s.val_nll for s in snapshots]
        )
        if spec.rule == "inverse_loss":
            w = weights_inverse_loss(nlls)
        else:
            # likelihood is the tau = 1 temperature rule; one code path keeps that exact
            w = weights_temperature(-nlls, 1.0 if spec.rule == "likelihood" else spec.tau)
    return EnsembleModel(list(zip(snapshots, (float(x) for x in w))))


def member_probs(snapshots: list[Snapshot], features: np.ndarray) -> np.ndarray:
    """Each member's class probabilities, stacked [K, m, k]: one forward per member."""
    return np.stack([forward_batch(s.params, features) for s in snapshots])


def weighted_mean(probs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(1/K) * sum_k w_k * probs[k] over stacked member probabilities [K, m, k]."""
    return (probs * weights[:, None, None]).sum(axis=0) / len(weights)


def ensemble_predict_batch(ens: EnsembleModel, features: np.ndarray) -> np.ndarray:
    """Weighted mean of member probabilities for a feature matrix [m, d]."""
    return weighted_mean(member_probs(ens.snapshots, features), ens.weights)


def swa_average(ensemble: EnsembleModel) -> ParamVector:
    """The ensemble's weighted mean parameter vector: ensembling in weight space."""
    snaps = ensemble.snapshots
    stacked = np.stack([s.params.values for s in snaps])
    avg = (ensemble.weights[:, None] * stacked).sum(axis=0) / len(snaps)
    return ParamVector(avg, snaps[0].params.arch)


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
    preds = probs.argmax(axis=1)  # argmax returns the first max: lowest class index
    p_true = probs[np.arange(data.num_examples), data.labels]
    return EvalMetrics(
        accuracy=float((preds == data.labels).mean()),
        mean_nll=float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean()),
    )
