"""Reference paths the tests check the package against.

Most are thin wrappers over the package's own private functions, so a test that
compares the training loop with these references compares the same arithmetic:
`backward` runs the production `_grad`, `nll_loss` the production forward and
per-example NLL, and `sgd_step` is the out-of-place form of the loop's in-place
update. `likelihood_weights` is the paper's likelihood rule written out on its
own, with no call into the package. No command uses them.
"""

from __future__ import annotations

import numpy as np

from snapstack import CycleConfig, Dataset, InputError, ParamVector, TrainingError
from snapstack.nn import Workspace, _check_fits, _example_nll, _forward, _grad, _layers


def grad_into(layers, features: np.ndarray, targets: np.ndarray, out) -> None:
    """_grad through a workspace made for this call: inputs `features` [..., b, d]
    and one-hot label rows `targets` [..., b, k], gradient written into `out`."""
    ws = Workspace(layers, features)
    ws.targets[...] = targets
    _grad(layers, ws, out)


def backward(params: ParamVector, batch: Dataset) -> ParamVector:
    """Gradient of the mean NLL over the batch, same shape as params."""
    _check_fits(batch, params.arch, "batch")
    sizes = params.arch.layer_sizes
    grad = np.empty(params.arch.num_params)
    targets = np.eye(batch.num_classes)[batch.labels]
    grad_into(_layers(params.values, sizes), batch.features, targets, _layers(grad, sizes))
    return ParamVector(grad, params.arch)


def nll_loss(params: ParamVector, data: Dataset) -> float:
    """Mean per-example negative log-likelihood of the true labels."""
    _check_fits(data, params.arch, "dataset")
    probs = _forward(_layers(params.values, params.arch.layer_sizes), data.features)[-1]
    return float(_example_nll(probs, data.labels).mean())


def sgd_step(params: ParamVector, gradient: ParamVector, lr: float) -> ParamVector:
    """One plain gradient-descent step: params - lr * gradient."""
    if lr <= 0.0:
        raise InputError(f"learning rate must be positive, got {lr}")
    if gradient.arch != params.arch:
        raise InputError("gradient and parameter architectures differ")
    with np.errstate(over="ignore"):  # overflow is surfaced as TrainingError below
        new = params.values - lr * gradient.values
    if not np.all(np.isfinite(new)):
        raise TrainingError("parameter update produced non-finite values")
    return ParamVector(new, params.arch)


def cycle_midpoints(cfg: CycleConfig) -> list[int]:
    """First iteration of each completed cycle at or below the half-amplitude rate."""
    return [c * cfg.cycle_len + cfg.mid_phase for c in range(cfg.num_cycles)]


def likelihood_weights(lls) -> np.ndarray:
    """Weights proportional to exp(lls), floored at the smallest positive double and
    normalized to sum to N: the likelihood rule, which the package computes as the
    tau = 1 temperature rule."""
    lls = np.asarray(lls, dtype=np.float64)
    raw = np.maximum(np.exp(lls - lls.max()), np.finfo(np.float64).tiny)
    return raw * (raw.size / raw.sum())
