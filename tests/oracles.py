"""Reference paths the tests check the package against.

Most are thin wrappers over the package's own private functions, so a test that
compares the training loop with these references compares the same arithmetic:
`backward` runs the production `_grad`, `nll_loss` the production forward and
per-example NLL, and `sgd_step` is the out-of-place form of the loop's in-place
update. `likelihood_weights` is the paper's likelihood rule written out on its
own, with no call into the package, `softmax_last_axis` the softmax with
both row reductions along the last axis, the reference for the package's row
max over a class-major copy, `split_reference` the train/validation split
written out as one fancy index of the pool's features, the reference for the
package's part-by-part gather, and `plan_reference` the capture plan written out
cycle by cycle from its definition, the reference for the package's per-policy
shifts. No command uses them.
"""

from __future__ import annotations

import math

import numpy as np

from snapstack import CycleConfig, Dataset, InputError, ParamVector, SplitSpec, TrainingError
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


def plan_reference(cfg: CycleConfig, window_halfwidth: int = 0, offsets=()) -> set[int]:
    """The iterations `train` captures, cycle by cycle: in each completed cycle c of
    L = cycle_len iterations, its rate minimum c * L + L - 1 (the cycle's last
    iteration), its half-amplitude point c * L + p for the first phase p with
    p / (L - 1) >= 1/2, the iterations within window_halfwidth of the minimum and the
    minimum plus each offset; then the run's last iteration. Iterations past the run's
    end are dropped. It makes no check; a plan the package rejects has no reference."""
    length, total = cfg.cycle_len, cfg.total_iters
    half = next(p for p in range(length) if 2 * p >= length - 1)
    plan = {total - 1}
    for c in range(total // length):
        minimum = c * length + length - 1
        targets = [c * length + half, minimum, *(minimum + o for o in offsets)]
        targets += range(minimum - window_halfwidth, minimum + window_halfwidth + 1)
        plan.update(t for t in targets if t < total)
    return plan


def softmax_last_axis(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the logits z [..., k] as a new array, with both row
    reductions on the last axis: the max, the shift, exp, the sum and the division
    in the order the package's softmax runs them."""
    z = np.array(z, dtype=np.float64)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def likelihood_weights(lls) -> np.ndarray:
    """Weights proportional to exp(lls), floored at the smallest positive double and
    normalized to sum to N: the likelihood rule, which the package computes as the
    tau = 1 temperature rule."""
    lls = np.asarray(lls, dtype=np.float64)
    raw = np.maximum(np.exp(lls - lls.max()), np.finfo(np.float64).tiny)
    return raw * (raw.size / raw.sum())


def split_reference(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """(train, validation) of data: ceil(m * (1 - val_fraction)) rows of a permutation
    seeded by spec.seed for training, the rest for validation, taken from the features
    in one fancy index. It makes no check; a split the package rejects has no reference."""
    m = data.num_examples
    n_train = math.ceil(m * (1.0 - spec.val_fraction) - 1e-9)
    perm = np.random.default_rng(spec.seed).permutation(m)
    parts = perm[:n_train], perm[n_train:]
    joined = data.features[np.concatenate(parts)]
    return (
        Dataset(joined[:n_train], data.labels[parts[0]], data.num_classes),
        Dataset(joined[n_train:], data.labels[parts[1]], data.num_classes),
    )
