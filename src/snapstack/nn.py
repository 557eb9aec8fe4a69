"""Small fully connected softmax classifier with manual backpropagation.

Parameters live in one flat float64 vector so that training trajectories can
be captured, serialized, and averaged without caring about layer structure.
All operations here are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, TrainingError

# Clamp applied to predicted probabilities before log so a confident wrong
# prediction yields a large finite loss instead of inf.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths of a ReLU MLP: (input dim, hidden dims..., class count)."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise InputError("architecture needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise InputError(f"layer sizes must be positive, got {sizes}")
        if self.hidden_activation != "relu":
            raise InputError(f"unsupported hidden activation: {self.hidden_activation!r}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_params(self) -> int:
        return sum(i * o + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))


@dataclass(eq=False)
class ParamVector:
    """Flat float64 parameter vector tied to an architecture.

    Layout: for each layer, the weight matrix in row-major order
    (fan_in x fan_out) followed by the bias vector.
    """

    values: np.ndarray
    arch: MlpArchitecture

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64).ravel()
        if v.size != self.arch.num_params:
            raise InputError(
                f"parameter vector has {v.size} values, arch needs {self.arch.num_params}"
            )
        if not np.all(np.isfinite(v)):
            raise InputError("parameter vector contains non-finite values")
        v.setflags(write=False)
        self.values = v

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return self.arch == other.arch and np.array_equal(self.values, other.values)


@dataclass(eq=False)
class Dataset:
    """Feature matrix [m, d], integer labels [m] in {0..k-1}, and class count k."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64).ravel()
        if feats.ndim != 2:
            raise InputError(f"features must be a 2-d matrix, got shape {feats.shape}")
        if feats.shape[0] != labels.size:
            raise InputError(
                f"{feats.shape[0]} feature rows vs {labels.size} labels"
            )
        if labels.size < 1:
            raise InputError("dataset must contain at least one example")
        if not np.all(np.isfinite(feats)):
            raise InputError("features contain non-finite values")
        if self.num_classes < 1:
            raise InputError("num_classes must be positive")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise InputError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        feats.setflags(write=False)
        labels.setflags(write=False)
        self.features = feats
        self.labels = labels

    @property
    def num_examples(self) -> int:
        return self.labels.size

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_classes == other.num_classes
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


def _layers(values: np.ndarray, sizes: tuple[int, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights [..., fan_in, fan_out], bias [..., 1, fan_out]) views;
    values [R, P] give R stacked models."""
    out = []
    ofs = 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = values[..., ofs : ofs + fan_in * fan_out].reshape(*values.shape[:-1], fan_in, fan_out)
        ofs += fan_in * fan_out
        b = values[..., None, ofs : ofs + fan_out]
        ofs += fan_out
        out.append((w, b))
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    # row-wise, shifted by the row max for stability
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward(layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray) -> list[np.ndarray]:
    """The input to each layer, then the class probabilities [..., m, k].

    The one forward pass: prediction, scoring and backprop all run it, so
    their numbers agree bit for bit. Stacked runs take features [R, m, d].
    """
    acts = [features]
    for w, b in layers[:-1]:
        # in place, one [m, h] array per layer: the two temporaries of relu(x @ w + b)
        # let malloc hand the heap top back and fault it in again on every call
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    w, b = layers[-1]
    acts.append(_softmax(acts[-1] @ w + b))
    return acts


def forward_batch(params: ParamVector, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a feature matrix [m, d] -> [m, k]."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.arch.input_dim:
        raise InputError(
            f"expected features of shape [m, {params.arch.input_dim}], got {features.shape}"
        )
    return _forward(_layers(params.values, params.arch.layer_sizes), features)[-1]


def forward(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Class probabilities for a single feature vector."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size != params.arch.input_dim:
        raise InputError(f"expected input of size {params.arch.input_dim}, got {x.size}")
    return forward_batch(params, x[None, :])[0]


def _per_example_nll(params: ParamVector, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    probs = _forward(_layers(params.values, params.arch.layer_sizes), features)[-1]
    p_true = probs[np.arange(labels.size), labels]
    return -np.log(np.maximum(p_true, PROB_FLOOR))


def nll_loss(params: ParamVector, data: Dataset) -> float:
    """Mean per-example negative log-likelihood of the true labels."""
    if data.dim != params.arch.input_dim or data.num_classes != params.arch.num_classes:
        raise InputError(
            f"dataset [{data.dim} features, {data.num_classes} classes] does not match "
            f"arch {params.arch.layer_sizes}"
        )
    return float(_per_example_nll(params, data.features, data.labels).mean())


def _grad(
    layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Flat gradient of the mean NLL; stacked layers, features [R, b, d] and
    labels [R, b] give one gradient per run, [R, P]."""
    acts = _forward(layers, features)
    g = acts.pop()  # probabilities, freshly computed, safe to mutate
    g.reshape(-1, g.shape[-1])[np.arange(labels.size), labels.ravel()] -= 1.0
    g /= labels.shape[-1]  # gradient of the MEAN loss

    chunks_reversed = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        gw = acts[i].swapaxes(-1, -2) @ g
        chunks_reversed += [g.sum(axis=-2), gw.reshape(*gw.shape[:-2], -1)]
        if i > 0:
            # acts[i] = relu(z) > 0 exactly where z > 0, NaN included
            g = (g @ w.swapaxes(-1, -2)) * (acts[i] > 0.0)
    return np.concatenate(chunks_reversed[::-1], axis=-1)


def backward(params: ParamVector, batch: Dataset) -> ParamVector:
    """Gradient of the mean NLL over the batch, same shape as params."""
    if batch.dim != params.arch.input_dim or batch.num_classes != params.arch.num_classes:
        raise InputError(
            f"batch [{batch.dim} features, {batch.num_classes} classes] does not match "
            f"arch {params.arch.layer_sizes}"
        )
    layers = _layers(params.values, params.arch.layer_sizes)
    return ParamVector(_grad(layers, batch.features, batch.labels), params.arch)


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


def init_params(arch: MlpArchitecture, seed: int) -> ParamVector:
    """Seed-deterministic init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        chunks.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), arch)
