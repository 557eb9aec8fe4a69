"""Small fully connected softmax classifier with manual backpropagation.

Parameters live in one flat float64 vector so that training trajectories can
be captured, serialized, and averaged without caring about layer structure.
All operations here are pure functions of their inputs, apart from the
buffers a caller hands in to be written.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import InputError

# Clamp applied to predicted probabilities before log so a confident wrong
# prediction yields a large finite loss instead of inf.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths of a ReLU MLP: (input dim, hidden dims..., class count)."""

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        # a bool is an Integral, but no layer is True wide
        if not all(
            isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in self.layer_sizes
        ):
            raise InputError(f"layer sizes must be integers, got {self.layer_sizes!r}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise InputError("architecture needs at least input and output layers")
        if any(s < 1 for s in sizes):
            raise InputError(f"layer sizes must be positive, got {sizes}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_params(self) -> int:
        return sum(i * o + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))


def _frozen(arr) -> bool:
    """True for a read-only float64 ndarray whose memory belongs to a read-only
    ndarray that owns it: itself, or the base of a C-contiguous view."""
    if type(arr) is not np.ndarray or arr.dtype != np.float64 or arr.flags.writeable:
        return False
    if arr.flags.owndata:
        return True
    base = arr.base
    return (
        arr.flags.c_contiguous
        and type(base) is np.ndarray
        and base.flags.owndata
        and not base.flags.writeable
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only, so ParamVector or Dataset keeps it instead of
    copying it."""
    arr.setflags(write=False)
    return arr


@dataclass(eq=False)
class ParamVector:
    """Flat float64 parameter vector tied to an architecture.

    Layout: for each layer, the weight matrix in row-major order
    (fan_in x fan_out) followed by the bias vector.

    A 1-d float64 ndarray that owns its memory and is already read-only is
    kept as it is, as `Dataset` keeps its features, and the caller must not
    write it again; any other values are copied.
    """

    values: np.ndarray
    arch: MlpArchitecture

    def __post_init__(self):
        v = self.values
        if not (_frozen(v) and v.ndim == 1 and v.flags.owndata):
            v = np.array(v, dtype=np.float64).ravel()
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


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise unless num_classes is a positive integer and every label lies in
    [0, num_classes)."""
    if not isinstance(num_classes, numbers.Integral) or num_classes < 1:
        raise InputError(f"num_classes must be a positive integer, got {num_classes!r}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise InputError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )


@dataclass(eq=False)
class Dataset:
    """Feature matrix [m, d], integer labels [m] in {0..k-1}, and class count k.

    A read-only float64 ndarray is kept as the feature matrix when it owns its
    memory, or when it is a C-contiguous view (a block of rows) of a read-only
    float64 ndarray that owns it, so the data builders hand over the matrices
    they make without a copy; the caller must not write that memory again
    through a view taken earlier or by setting it writeable. Any other features
    are copied, among them a view of a writeable array.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = self.features
        if not _frozen(feats):
            feats = np.array(feats, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise InputError(f"labels must be integers, got dtype {labels.dtype}")
        labels = np.array(labels, dtype=np.int64).ravel()
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
        _check_labels(labels, self.num_classes)
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


class Workspace:
    """The arrays `_forward` and `_grad` write into, made for one input array `x`
    [..., b, d] that the caller refills before each call: each layer's output,
    the one-hot label rows `targets` [..., b, k] (also the caller's to fill), the
    backprop deltas and ReLU masks of the hidden layers, and one [..., b, 1]
    buffer for the softmax reductions. The transposed views of the inputs and of
    `layers`' weights are built here once, so a workspace serves only the
    layers and the input it was made for. `grad=False` makes only what a
    forward pass needs.
    """

    def __init__(
        self, layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, grad: bool = True
    ):
        lead = x.shape[:-1]
        self.x = x
        self.acts = [np.empty((*lead, w.shape[-1])) for w, _ in layers]
        self.sums = np.empty((*lead, 1))
        if grad:
            hidden = self.acts[:-1]
            self.targets = np.empty_like(self.acts[-1])
            self.deltas = [np.empty_like(a) for a in hidden]
            self.masks = [np.empty(a.shape, dtype=bool) for a in hidden]
            self.inputs_t = [a.swapaxes(-1, -2) for a in (x, *hidden)]
            self.weights_t = [w.swapaxes(-1, -2) for w, _ in layers]


def _softmax(z: np.ndarray, sums: np.ndarray) -> None:
    """Row-wise softmax of the logits z [..., k], in place, with the row reductions
    written to `sums` [..., 1]; maximum.reduce and add.reduce are the reductions
    ndarray.max and ndarray.sum run."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True, out=sums)  # shift by the row max
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True, out=sums)


def _hidden(x: np.ndarray, w: np.ndarray, b: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One hidden layer, relu(x @ w + b), written into z."""
    np.matmul(x, w, out=z)
    z += b
    return np.maximum(z, 0.0, out=z)


def _forward(
    layers: list[tuple[np.ndarray, np.ndarray]], features: np.ndarray, ws: Workspace | None = None
) -> list[np.ndarray]:
    """The input to each layer, then the class probabilities [..., m, k].

    The one forward pass: prediction, scoring and backprop all run it, so
    their numbers agree bit for bit. Stacked runs take features [R, m, d].
    Every array is written into the workspace `ws`, which must have been made
    for `features` (`ws.x`); without one, a forward-only workspace is made for
    this call.
    """
    if ws is None:
        ws = Workspace(layers, features, grad=False)
    x = features
    for (w, b), z in zip(layers[:-1], ws.acts):
        x = _hidden(x, w, b, z)
    w, b = layers[-1]
    z = np.matmul(x, w, out=ws.acts[-1])
    z += b
    _softmax(z, ws.sums)
    return [features, *ws.acts]


def _checked_features(features: np.ndarray, arch: MlpArchitecture) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != arch.input_dim:
        raise InputError(
            f"expected features of shape [m, {arch.input_dim}], got {features.shape}"
        )
    return features


def forward_batch(params: ParamVector, features: np.ndarray) -> np.ndarray:
    """Class probabilities for a feature matrix [m, d] -> [m, k]."""
    features = _checked_features(features, params.arch)
    return _forward(_layers(params.values, params.arch.layer_sizes), features)[-1]


# OpenBLAS builds for AVX-512 run a GEMM of at most this many multiply-adds
# through a small-matrix kernel whose summation order depends on the width
_SMALL_GEMM = 10**6


def _block_size(rows: int, layer_sizes: tuple[int, ...]) -> int:
    """How many parameter vectors `forward_each` runs through one first-layer GEMM
    over `rows` input rows: min(d, 128) // h for input width d and first hidden
    width h, and at least 1. A block is thus at most 128 columns wide (beyond that,
    OpenBLAS touches more of its packing buffer and the peak RSS grows) and holds
    one member where d < 2h, where a wider GEMM saves no time.

    Each member's columns of a block's GEMM must carry the bits of its own GEMM,
    so the block is also 1 wherever the BLAS may compute a member's own product
    another way: without a hidden layer (the block would end in the softmax), for
    one row (numpy takes its matrix-vector path), for an h that is not a multiple
    of 8 (such columns came out of wider products with other bits), and for
    products of at most _SMALL_GEMM multiply-adds.
    """
    if len(layer_sizes) < 3:
        return 1
    d, h = layer_sizes[0], layer_sizes[1]
    if rows < 2 or h % 8 or rows * d * h <= _SMALL_GEMM:
        return 1
    return max(1, min(d, 128) // h)


def forward_each(params: Iterable[ParamVector], features: np.ndarray) -> Iterator[np.ndarray]:
    """Class probabilities [m, k] of each parameter vector in turn for one feature
    matrix [m, d]; each equals forward_batch(p, features) bit for bit.

    The vectors share one architecture. Blocks of `_block_size` of them share the
    first layer: their weights and biases are copied side by side into [d, B*h] and
    [B*h] buffers, one GEMM, bias add and ReLU run over [m, B*h], and the rest of
    `_forward` runs on each member's column slice. A block of one runs `_forward`
    on its member alone. `params` is read one block at a time, so an iterator that
    makes its vectors holds at most one block of them.
    """
    params = iter(params)
    first = next(params, None)
    if first is None:
        return
    arch = first.arch
    sizes = arch.layer_sizes
    features = _checked_features(features, arch)
    size = _block_size(features.shape[0], sizes)
    members = chain([first], params)
    if size > 1:
        (m, d), h = features.shape, sizes[1]
        w_buf, b_buf, z_buf = np.empty(d * size * h), np.empty(size * h), np.empty(m * size * h)
    while block := list(islice(members, size)):
        if any(p.arch != arch for p in block):
            raise InputError("parameter vectors of one forward must share an architecture")
        layers = [_layers(p.values, sizes) for p in block]
        if len(block) == 1:
            yield _forward(layers[0], features)[-1]
            continue
        n = len(block) * h  # a short last block uses contiguous leading parts of the buffers
        w, b, z = w_buf[: d * n].reshape(d, n), b_buf[:n], z_buf[: m * n].reshape(m, n)
        for j, ((w1, b1), *_) in enumerate(layers):
            w[:, j * h : (j + 1) * h] = w1
            b[j * h : (j + 1) * h] = b1[0]
        _hidden(features, w, b, z)
        for j, (_, *rest) in enumerate(layers):
            yield _forward(rest, z[:, j * h : (j + 1) * h])[-1]


def _example_nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-example NLL of the true labels under class probabilities [..., m, k], as a
    contiguous [..., m] array. A gather over a leading axis comes out strided, and a
    strided mean sums in another order; the contiguous copy (none for [m, k]) keeps
    each row's mean that of a 1-D mean."""
    p_true = np.ascontiguousarray(probs[..., np.arange(labels.size), labels])
    return -np.log(np.maximum(p_true, PROB_FLOOR))


def _check_fits(data: Dataset, arch: MlpArchitecture, name: str) -> None:
    """Raise unless the data's feature width and class count are the arch's; `name`
    says which set the message is about."""
    if data.dim != arch.input_dim or data.num_classes != arch.num_classes:
        raise InputError(
            f"{name} [{data.dim} features, {data.num_classes} classes] does not match "
            f"arch {arch.layer_sizes}"
        )


def _grad(
    layers: list[tuple[np.ndarray, np.ndarray]],
    ws: Workspace,
    out: list[tuple[np.ndarray, np.ndarray]],
) -> None:
    """Gradient of the mean NLL over the workspace's inputs `ws.x` [b, d] and one-hot
    label rows `ws.targets` [b, k], written into `out`, the `_layers` views of a flat
    [P] buffer. Stacked layers, with inputs [R, b, d] and targets [R, b, k], write
    one gradient per run into the views of an [R, P] buffer. The call makes no
    array that grows with the model or the batch."""
    acts = _forward(layers, ws.x, ws)
    g = acts.pop()  # probabilities, freshly computed, safe to mutate
    g -= ws.targets  # p - 0.0 == p: the bits of subtracting 1 at each true label
    g /= ws.targets.shape[-2]  # gradient of the MEAN loss

    for i in range(len(layers) - 1, -1, -1):
        gw, gb = out[i]
        np.matmul(ws.inputs_t[i], g, out=gw)
        np.add.reduce(g, axis=-2, keepdims=True, out=gb)
        if i > 0:
            g = np.matmul(g, ws.weights_t[i], out=ws.deltas[i - 1])
            # acts[i] = relu(z) > 0 exactly where z > 0, NaN included
            g *= np.greater(acts[i], 0.0, out=ws.masks[i - 1])


def init_params(arch: MlpArchitecture, seed: int) -> ParamVector:
    """Seed-deterministic init: weights ~ N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    chunks = []
    for fan_in, fan_out in zip(arch.layer_sizes, arch.layer_sizes[1:]):
        chunks.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return ParamVector(np.concatenate(chunks), arch)
