"""The softmax of every forward against the last-axis reference in tests/oracles.py,
bit for bit, on logits that hold NaN, infinities, signed zeros, 1e308 and ties; with a
negative NaN among them, equal apart from the sign of the NaNs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import softmax_last_axis
from snapstack import MlpArchitecture, ParamVector
from snapstack.nn import _forward, _layers, forward_each

# derandomized and bounded, so the suite stays deterministic and quick
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# each value recurs, so rows tie; 1e308 plus 1e308 overflows to inf. The only NaN is
# the positive one: a row max over several NaNs keeps one of them, and its sign
# depends on the order (see nn._softmax)
FINITE = [0.0, -0.0, 1.0, -1.0, 2.5, 1e308, -1e308]
SPECIAL = [*FINITE, np.nan, np.inf, -np.inf]
NEGATIVE_NAN = np.copysign(np.nan, -1.0)


@st.composite
def net_inputs(draw, runs=True, nans=(np.nan,)):
    """(features [..., m, k], biases [..., 1, k]): m from 1 to 64 rows, k from 1 to
    12 classes, up to two leading run axes when `runs`, and `nans` among the
    features."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2 if runs else 0)))
    m, k = draw(st.integers(1, 64)), draw(st.integers(1, 12))
    x = draw(arrays(np.float64, (*lead, m, k), elements=st.sampled_from([*FINITE, *nans])))
    bias = draw(arrays(np.float64, (*lead, 1, k), elements=st.sampled_from(SPECIAL)))
    return x, bias


def identity_net(bias: np.ndarray) -> tuple[MlpArchitecture, np.ndarray]:
    """A k-k softmax layer with identity weights: its logits are x + bias, as one GEMM
    and one add make them."""
    k = bias.shape[-1]
    arch = MlpArchitecture((k, k))
    values = np.zeros((*bias.shape[:-2], arch.num_params))
    ((w, b),) = _layers(values, arch.layer_sizes)
    w[...] = np.eye(k)
    b[...] = bias
    return arch, values


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def logits_and_softmax(x: np.ndarray, bias: np.ndarray):
    """The identity net's layers and the reference softmax of its logits."""
    arch, values = identity_net(bias)
    ((w, b),) = layers = _layers(values, arch.layer_sizes)
    with np.errstate(over="ignore", invalid="ignore"):
        return layers, softmax_last_axis(np.matmul(x, w) + b)


class TestSoftmax:
    @PROPERTY
    @given(net_inputs())
    def test_forward_equals_last_axis_softmax(self, case):
        x, bias = case
        layers, want = logits_and_softmax(x, bias)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _forward(layers, x)[-1]
        assert same_bytes(got, want)

    @PROPERTY
    @given(net_inputs(nans=(np.nan, NEGATIVE_NAN)))
    def test_negative_nan_changes_only_nan_signs(self, case):
        # which of a row's NaNs its max keeps depends on the order; the row is NaN
        # either way, and every other value keeps its bits
        x, bias = case
        layers, want = logits_and_softmax(x, bias)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _forward(layers, x)[-1]
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert same_bytes(np.where(nan, 0.0, got), np.where(nan, 0.0, want))

    @PROPERTY
    @given(net_inputs(runs=False))
    def test_forward_each_equals_last_axis_softmax(self, case):
        x, bias = case
        # a ParamVector holds finite values only: the non-finite logits come from x
        arch, values = identity_net(np.where(np.isfinite(bias), bias, 1e308))
        ((w, b),) = _layers(values, arch.layer_sizes)
        with np.errstate(over="ignore", invalid="ignore"):
            want = softmax_last_axis(np.matmul(x, w) + b)
            (got,) = forward_each([ParamVector(values, arch)], x)
        assert same_bytes(got, want)
