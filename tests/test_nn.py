"""Unit tests for the MLP substrate and its test references: forward, loss,
gradients, SGD, init."""

import math

import numpy as np
import pytest

from conftest import random_dataset, random_params
from oracles import backward, grad_into, nll_loss, sgd_step
from snapstack import (
    Dataset,
    InputError,
    MlpArchitecture,
    ParamVector,
    TrainingError,
    forward_batch,
    init_params,
)
from snapstack.nn import Workspace, _block_size, _forward, _grad, _layers, forward_each


def finite_difference_grad(params, batch, h=1e-5):
    """Independent oracle: central differences on the mean NLL."""
    base = params.values
    out = np.empty_like(base)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        out[i] = (
            nll_loss(ParamVector(up, params.arch), batch)
            - nll_loss(ParamVector(dn, params.arch), batch)
        ) / (2.0 * h)
    return out


class TestArchitecture:
    def test_param_count(self):
        arch = MlpArchitecture((2, 4, 3))
        assert arch.num_params == 2 * 4 + 4 + 4 * 3 + 3

    def test_rejects_single_layer(self):
        with pytest.raises(InputError):
            MlpArchitecture((5,))

    def test_rejects_zero_width(self):
        with pytest.raises(InputError):
            MlpArchitecture((2, 0, 3))

    def test_rejects_non_integral_sizes(self):
        with pytest.raises(InputError, match="integers"):
            MlpArchitecture((6.7, 32.2, 3))
        with pytest.raises(InputError, match="integers"):
            MlpArchitecture((2, True, 3))  # not a layer of width 1
        assert MlpArchitecture((np.int64(6), 32, 3)).layer_sizes == (6, 32, 3)


class TestParamVector:
    def test_rejects_wrong_length(self, tiny_arch):
        with pytest.raises(InputError):
            ParamVector(np.zeros(tiny_arch.num_params + 1), tiny_arch)

    def test_rejects_non_finite(self, tiny_arch):
        v = np.zeros(tiny_arch.num_params)
        v[3] = np.nan
        with pytest.raises(InputError):
            ParamVector(v, tiny_arch)

    def test_values_read_only(self, tiny_arch):
        pv = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        with pytest.raises(ValueError):
            pv.values[0] = 1.0

    def test_copies_writeable_values(self, tiny_arch):
        values = np.zeros(tiny_arch.num_params)
        pv = ParamVector(values, tiny_arch)
        values[0] = 5.0
        assert pv.values[0] == 0.0

    def test_copies_read_only_view_of_writeable_base(self, tiny_arch):
        base = np.zeros((2, tiny_arch.num_params))
        row = base[1]
        row.setflags(write=False)
        pv = ParamVector(row, tiny_arch)
        base[1, 0] = 5.0
        assert pv.values is not row and pv.values[0] == 0.0

    def test_copies_read_only_view_of_read_only_base(self, tiny_arch):
        # only an array that owns its memory is kept
        base = np.zeros((2, tiny_arch.num_params))
        base.setflags(write=False)
        pv = ParamVector(base[1], tiny_arch)
        assert not np.shares_memory(pv.values, base)

    def test_keeps_owned_read_only_values(self, tiny_arch):
        values = np.zeros(tiny_arch.num_params)
        values.setflags(write=False)
        assert ParamVector(values, tiny_arch).values is values

    def test_kept_values_are_checked(self, tiny_arch):
        for values in (np.zeros(tiny_arch.num_params + 1), np.full(tiny_arch.num_params, np.nan)):
            values.setflags(write=False)
            with pytest.raises(InputError):
                ParamVector(values, tiny_arch)


class TestDataset:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), [0, 3], 3)

    def test_rejects_row_mismatch(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 2)), [0], 2)

    @pytest.mark.parametrize("shape", [(2,), (2, 1, 2)], ids=["1-d", "3-d"])
    def test_rejects_features_not_a_matrix(self, shape):
        with pytest.raises(InputError, match="2-d matrix"):
            Dataset(np.zeros(shape), [0, 1], 2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(InputError):
            Dataset(np.array([[0.0, np.inf]]), [0], 2)

    def test_rejects_non_integral_labels(self):
        with pytest.raises(InputError, match="integers"):
            Dataset(np.zeros((3, 2)), [0.5, 1.7, 2.9], 3)
        with pytest.raises(InputError, match="num_classes"):
            Dataset(np.zeros((2, 2)), [0, 1], 2.5)
        ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2], dtype=np.uint8), 3)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1, 2]

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((0, 2)), [], 2)

    def test_copies_writeable_features(self):
        feats = np.zeros((2, 2))
        ds = Dataset(feats, [0, 1], 2)
        feats[0, 0] = 5.0
        assert ds.features[0, 0] == 0.0

    def test_copies_read_only_view_of_writeable_base(self):
        base = np.zeros((3, 2))
        view = base[:2]
        view.setflags(write=False)
        ds = Dataset(view, [0, 1], 2)
        base[0, 0] = 5.0
        assert ds.features is not view and ds.features[0, 0] == 0.0

    def test_keeps_owned_read_only_features(self):
        feats = np.zeros((2, 2))
        feats.setflags(write=False)
        assert Dataset(feats, [0, 1], 2).features is feats

    def test_keeps_row_slices_of_owned_read_only_base(self):
        base = np.arange(10.0).reshape(5, 2).copy()  # owns its memory
        base.setflags(write=False)
        top, bottom = Dataset(base[:3], [0, 1, 0], 2), Dataset(base[3:], [1, 0], 2)
        assert top.features.base is base and bottom.features.base is base
        assert np.array_equal(np.vstack([top.features, bottom.features]), base)

    def test_copies_strided_view_of_read_only_base(self):
        base = np.arange(10.0).reshape(5, 2).copy()  # owns its memory
        base.setflags(write=False)
        ds = Dataset(base[:, :1], [0, 1, 0, 1, 0], 2)
        assert not np.shares_memory(ds.features, base)
        assert ds.features.flags.c_contiguous and not ds.features.flags.writeable


class TestForward:
    def test_zero_params_give_uniform(self):
        arch = MlpArchitecture((2, 4, 3))
        pv = ParamVector(np.zeros(arch.num_params), arch)
        out = forward_batch(pv, np.array([[0.3, -1.2]]))[0]
        np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0), rtol=1e-12)

    def test_hand_computed_single_layer(self):
        # identity-scaled weights: logits are (10, 0) for x = (1, 0)
        arch = MlpArchitecture((2, 2))
        pv = ParamVector(np.array([10.0, 0.0, 0.0, 10.0, 0.0, 0.0]), arch)
        out = forward_batch(pv, np.array([[1.0, 0.0]]))[0]
        expected = 1.0 / (1.0 + math.exp(-10.0))
        np.testing.assert_allclose(out[0], expected, rtol=1e-12)

    def test_simplex_for_random_params(self, tiny_arch):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pv = random_params(tiny_arch, rng, scale=2.0)
            x = rng.normal(0.0, 2.0, tiny_arch.input_dim)
            out = forward_batch(pv, x[None])[0]
            assert np.all(out >= 0.0)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_dimension_mismatch(self, tiny_arch):
        pv = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        with pytest.raises(InputError):
            forward_batch(pv, np.array([[1.0, 2.0, 3.0]]))

    def test_batch_matches_single(self, tiny_arch):
        rng = np.random.default_rng(1)
        pv = random_params(tiny_arch, rng)
        xs = rng.normal(0.0, 1.0, (5, 2))
        batch = forward_batch(pv, xs)
        for j in range(5):
            np.testing.assert_allclose(batch[j], forward_batch(pv, xs[j][None])[0], rtol=1e-12)


class TestForwardEach:
    """forward_each equals forward_batch per member, bit for bit, blocked or not."""

    @pytest.mark.parametrize("sizes", [
        pytest.param((784, 10), id="784-10"),  # no hidden layer
        pytest.param((6, 32, 3), id="6-32-3"),  # d < h: one member per GEMM
        pytest.param((784, 32, 10), id="784-32-10"),  # four per GEMM from 40 rows on
        pytest.param((200, 16, 24, 5), id="200-16-24-5"),  # eight per GEMM at 1000 rows
    ])
    # 40 rows of 784-32-10 lie just above the small-matrix limit of the block rule
    @pytest.mark.parametrize("rows", [1, 16, 40, 1000])
    def test_equals_forward_batch(self, sizes, rows):
        arch = MlpArchitecture(sizes)
        rng = np.random.default_rng([rows, *sizes])
        feats = rng.normal(0.0, 1.0, (rows, arch.input_dim))
        params = [random_params(arch, rng, scale=0.3) for _ in range(9)]
        reference = [forward_batch(p, feats) for p in params]
        for count in range(1, 10):  # blocks of 4 or 8 end short for most counts
            got = list(forward_each(params[:count], feats))
            assert len(got) == count
            for probs, want in zip(got, reference):
                assert np.array_equal(probs, want)

    def test_block_rule(self):
        assert _block_size(1000, (784, 32, 10)) == 4
        assert _block_size(1000, (200, 16, 24, 5)) == 8
        assert _block_size(1000, (6, 32, 3)) == 1  # d < 2h
        assert _block_size(1000, (784, 10)) == 1  # no hidden layer
        assert _block_size(1, (784, 32, 10)) == 1  # numpy's vector-matrix product
        assert _block_size(1000, (784, 33, 10)) == 1  # h not a multiple of 8
        assert _block_size(16, (784, 32, 10)) == 1  # a small-matrix product
        assert _block_size(40, (784, 32, 10)) == 4  # 40 * 784 * 32 > 10**6

    def test_reads_one_block_at_a_time(self):
        arch = MlpArchitecture((784, 32, 10))
        rng = np.random.default_rng(1)
        feats = rng.normal(0.0, 1.0, (100, 784))
        made = []

        def params():
            for _ in range(9):
                made.append(random_params(arch, rng, scale=0.3))
                yield made[-1]

        probs = forward_each(params(), feats)
        next(probs)
        assert len(made) == 4
        assert np.array_equal(next(probs), forward_batch(made[1], feats))

    def test_checks(self):
        arch = MlpArchitecture((2, 4, 3))
        rng = np.random.default_rng(2)
        params = [random_params(arch, rng), random_params(MlpArchitecture((2, 5, 3)), rng)]
        with pytest.raises(InputError):
            list(forward_each(params, np.zeros((4, 2))))
        with pytest.raises(InputError):
            list(forward_each(params[:1], np.zeros((4, 3))))
        assert list(forward_each([], np.zeros((4, 2)))) == []


class TestNllLoss:
    def test_zero_params_give_log_k(self, toy_data):
        arch = MlpArchitecture((2, 3))
        pv = ParamVector(np.zeros(arch.num_params), arch)
        assert nll_loss(pv, toy_data) == pytest.approx(math.log(3), rel=1e-12)

    def test_perfect_predictor_gives_zero(self):
        # margins so large the true-class probability rounds to exactly 1
        arch = MlpArchitecture((2, 2))
        pv = ParamVector(np.array([200.0, -200.0, -200.0, 200.0, 0.0, 0.0]), arch)
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)
        assert nll_loss(pv, data) == 0.0

    def test_hand_computed_three_examples(self):
        # independent per-example arithmetic on a [2 -> 2] linear softmax
        arch = MlpArchitecture((2, 2))
        w = [[1.0, -1.0], [0.5, 0.25]]
        b = [0.1, -0.2]
        pv = ParamVector(np.array([w[0][0], w[0][1], w[1][0], w[1][1], b[0], b[1]]), arch)
        xs = [[1.0, 2.0], [-1.0, 0.5], [0.0, -2.0]]
        ys = [0, 1, 0]
        total = 0.0
        for x, y in zip(xs, ys):
            z0 = w[0][0] * x[0] + w[1][0] * x[1] + b[0]
            z1 = w[0][1] * x[0] + w[1][1] * x[1] + b[1]
            p_true = math.exp([z0, z1][y]) / (math.exp(z0) + math.exp(z1))
            total += -math.log(p_true)
        expected = total / 3.0
        data = Dataset(np.array(xs), ys, 2)
        assert nll_loss(pv, data) == pytest.approx(expected, rel=1e-12)

    def test_composes_with_forward(self, tiny_arch):
        rng = np.random.default_rng(2)
        pv = random_params(tiny_arch, rng)
        data = random_dataset(tiny_arch, rng, m=9)
        recomputed = -np.mean(
            [math.log(forward_batch(pv, x[None])[0, y]) for x, y in zip(data.features, data.labels)]
        )
        assert nll_loss(pv, data) == pytest.approx(recomputed, rel=1e-12)

    def test_confident_wrong_prediction_stays_finite(self):
        arch = MlpArchitecture((2, 2))
        pv = ParamVector(np.array([500.0, -500.0, -500.0, 500.0, 0.0, 0.0]), arch)
        data = Dataset(np.array([[1.0, 0.0]]), [1], 2)  # true class gets ~exp(-1000)
        loss = nll_loss(pv, data)
        assert np.isfinite(loss)
        assert loss > 100.0


class TestBackward:
    def test_matches_finite_differences(self, tiny_arch):
        rng = np.random.default_rng(3)
        for _ in range(5):
            pv = random_params(tiny_arch, rng)
            data = random_dataset(tiny_arch, rng, m=5)
            grad = backward(pv, data).values
            fd = finite_difference_grad(pv, data)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
            assert rel.max() < 1e-4

    def test_perfect_predictor_gradient_vanishes(self):
        arch = MlpArchitecture((2, 2))
        pv = ParamVector(np.array([200.0, -200.0, -200.0, 200.0, 0.0, 0.0]), arch)
        data = Dataset(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)
        assert np.linalg.norm(backward(pv, data).values) < 1e-6

    def test_duplicated_batch_same_gradient(self, tiny_arch):
        rng = np.random.default_rng(4)
        pv = random_params(tiny_arch, rng)
        data = random_dataset(tiny_arch, rng, m=4)
        doubled = Dataset(
            np.vstack([data.features, data.features]),
            np.concatenate([data.labels, data.labels]),
            data.num_classes,
        )
        np.testing.assert_allclose(
            backward(pv, data).values, backward(pv, doubled).values, rtol=1e-12, atol=1e-15
        )

    def test_dimension_mismatch(self, tiny_arch):
        pv = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        bad = Dataset(np.zeros((2, 5)), [0, 1], 3)
        with pytest.raises(InputError):
            backward(pv, bad)


def concatenate_grad(layers, features, labels):
    """Reference for _grad on one run: every layer's weight and bias gradients
    as fresh arrays, concatenated in parameter order."""
    acts = _forward(layers, features)
    g = acts.pop()
    g[np.arange(labels.size), labels] -= 1.0
    g /= labels.size
    chunks = []
    for i in range(len(layers) - 1, -1, -1):
        chunks = [(acts[i].T @ g).ravel(), g.sum(axis=0)] + chunks
        if i > 0:
            g = (g @ layers[i][0].T) * (acts[i] > 0.0)
    return np.concatenate(chunks)


class TestStackedGrad:
    """_grad over a leading run axis equals the 2-D call per run, bit for bit."""

    @pytest.mark.parametrize("sizes", [(6, 32, 3), (784, 32, 10)])
    @pytest.mark.parametrize("runs", [1, 3])
    # 600 rows in batches of 32 end on a 24-row minibatch; 1 row is the smallest
    @pytest.mark.parametrize("rows", [32, 24, 1])
    def test_equals_each_run_alone(self, sizes, runs, rows):
        arch = MlpArchitecture(sizes)
        rng = np.random.default_rng([runs, rows])
        values = rng.normal(0.0, 0.3, (runs, arch.num_params))
        feats = rng.normal(0.0, 1.0, (runs, rows, arch.input_dim))
        targets = np.eye(arch.num_classes)[rng.integers(0, arch.num_classes, (runs, rows))]
        # NaN-filled, so an entry _grad leaves unwritten fails the comparison
        stacked = np.full((runs, arch.num_params), np.nan)
        grad_into(_layers(values, sizes), feats, targets, _layers(stacked, sizes))
        for r in range(runs):
            alone = np.full(arch.num_params, np.nan)
            grad_into(_layers(values[r], sizes), feats[r], targets[r], _layers(alone, sizes))
            assert np.array_equal(stacked[r], alone)

    @pytest.mark.parametrize("sizes", [(6, 32, 3), (784, 32, 10)])
    @pytest.mark.parametrize("rows", [32, 24, 1])
    def test_equals_concatenate_reference(self, sizes, rows):
        # one run's gradient written into the middle row of an [R, P] buffer
        arch = MlpArchitecture(sizes)
        rng = np.random.default_rng([7, rows])
        values = rng.normal(0.0, 0.3, arch.num_params)
        feats = rng.normal(0.0, 1.0, (rows, arch.input_dim))
        labels = rng.integers(0, arch.num_classes, rows)
        buf = np.full((3, arch.num_params), np.nan)
        targets = np.eye(arch.num_classes)[labels]
        grad_into(_layers(values, sizes), feats, targets, _layers(buf[1], sizes))
        assert (buf[1] == concatenate_grad(_layers(values, sizes), feats, labels)).all()
        assert np.isnan(buf[[0, 2]]).all()

    @pytest.mark.parametrize("sizes", [(6, 32, 3), (784, 32, 10)])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_workspace_equals_fresh_arrays(self, sizes, runs):
        # one workspace refilled for three steps writes what a fresh workspace gives
        arch = MlpArchitecture(sizes)
        rng = np.random.default_rng([runs, 5])
        values = rng.normal(0.0, 0.3, (runs, arch.num_params))
        layers = _layers(values, sizes)
        ws = Workspace(layers, np.empty((runs, 24, arch.input_dim)))
        for _ in range(3):
            ws.x[...] = rng.normal(0.0, 1.0, ws.x.shape)
            labels = rng.integers(0, arch.num_classes, (runs, 24))
            ws.targets[...] = np.eye(arch.num_classes)[labels]
            into_ws = np.full(values.shape, np.nan)
            _grad(layers, ws, _layers(into_ws, sizes))
            fresh = np.full(values.shape, np.nan)
            grad_into(layers, ws.x.copy(), ws.targets.copy(), _layers(fresh, sizes))
            assert np.array_equal(into_ws, fresh)
            values += 0.01 * into_ws  # the next step sees new weights through the same views


class TestSgdStep:
    def test_arithmetic(self):
        arch = MlpArchitecture((1, 1))
        pv = ParamVector(np.array([1.0, 2.0]), arch)
        grad = ParamVector(np.array([0.5, -1.0]), arch)
        out = sgd_step(pv, grad, 0.1)
        np.testing.assert_allclose(out.values, [0.95, 2.1], atol=1e-15)

    def test_zero_gradient_is_identity(self, tiny_arch):
        rng = np.random.default_rng(5)
        pv = random_params(tiny_arch, rng)
        zero = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        assert np.array_equal(sgd_step(pv, zero, 0.3).values, pv.values)

    def test_linearity_in_lr(self, tiny_arch):
        rng = np.random.default_rng(6)
        pv = random_params(tiny_arch, rng)
        grad = random_params(tiny_arch, rng)
        two_steps = sgd_step(sgd_step(pv, grad, 0.2), grad, 0.3)
        one_step = sgd_step(pv, grad, 0.5)
        np.testing.assert_allclose(two_steps.values, one_step.values, atol=1e-12)

    def test_rejects_non_positive_lr(self, tiny_arch):
        pv = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        with pytest.raises(InputError):
            sgd_step(pv, pv, 0.0)

    def test_non_finite_update_is_training_error(self, tiny_arch):
        pv = ParamVector(np.zeros(tiny_arch.num_params), tiny_arch)
        grad = ParamVector(np.full(tiny_arch.num_params, 1e308), tiny_arch)
        with pytest.raises(TrainingError):
            sgd_step(pv, grad, 1e10)

    def test_descends_convex_quadratic(self):
        # closed-form toy objective: L(v) = 0.5 * ||v - target||^2, grad = v - target
        arch = MlpArchitecture((1, 2))
        target = np.array([1.0, -2.0, 0.5, 3.0])
        pv = ParamVector(np.zeros(4), arch)
        losses = []
        for _ in range(50):
            losses.append(0.5 * np.sum((pv.values - target) ** 2))
            grad = ParamVector(pv.values - target, arch)
            pv = sgd_step(pv, grad, 0.1)
        assert all(b < a for a, b in zip(losses, losses[1:]))


class TestInitParams:
    def test_deterministic(self, tiny_arch):
        a = init_params(tiny_arch, 42)
        b = init_params(tiny_arch, 42)
        assert np.array_equal(a.values, b.values)

    def test_seeds_differ(self, tiny_arch):
        a = init_params(tiny_arch, 1)
        b = init_params(tiny_arch, 2)
        assert not np.array_equal(a.values, b.values)

    def test_biases_zero_weights_scaled(self):
        arch = MlpArchitecture((100, 200, 2))
        pv = init_params(arch, 0)
        w1 = pv.values[: 100 * 200]
        b1 = pv.values[100 * 200 : 100 * 200 + 200]
        assert np.all(b1 == 0.0)
        # empirical mean within 3 sigma of zero for the 20000-sample layer
        sigma_mean = (1.0 / math.sqrt(100)) / math.sqrt(w1.size)
        assert abs(w1.mean()) < 3.0 * sigma_mean
        assert w1.std() == pytest.approx(1.0 / math.sqrt(100), rel=0.05)


def test_full_batch_gd_separates_toy_problem():
    # two well-separated clusters: 100% train accuracy within 500 iterations
    rng = np.random.default_rng(11)
    feats = np.vstack(
        [rng.normal(-2.0, 0.3, (30, 2)), rng.normal(2.0, 0.3, (30, 2))]
    )
    labels = np.array([0] * 30 + [1] * 30)
    data = Dataset(feats, labels, 2)
    arch = MlpArchitecture((2, 8, 2))
    pv = init_params(arch, 0)
    for _ in range(500):
        probs = forward_batch(pv, data.features)
        if np.all(probs.argmax(axis=1) == data.labels):
            break
        pv = sgd_step(pv, backward(pv, data), 0.5)
    probs = forward_batch(pv, data.features)
    assert np.all(probs.argmax(axis=1) == data.labels)
