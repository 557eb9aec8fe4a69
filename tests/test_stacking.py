"""Unit tests for weight rows, ensemble prediction, SWA, and evaluation."""

import math
import warnings

import numpy as np
import pytest

from conftest import random_params, swa_params
from oracles import likelihood_weights
from snapstack import (
    Dataset,
    EvalMetrics,
    InputError,
    MlpArchitecture,
    ParamVector,
    Snapshot,
    evaluate_rows,
    forward_batch,
    log_likelihoods,
    member_probs,
    swa_probs,
    weighted_mean,
    weights_temperature,
)
from snapstack.experiment import _scorer
from snapstack.nn import PROB_FLOOR
from snapstack.stacking import SOURCES

ARCH_1D = MlpArchitecture((1, 2))


def snap_with_bias(bias0: float, bias1: float, train_nll=0.5, val_nll=0.6, it=0) -> Snapshot:
    """Bias-only [1 -> 2] member whose output is softmax((bias0, bias1))."""
    pv = ParamVector(np.array([0.0, 0.0, bias0, bias1]), ARCH_1D)
    return Snapshot(
        params=pv, iteration=it, lr_at_capture=0.01,
        train_nll=train_nll, val_nll=val_nll, tag="min",
    )


class TestWeightsTemperature:
    def test_hand_case_tau_one(self):
        w = weights_temperature([0.0, -math.log(2.0)], 1.0)
        np.testing.assert_allclose(w, [4 / 3, 2 / 3], rtol=1e-12)

    def test_high_tau_approaches_equal(self):
        rng = np.random.default_rng(1)
        lls = rng.uniform(-5.0, 0.0, 8)  # spread <= 5 nats
        w = weights_temperature(lls, 1000.0)
        assert np.abs(w - 1.0).max() < 0.01

    def test_sup_norm_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            lls = rng.uniform(-6.0, 0.0, 5)
            tau = 1000.0
            w = weights_temperature(lls, tau)
            bound = (math.exp((lls.max() - lls.min()) / tau) - 1.0) * lls.size
            assert np.abs(w - 1.0).max() <= bound

    def test_low_tau_selects_best(self):
        w = weights_temperature([-1.0, -0.2, -3.0], 1e-3)
        assert w[1] > 0.999 * 3
        assert np.all(w > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        lls = rng.uniform(-4.0, 0.0, 6)
        for shift in (-100.0, -1.0, 3.5, 777.0):
            a = weights_temperature(lls, 0.7)
            b = weights_temperature(lls + shift, 0.7)
            assert np.abs(a - b).max() < 1e-12

    def test_monotone_in_log_likelihood(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lls = rng.uniform(-5.0, 0.0, 6)
            tau = float(10.0 ** rng.uniform(-2, 2))
            w = weights_temperature(lls, tau)
            order = np.argsort(lls)  # worse likelihood first
            assert np.all(np.diff(w[order]) >= 0.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(InputError):
            weights_temperature([-1.0], 0.0)
        with pytest.raises(InputError):
            weights_temperature([-1.0], -2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            weights_temperature([0.0, -np.inf], 1.0)

    def test_rejects_empty(self):
        for tau in (1.0, [1.0, 2.0]):
            with pytest.raises(InputError, match="at least one log-likelihood"):
                weights_temperature([], tau)

    def test_positive_and_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            lls = rng.uniform(-30.0, 0.0, n)
            tau = float(10.0 ** rng.uniform(-3, 3))
            w = weights_temperature(lls, tau)
            assert np.all(w > 0.0)
            assert abs(w.sum() - n) <= 1e-9

    def test_tiny_tau_warns_nothing(self):
        # a valid tau so small that the exponents overflow to -inf: they floor at tiny
        for tau in (1e-320, [1e-320, 1.0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = weights_temperature([-1.0, -0.2, -3.0], tau)
            assert np.all(np.isfinite(w))
            np.testing.assert_allclose(w.sum(axis=-1), 3.0, rtol=1e-12)


class TestWeightsLikelihood:
    """The likelihood rule: the tau = 1 temperature rule, and the oracle formula."""

    def test_symmetry(self):
        for w in (likelihood_weights([-1.0] * 3), weights_temperature([-1.0] * 3, 1.0)):
            np.testing.assert_allclose(w, 1.0, rtol=1e-15)

    def test_hand_case(self):
        # log-likelihoods (0, -log 2): the shift of (log 2, 0) that keeps NLLs non-negative
        lls = [0.0, -math.log(2.0)]
        for w in (likelihood_weights(lls), weights_temperature(lls, 1.0)):
            np.testing.assert_allclose(w, [4 / 3, 2 / 3], rtol=1e-12)

    def test_identical_to_temperature_one(self):
        rng = np.random.default_rng(5)
        lls = rng.uniform(-3.0, 0.0, 7)
        assert np.array_equal(likelihood_weights(lls), weights_temperature(lls, 1.0))


def temperature_row(snaps: list[Snapshot], tau, source: str = "train") -> np.ndarray:
    """The snapshots' temperature weights at tau, from their log-likelihoods on source."""
    return weights_temperature(log_likelihoods(snaps, source), tau)


class TestWeightRows:
    """Weight rows from the snapshots' log-likelihoods, and the checks weighted_mean
    makes on them."""

    def test_single_member_forced_to_one(self):
        snap = snap_with_bias(0, 0, train_nll=0.7, val_nll=1.9)
        for source in SOURCES:
            for tau in (0.5, 1.0):
                assert temperature_row([snap], tau, source).tolist() == [1.0]

    def test_temperature_one_equals_likelihood(self):
        snaps = [snap_with_bias(0, 0, train_nll=nll, it=i) for i, nll in enumerate((0.2, 0.9, 2.0))]
        lls = log_likelihoods(snaps, "train")
        assert np.array_equal(temperature_row(snaps, 1.0), likelihood_weights(lls))

    def test_source_selects_nll(self):
        snaps = [
            snap_with_bias(0, 0, train_nll=0.2, val_nll=0.9, it=0),
            snap_with_bias(0, 0, train_nll=0.9, val_nll=0.2, it=1),
        ]
        assert log_likelihoods(snaps, "train").tolist() == [-0.2, -0.9]
        assert log_likelihoods(snaps, "validation").tolist() == [-0.9, -0.2]
        train_w = temperature_row(snaps, 0.5, "train")
        val_w = temperature_row(snaps, 0.5, "validation")
        assert train_w[0] > train_w[1]
        assert val_w[0] < val_w[1]

    def test_rejects_bad_tau_and_source(self):
        snaps = [snap_with_bias(0, 0)]
        with pytest.raises(InputError, match="tau must be positive"):
            temperature_row(snaps, 0.0)
        with pytest.raises(InputError, match="unknown weighting source 'test'"):
            log_likelihoods(snaps, "test")

    def test_ensemble_invariants_enforced(self):
        probs = member_probs([snap_with_bias(0, 0)] * 2, np.array([[0.7]]))
        with pytest.raises(InputError, match="strictly positive"):
            weighted_mean(probs, [-1.0, 3.0])
        with pytest.raises(InputError, match="sum to"):
            weighted_mean(probs, [0.5, 0.6])
        with pytest.raises(InputError, match="at least one member"):
            weighted_mean([], np.ones(0))
        with pytest.raises(InputError, match="at least one member"):
            member_probs([], np.array([[0.7]]))
        with pytest.raises(InputError, match="at least one member"):
            swa_probs([], np.ones((1, 0)), np.array([[0.7]]))
        # every row of a [T, K] block is checked, and no weight may be non-finite
        with pytest.raises(InputError, match="sum to"):
            weighted_mean(probs, [[1.0, 1.0], [0.5, 0.6]])
        for bad in ([np.nan, 2.0], [np.inf, 1.0], [0.0, 2.0]):
            with pytest.raises(InputError, match="strictly positive"):
                weighted_mean(probs, bad)


class TestEnsemblePredict:
    """The weighted mean of the members' class probabilities (member_probs)."""

    def test_single_member_equals_forward(self):
        snap = snap_with_bias(0.4, -0.3)
        x = np.array([0.7])
        out = weighted_mean(member_probs([snap], x[None]), [1.0])[0]
        assert np.array_equal(out, forward_batch(snap.params, x[None])[0])

    def test_identical_members_equal_single(self):
        snaps = [snap_with_bias(0.4, -0.3, train_nll=nll, it=i) for i, nll in enumerate((0.3, 0.8))]
        w = temperature_row(snaps, 0.5)
        x = np.array([0.7])
        np.testing.assert_allclose(
            weighted_mean(member_probs(snaps, x[None]), w)[0],
            forward_batch(snaps[0].params, x[None])[0],
            atol=1e-9,
        )

    def test_hand_weighted_combination(self):
        # members output (0.8, 0.2) and (0.2, 0.8); weights (1.5, 0.5)
        log4 = math.log(4.0)
        a = snap_with_bias(log4, 0.0, it=0)
        b = snap_with_bias(0.0, log4, it=1)
        out = weighted_mean(member_probs([a, b], np.array([0.0])[None]), [1.5, 0.5])[0]
        np.testing.assert_allclose(out, [0.65, 0.35], atol=1e-12)

    def test_equal_weights_equal_arithmetic_mean(self):
        rng = np.random.default_rng(6)
        snaps = []
        for i in range(4):
            pv = ParamVector(rng.normal(0, 1, ARCH_1D.num_params), ARCH_1D)
            snaps.append(Snapshot(pv, i, 0.01, 0.5, 0.5, "min"))
        w = np.ones(len(snaps))
        xs = rng.normal(0, 1, (10, 1))
        stacked = np.stack([np.vstack([forward_batch(s.params, x[None])[0] for x in xs]) for s in snaps])
        np.testing.assert_allclose(
            weighted_mean(member_probs(snaps, xs), w), stacked.mean(axis=0), atol=1e-12
        )

    def test_output_on_simplex(self):
        rng = np.random.default_rng(7)
        arch = MlpArchitecture((3, 5, 4))
        snaps = []
        for i in range(5):
            pv = ParamVector(rng.normal(0, 1, arch.num_params), arch)
            snaps.append(Snapshot(pv, i, 0.01, float(rng.uniform(0.1, 2)), 0.5, "min"))
        w = temperature_row(snaps, 0.3)
        out = weighted_mean(member_probs(snaps, rng.normal(0, 1, (20, 3))), w)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestSwaAverage:
    """The weighted mean parameter vector, and the checks swa_probs makes on it."""

    def test_identical_snapshots_identity(self):
        snap = snap_with_bias(0.4, -0.3)
        avg = swa_params([snap] * 3, [1.0] * 3)
        np.testing.assert_allclose(avg.values, snap.params.values, atol=1e-15)

    def test_equal_weight_hand_case(self):
        arch = MlpArchitecture((1, 1))
        a = Snapshot(ParamVector(np.array([0.0, 2.0]), arch), 0, 0.1, 0.5, 0.5, "min")
        b = Snapshot(ParamVector(np.array([2.0, 0.0]), arch), 1, 0.1, 0.5, 0.5, "min")
        avg = swa_params([a, b], [1.0, 1.0])
        np.testing.assert_allclose(avg.values, [1.0, 1.0], atol=1e-15)

    def test_weighted_hand_case(self):
        arch = MlpArchitecture((1, 1))
        a = Snapshot(ParamVector(np.array([0.0, 2.0]), arch), 0, 0.1, 0.5, 0.5, "min")
        b = Snapshot(ParamVector(np.array([2.0, 0.0]), arch), 1, 0.1, 0.5, 0.5, "min")
        avg = swa_params([a, b], [1.8, 0.2])
        np.testing.assert_allclose(avg.values, [0.2, 1.8], atol=1e-12)

    def test_arch_mismatch(self):
        a = snap_with_bias(0, 0)
        arch = MlpArchitecture((1, 3))
        b = Snapshot(ParamVector(np.zeros(arch.num_params), arch), 1, 0.1, 0.5, 0.5, "min")
        with pytest.raises(InputError):
            swa_probs([a, b], np.ones((1, 2)), np.array([[0.5]]))

    def test_bad_weight_sum(self):
        with pytest.raises(InputError):
            swa_probs([snap_with_bias(0, 0)], np.array([[2.0]]), np.array([[0.5]]))

    def test_overflowing_average_rejected(self):
        # each member is finite, their sum is not: the average fails the ParamVector check
        arch = MlpArchitecture((1, 1))
        big = Snapshot(ParamVector(np.array([1.5e308, 0.0]), arch), 0, 0.1, 0.5, 0.5, "min")
        with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
            swa_probs([big, big], np.ones((1, 2)), np.array([[0.5]]))


def mixed_arch_pair() -> tuple[Snapshot, Snapshot]:
    """Two snapshots of 4 parameters each under different architectures: [3 -> 1]
    and [1 -> 1 -> 1]."""
    a_arch, b_arch = MlpArchitecture((3, 1)), MlpArchitecture((1, 1, 1))
    assert a_arch.num_params == b_arch.num_params == 4
    a = Snapshot(ParamVector(np.arange(4.0), a_arch), 0, 0.1, 0.5, 0.5, "min")
    b = Snapshot(ParamVector(np.arange(4.0), b_arch), 1, 0.1, 0.5, 0.5, "min")
    return a, b


def random_members(seed: int) -> tuple[list[Snapshot], np.ndarray]:
    """Five [3 -> 5 -> 4] snapshots with distinct train NLLs, and 20 input rows."""
    rng = np.random.default_rng(seed)
    arch = MlpArchitecture((3, 5, 4))
    snaps = [
        Snapshot(random_params(arch, rng), i, 0.01, float(rng.uniform(0.2, 2.0)), 0.5, "min")
        for i in range(5)
    ]
    return snaps, rng.normal(0, 1, (20, 3))


class TestMemberProbs:
    def test_rows_equal_forward_batch(self):
        snaps, xs = random_members(14)
        out = member_probs(snaps, xs)
        assert out.shape == (5, 20, 4)
        for snap, probs in zip(snaps, out, strict=True):
            assert np.array_equal(probs, forward_batch(snap.params, xs))

    def test_equal_size_arch_mismatch(self):
        a, b = mixed_arch_pair()
        with pytest.raises(InputError, match="share an architecture"):
            member_probs([a, b], np.zeros((2, 3)))


class TestSwaProbs:
    def test_rows_equal_forward_of_weighted_mean(self):
        snaps, xs = random_members(15)
        w = np.vstack([np.ones(len(snaps)), temperature_row(snaps, [0.3])])
        out = swa_probs(snaps, w, xs)
        assert out.shape == (2, 20, 4)
        for row, probs in zip(w, out, strict=True):
            assert np.array_equal(probs, forward_batch(swa_params(snaps, row), xs))

    def test_equal_size_arch_mismatch(self):
        # same parameter count, so only the architecture check can tell them apart
        a, b = mixed_arch_pair()
        with pytest.raises(InputError, match="share one architecture"):
            swa_probs([a, b], np.ones((1, 2)), np.zeros((2, 3)))


class TestEvaluate:
    def test_perfect_predictor(self):
        data = Dataset(np.zeros((4, 2)), [0, 1, 2, 0], 3)
        onehot = np.eye(3)[data.labels]
        met = evaluate_rows(onehot[None], data)[0]
        assert met.accuracy == 1.0
        assert met.mean_nll == 0.0

    def test_uniform_predictor(self):
        data = Dataset(np.zeros((6, 2)), [0, 1, 2, 0, 1, 2], 3)
        met = evaluate_rows(np.full((6, 3), 1.0 / 3.0)[None], data)[0]
        assert met.mean_nll == pytest.approx(math.log(3), rel=1e-12)

    def test_argmax_ties_break_low(self):
        data = Dataset(np.zeros((2, 2)), [0, 1], 2)
        met = evaluate_rows(np.full((2, 2), 0.5)[None], data)[0]
        assert met.accuracy == 0.5  # both predicted as class 0

    def test_recount_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k), size=m)
            labels = rng.integers(0, k, m)
            data = Dataset(rng.normal(0, 1, (m, 2)), labels, k)
            met = evaluate_rows(probs[None], data)[0]
            # independent recount in plain python
            correct = 0
            nll = 0.0
            for j in range(m):
                best = 0
                for c in range(1, k):
                    if probs[j, c] > probs[j, best]:
                        best = c
                correct += best == labels[j]
                nll -= math.log(probs[j, labels[j]])
            assert met.accuracy == pytest.approx(correct / m, abs=1e-15)
            assert met.mean_nll == pytest.approx(nll / m, rel=1e-12)

    def test_predictor_helpers_agree(self):
        snap = snap_with_bias(0.3, -0.1)
        data = Dataset(np.array([[0.5], [-0.5]]), [0, 1], 2)
        single = evaluate_rows(forward_batch(snap.params, data.features)[None], data)[0]
        ens = evaluate_rows(weighted_mean(member_probs([snap], data.features), [[1.0]]), data)[0]
        assert single == ens


def reference_weights(log_liks, tau: float) -> np.ndarray:
    """The temperature rule for one tau, written out as it was before taus were batched."""
    arr = np.asarray(log_liks, dtype=np.float64)
    raw = np.maximum(np.exp((arr - arr.max()) / tau), np.finfo(np.float64).tiny)
    return raw * (raw.size / raw.sum())


def reference_cell(probs: np.ndarray, w: np.ndarray, labels: np.ndarray) -> EvalMetrics:
    """One ensemble scored as it was before cells were batched: weighted mean, then evaluate."""
    mix = (probs * w[:, None, None]).sum(axis=0) / len(w)
    preds = mix.argmax(axis=1)
    p_true = mix[np.arange(len(labels)), labels]
    return EvalMetrics(
        accuracy=float((preds == labels).mean()),
        mean_nll=float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean()),
    )


class TestBatchedScoring:
    """The batched scorer, experiment._scorer, against the per-cell formulas, compared
    with ==, at the benchmark grid's scale: 40 members, 600 test rows, 15 taus."""

    TAUS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0)

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(10)
        members, m, k = 40, 600, 3
        # one-hot test rows: each member's output on row j is the softmax of its own
        # random logits for that row, so the members disagree row by row
        arch = MlpArchitecture((m, k))
        snaps = [
            Snapshot(
                ParamVector(np.append(rng.normal(0.0, 2.0, m * k), np.zeros(k)), arch),
                i, 0.01, float(tr), float(va), "min",
            )
            for i, (tr, va) in enumerate(rng.uniform(0.2, 1.4, (members, 2)))
        ]
        test = Dataset(np.eye(m), rng.integers(0, k, m), k)
        probs = np.stack([forward_batch(s.params, test.features) for s in snaps])
        return snaps, probs, test

    @pytest.mark.parametrize("source", SOURCES)
    def test_sweep_rows_equal_per_cell_path(self, grid, source):
        snaps, probs, test = grid
        metrics = _scorer(test, snaps)
        nlls = np.array([s.train_nll if source == "train" else s.val_nll for s in snaps])
        for n in range(1, len(snaps) + 1):
            expected = [
                reference_cell(probs[-n:], reference_weights(-nlls[-n:], tau), test.labels)
                for tau in self.TAUS
            ]
            w = temperature_row(snaps[-n:], self.TAUS, source)
            assert metrics(w, snaps[-n:]) == expected, n

    def test_compare_pair_equals_per_cell_path(self, grid):
        snaps, probs, test = grid
        w = np.vstack([np.ones(len(snaps)), temperature_row(snaps, self.TAUS, "validation")])
        nlls = np.array([s.val_nll for s in snaps])
        expected = [reference_cell(probs, np.ones(len(snaps)), test.labels)] + [
            reference_cell(probs, reference_weights(-nlls, tau), test.labels) for tau in self.TAUS
        ]
        assert _scorer(test, snaps)(w) == expected

    def test_underflowing_tau_equals_per_cell_path(self, grid):
        snaps, probs, test = grid
        tau = 1e-3
        lls = -np.array([s.train_nll for s in snaps])
        assert np.any(np.exp((lls - lls.max()) / tau) == 0.0)  # the tiny floor is in use
        w = reference_weights(lls, tau)
        met = _scorer(test, snaps)(temperature_row(snaps, [tau, 1.0]))[0]
        assert met == reference_cell(probs, w, test.labels)

    def test_weight_rows_equal_single_tau_weights(self, grid):
        snaps, _, _ = grid
        lls = -np.array([s.train_nll for s in snaps])
        taus = np.array((1e-3, *self.TAUS))
        rows = weights_temperature(lls, taus)
        assert rows.shape == (len(taus), len(lls))
        for i, tau in enumerate(taus):
            assert np.array_equal(rows[i], weights_temperature(lls, taus[i]))
            assert np.array_equal(rows[i], reference_weights(lls, tau))

    def test_rejects_mismatched_shapes(self, grid):
        _, probs, test = grid
        with pytest.raises(InputError, match="weights of shape"):
            weighted_mean(probs[:2], np.ones((4, 3)))
        with pytest.raises(InputError, match="probabilities have shape"):
            evaluate_rows(probs[0], test)

    def test_rejects_bad_tau_in_array(self):
        with pytest.raises(InputError, match="got 0.0"):
            weights_temperature([-1.0, -2.0], [1.0, 0.0])
        with pytest.raises(InputError, match="got nan"):
            weights_temperature([-1.0, -2.0], [np.nan, 1.0])


class TestBatchedSwa:
    """The SWA rows compare scores in one swa_probs call against each row scored alone,
    compared with ==, at the benchmark grid's scale: 20 min members of a [6, 32, 3]
    MLP, 600 test rows, the equal row plus 15 taus."""

    @pytest.fixture(scope="class")
    def members(self):
        rng = np.random.default_rng(12)
        arch = MlpArchitecture((6, 32, 3))
        # members along one path: a shared point plus a small step each
        base = rng.normal(0.0, 0.8, arch.num_params)
        snaps = [
            Snapshot(
                ParamVector(base + rng.normal(0.0, 0.2, arch.num_params), arch),
                i, 0.01, float(tr), float(va), "min",
            )
            for i, (tr, va) in enumerate(rng.uniform(0.2, 1.4, (20, 2)))
        ]
        test = Dataset(rng.normal(0.0, 1.0, (600, 6)), rng.integers(0, 3, 600), 3)
        return snaps, test

    @staticmethod
    def rows(snaps: list[Snapshot], source: str) -> list[np.ndarray]:
        """The equal row, then one temperature row per tau, each made alone."""
        taus = TestBatchedScoring.TAUS
        return [np.ones(len(snaps))] + [temperature_row(snaps, tau, source) for tau in taus]

    @pytest.mark.parametrize("source", SOURCES)
    def test_rows_equal_single_spec_path(self, members, source):
        snaps, test = members
        expected = [
            evaluate_rows(forward_batch(swa_params(snaps, w), test.features)[None], test)[0]
            for w in self.rows(snaps, source)
        ]
        taus = TestBatchedScoring.TAUS
        block = np.vstack([np.ones(len(snaps)), temperature_row(snaps, taus, source)])
        assert evaluate_rows(swa_probs(snaps, block, test.features), test) == expected

    @pytest.mark.parametrize("source", SOURCES)
    def test_average_equals_sum_over_members(self, members, source):
        snaps, _ = members
        stacked = np.stack([s.params.values for s in snaps])
        for i, w in enumerate(self.rows(snaps, source)):
            expected = (w[:, None] * stacked).sum(axis=0) / len(snaps)
            assert np.array_equal(swa_params(snaps, w).values, expected), i
