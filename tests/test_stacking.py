"""Unit tests for weighting rules, ensemble prediction, SWA, and evaluation."""

import math

import numpy as np
import pytest

from conftest import likelihood_weights
from snapstack import (
    Dataset,
    EnsembleModel,
    InputError,
    MlpArchitecture,
    ParamVector,
    Snapshot,
    WeightingSpec,
    build_ensemble,
    ensemble_predict_batch,
    evaluate,
    forward,
    forward_batch,
    swa_average,
    weights_equal,
    weights_inverse_loss,
    weights_temperature,
)

ARCH_1D = MlpArchitecture((1, 2))


def snap_with_bias(bias0: float, bias1: float, train_nll=0.5, val_nll=0.6, it=0) -> Snapshot:
    """Bias-only [1 -> 2] member whose output is softmax((bias0, bias1))."""
    pv = ParamVector(np.array([0.0, 0.0, bias0, bias1]), ARCH_1D)
    return Snapshot(
        params=pv, iteration=it, lr_at_capture=0.01,
        train_nll=train_nll, val_nll=val_nll, tag="min",
    )


class TestWeightsEqual:
    def test_values(self):
        assert weights_equal(3).tolist() == [1.0, 1.0, 1.0]
        assert weights_equal(1).tolist() == [1.0]

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            weights_equal(0)


class TestWeightsInverseLoss:
    def test_hand_case(self):
        w = weights_inverse_loss([1.0, 2.0, 4.0])
        np.testing.assert_allclose(w, [12 / 7, 6 / 7, 3 / 7], rtol=1e-15)

    def test_equal_losses_give_ones(self):
        np.testing.assert_allclose(weights_inverse_loss([0.7, 0.7, 0.7]), 1.0, rtol=1e-15)

    def test_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            losses = rng.uniform(0.05, 5.0, 6)
            w = weights_inverse_loss(losses)
            order = np.argsort(losses)
            assert np.all(np.diff(w[order]) <= 0.0)

    def test_zero_loss_rejected(self):
        with pytest.raises(InputError):
            weights_inverse_loss([0.5, 0.0])


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

    def test_positive_and_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            lls = rng.uniform(-30.0, 0.0, n)
            tau = float(10.0 ** rng.uniform(-3, 3))
            w = weights_temperature(lls, tau)
            assert np.all(w > 0.0)
            assert abs(w.sum() - n) <= 1e-9


class TestWeightsLikelihood:
    def test_symmetry(self):
        np.testing.assert_allclose(likelihood_weights([-1.0, -1.0, -1.0]), 1.0, rtol=1e-15)

    def test_hand_case(self):
        # log-likelihoods (0, -log 2): the shift of (log 2, 0) that keeps NLLs non-negative
        w = likelihood_weights([0.0, -math.log(2.0)])
        np.testing.assert_allclose(w, [4 / 3, 2 / 3], rtol=1e-12)

    def test_identical_to_temperature_one(self):
        rng = np.random.default_rng(5)
        lls = rng.uniform(-3.0, 0.0, 7)
        assert np.array_equal(likelihood_weights(lls), weights_temperature(lls, 1.0))


class TestBuildEnsemble:
    def test_equal_ignores_losses(self):
        snaps = [snap_with_bias(0, 0, train_nll=nll, it=i) for i, nll in enumerate((0.2, 0.9, 2.0))]
        ens = build_ensemble(snaps, WeightingSpec("equal"))
        assert ens.weights.tolist() == [1.0, 1.0, 1.0]

    def test_single_member_forced_to_one(self):
        for rule in ("equal", "inverse_loss", "likelihood", "temperature"):
            ens = build_ensemble([snap_with_bias(0, 0, train_nll=0.7)], WeightingSpec(rule, tau=0.5))
            assert ens.weights.tolist() == [1.0]

    def test_temperature_one_equals_likelihood(self):
        snaps = [snap_with_bias(0, 0, train_nll=nll, it=i) for i, nll in enumerate((0.2, 0.9, 2.0))]
        a = build_ensemble(snaps, WeightingSpec("likelihood"))
        b = build_ensemble(snaps, WeightingSpec("temperature", tau=1.0))
        assert np.array_equal(a.weights, b.weights)

    def test_source_selects_nll(self):
        snaps = [
            snap_with_bias(0, 0, train_nll=0.2, val_nll=0.9, it=0),
            snap_with_bias(0, 0, train_nll=0.9, val_nll=0.2, it=1),
        ]
        train_w = build_ensemble(snaps, WeightingSpec("temperature", tau=0.5, source="train")).weights
        val_w = build_ensemble(snaps, WeightingSpec("temperature", tau=0.5, source="validation")).weights
        assert train_w[0] > train_w[1]
        assert val_w[0] < val_w[1]

    def test_spec_validation(self):
        with pytest.raises(InputError):
            WeightingSpec("best")
        with pytest.raises(InputError):
            WeightingSpec("temperature", tau=0.0)
        with pytest.raises(InputError):
            WeightingSpec("equal", source="test")

    def test_ensemble_invariants_enforced(self):
        snap = snap_with_bias(0, 0)
        with pytest.raises(InputError):
            EnsembleModel([(snap, -1.0), (snap, 3.0)])
        with pytest.raises(InputError):
            EnsembleModel([(snap, 0.5), (snap, 0.6)])
        with pytest.raises(InputError):
            EnsembleModel([])


class TestEnsemblePredict:
    def test_single_member_equals_forward(self):
        snap = snap_with_bias(0.4, -0.3)
        ens = EnsembleModel([(snap, 1.0)])
        x = np.array([0.7])
        assert np.array_equal(ensemble_predict_batch(ens, x[None])[0], forward(snap.params, x))

    def test_identical_members_equal_single(self):
        snaps = [snap_with_bias(0.4, -0.3, train_nll=nll, it=i) for i, nll in enumerate((0.3, 0.8))]
        ens = build_ensemble(snaps, WeightingSpec("temperature", tau=0.5))
        x = np.array([0.7])
        np.testing.assert_allclose(
            ensemble_predict_batch(ens, x[None])[0], forward(snaps[0].params, x), atol=1e-9
        )

    def test_hand_weighted_combination(self):
        # members output (0.8, 0.2) and (0.2, 0.8); weights (1.5, 0.5)
        log4 = math.log(4.0)
        a = snap_with_bias(log4, 0.0, it=0)
        b = snap_with_bias(0.0, log4, it=1)
        ens = EnsembleModel([(a, 1.5), (b, 0.5)])
        out = ensemble_predict_batch(ens, np.array([0.0])[None])[0]
        np.testing.assert_allclose(out, [0.65, 0.35], atol=1e-12)

    def test_equal_weights_equal_arithmetic_mean(self):
        rng = np.random.default_rng(6)
        snaps = []
        for i in range(4):
            pv = ParamVector(rng.normal(0, 1, ARCH_1D.num_params), ARCH_1D)
            snaps.append(Snapshot(pv, i, 0.01, 0.5, 0.5, "min"))
        ens = build_ensemble(snaps, WeightingSpec("equal"))
        xs = rng.normal(0, 1, (10, 1))
        stacked = np.stack([np.vstack([forward(s.params, x) for x in xs]) for s in snaps])
        np.testing.assert_allclose(
            ensemble_predict_batch(ens, xs), stacked.mean(axis=0), atol=1e-12
        )

    def test_output_on_simplex(self):
        rng = np.random.default_rng(7)
        arch = MlpArchitecture((3, 5, 4))
        snaps = []
        for i in range(5):
            pv = ParamVector(rng.normal(0, 1, arch.num_params), arch)
            snaps.append(Snapshot(pv, i, 0.01, float(rng.uniform(0.1, 2)), 0.5, "min"))
        ens = build_ensemble(snaps, WeightingSpec("temperature", tau=0.3))
        out = ensemble_predict_batch(ens, rng.normal(0, 1, (20, 3)))
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestSwaAverage:
    def test_identical_snapshots_identity(self):
        snap = snap_with_bias(0.4, -0.3)
        avg = swa_average(EnsembleModel([(snap, 1.0)] * 3))
        np.testing.assert_allclose(avg.values, snap.params.values, atol=1e-15)

    def test_equal_weight_hand_case(self):
        arch = MlpArchitecture((1, 1))
        a = Snapshot(ParamVector(np.array([0.0, 2.0]), arch), 0, 0.1, 0.5, 0.5, "min")
        b = Snapshot(ParamVector(np.array([2.0, 0.0]), arch), 1, 0.1, 0.5, 0.5, "min")
        avg = swa_average(EnsembleModel([(a, 1.0), (b, 1.0)]))
        np.testing.assert_allclose(avg.values, [1.0, 1.0], atol=1e-15)

    def test_weighted_hand_case(self):
        arch = MlpArchitecture((1, 1))
        a = Snapshot(ParamVector(np.array([0.0, 2.0]), arch), 0, 0.1, 0.5, 0.5, "min")
        b = Snapshot(ParamVector(np.array([2.0, 0.0]), arch), 1, 0.1, 0.5, 0.5, "min")
        avg = swa_average(EnsembleModel([(a, 1.8), (b, 0.2)]))
        np.testing.assert_allclose(avg.values, [0.2, 1.8], atol=1e-12)

    def test_arch_mismatch(self):
        a = snap_with_bias(0, 0)
        arch = MlpArchitecture((1, 3))
        b = Snapshot(ParamVector(np.zeros(arch.num_params), arch), 1, 0.1, 0.5, 0.5, "min")
        with pytest.raises(InputError):
            swa_average(EnsembleModel([(a, 1.0), (b, 1.0)]))

    def test_bad_weight_sum(self):
        with pytest.raises(InputError):
            swa_average(EnsembleModel([(snap_with_bias(0, 0), 2.0)]))


class TestEvaluate:
    def test_perfect_predictor(self):
        data = Dataset(np.zeros((4, 2)), [0, 1, 2, 0], 3)
        onehot = np.eye(3)[data.labels]
        met = evaluate(onehot, data)
        assert met.accuracy == 1.0
        assert met.mean_nll == 0.0

    def test_uniform_predictor(self):
        data = Dataset(np.zeros((6, 2)), [0, 1, 2, 0, 1, 2], 3)
        met = evaluate(np.full((6, 3), 1.0 / 3.0), data)
        assert met.mean_nll == pytest.approx(math.log(3), rel=1e-12)

    def test_argmax_ties_break_low(self):
        data = Dataset(np.zeros((2, 2)), [0, 1], 2)
        met = evaluate(np.full((2, 2), 0.5), data)
        assert met.accuracy == 0.5  # both predicted as class 0

    def test_recount_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = int(rng.integers(2, 30))
            k = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(k), size=m)
            labels = rng.integers(0, k, m)
            data = Dataset(rng.normal(0, 1, (m, 2)), labels, k)
            met = evaluate(probs, data)
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
        single = evaluate(forward_batch(snap.params, data.features), data)
        ens = evaluate(ensemble_predict_batch(EnsembleModel([(snap, 1.0)]), data.features), data)
        assert single == ens
