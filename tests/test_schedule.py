"""Unit tests for the cyclical learning-rate schedule."""

import math

import numpy as np
import pytest

from snapstack import CycleConfig, InputError, cycle_midpoints, cycle_minima, lr_at


class TestCycleConfig:
    def test_rejects_inverted_range(self):
        with pytest.raises(InputError):
            CycleConfig(0.1, 0.1, 10, 100)

    def test_rejects_short_cycle(self):
        with pytest.raises(InputError):
            CycleConfig(0.01, 0.1, 1, 100)

    def test_rejects_run_shorter_than_cycle(self):
        with pytest.raises(InputError):
            CycleConfig(0.01, 0.1, 100, 50)

    @pytest.mark.parametrize("cycle_len, total_iters", [(10.0, 100), (10, 60.5), (10, math.inf)])
    def test_rejects_non_integer_lengths(self, cycle_len, total_iters):
        with pytest.raises(InputError, match="integer"):
            CycleConfig(0.01, 0.1, cycle_len, total_iters)

    def test_accepts_numpy_integers(self):
        cfg = CycleConfig(0.05, 0.5, np.int64(200), np.int32(1000))
        assert cycle_minima(cfg) == [199, 399, 599, 799, 999]
        assert cycle_midpoints(cfg) == [100, 300, 500, 700, 900]


class TestLrAt:
    def test_cycle_start_is_alpha_max(self):
        cfg = CycleConfig(0.001, 0.1, 101, 505)
        for c in range(5):
            assert lr_at(cfg, c * 101) == 0.1

    def test_cycle_end_is_alpha_min(self):
        cfg = CycleConfig(0.001, 0.1, 101, 505)
        for c in range(5):
            assert lr_at(cfg, c * 101 + 100) == 0.001

    def test_interior_formula(self):
        cfg = CycleConfig(0.001, 0.1, 101, 101)
        expected = 0.001 + 0.0495 * (1.0 + math.cos(math.pi * 0.5))
        assert lr_at(cfg, 50) == pytest.approx(expected, rel=1e-12)
        assert lr_at(cfg, 50) == pytest.approx(0.0505, abs=1e-12)

    def test_periodic(self):
        cfg = CycleConfig(0.01, 0.2, 37, 37 * 4)
        for t in range(37):
            assert lr_at(cfg, t) == lr_at(cfg, t + 37) == lr_at(cfg, t + 74)

    def test_bounded_and_non_increasing_within_cycle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lo = float(rng.uniform(1e-4, 0.05))
            hi = float(rng.uniform(0.1, 1.0))
            length = int(rng.integers(2, 60))
            cfg = CycleConfig(lo, hi, length, length * 3)
            rates = [lr_at(cfg, t) for t in range(length)]
            assert all(lo <= r <= hi for r in rates)
            assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_out_of_range_iteration(self):
        cfg = CycleConfig(0.01, 0.1, 10, 100)
        with pytest.raises(InputError):
            lr_at(cfg, 100)
        with pytest.raises(InputError):
            lr_at(cfg, -1)


class TestCycleMinima:
    def test_three_full_cycles(self):
        cfg = CycleConfig(0.01, 0.1, 100, 300)
        assert cycle_minima(cfg) == [99, 199, 299]

    def test_incomplete_cycle_yields_no_minimum(self):
        cfg = CycleConfig(0.01, 0.1, 100, 150)
        assert cycle_minima(cfg) == [99]

    def test_rate_at_minima_is_alpha_min(self):
        cfg = CycleConfig(0.003, 0.3, 41, 41 * 5 + 7)
        for t in cycle_minima(cfg):
            assert lr_at(cfg, t) == 0.003


class TestCycleMidpoints:
    def test_symmetric_cycle_hits_center(self):
        cfg = CycleConfig(0.001, 0.1, 101, 303)
        assert cycle_midpoints(cfg) == [50, 151, 252]

    def test_crossing_within_one_step(self):
        for length in (5, 10, 33, 101):
            cfg = CycleConfig(0.01, 0.4, length, length * 2)
            half = (0.4 + 0.01) / 2.0
            for t in cycle_midpoints(cfg):
                step = lr_at(cfg, t - 1) - lr_at(cfg, t)
                assert abs(lr_at(cfg, t) - half) <= step + 1e-12

    def test_first_index_at_or_below_half(self):
        # crossing definition: rate <= half amplitude first holds at the midpoint
        for length in (4, 7, 12, 101):
            cfg = CycleConfig(0.02, 0.5, length, length)
            half = (0.5 + 0.02) / 2.0
            (mid,) = cycle_midpoints(cfg)
            assert lr_at(cfg, mid) <= half + 1e-12
            assert lr_at(cfg, mid - 1) >= half - 1e-12

    def test_degenerate_two_point_cycle(self):
        cfg = CycleConfig(0.01, 0.1, 2, 6)
        assert cycle_midpoints(cfg) == cycle_minima(cfg)

    def test_disjoint_from_minima_when_cycle_long_enough(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            length = int(rng.integers(4, 80))
            cfg = CycleConfig(0.01, 0.3, length, length * int(rng.integers(1, 5)))
            assert not set(cycle_minima(cfg)) & set(cycle_midpoints(cfg))

    def test_one_per_completed_cycle(self):
        cfg = CycleConfig(0.01, 0.1, 40, 110)  # 2 completed cycles
        assert len(cycle_midpoints(cfg)) == 2
