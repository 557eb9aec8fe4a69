"""Unit tests for snapshot capture, the selection policies, and store I/O."""

import json
import struct

import numpy as np
import pytest

from conftest import quick_split, store_from_nlls
from snapstack import (
    ArchMismatchError,
    BadMagicError,
    BadVersionError,
    CycleConfig,
    Dataset,
    FormatError,
    InputError,
    MlpArchitecture,
    ParamVector,
    SelectionError,
    Snapshot,
    SnapshotStore,
    TrainingError,
    TruncatedFileError,
    backward,
    init_params,
    load_store,
    plan_captures,
    save_store,
    select_mid,
    select_min,
    select_offset,
    select_window,
    sgd_step,
    train_with_capture,
)
from snapstack.schedule import cycle_midpoints, cycle_minima, lr_at

ARCH = MlpArchitecture((2, 4, 3))
CFG = CycleConfig(0.02, 0.3, 20, 60)


def small_run(capture_plan, seed=0, cfg=CFG):
    train, val = quick_split()
    return train_with_capture(ARCH, train, val, cfg, seed, capture_plan, batch_size=16)


class TestTrainWithCapture:
    def test_empty_plan_trains_without_snapshots(self):
        store = small_run({})
        assert store.snapshots == ()

    def test_deterministic(self):
        plan = plan_captures(CFG)
        assert small_run(plan, seed=3) == small_run(plan, seed=3)

    def test_capture_count_matches_plan(self):
        plan = plan_captures(CFG, window_halfwidth=2, offsets=[5])
        store = small_run(plan)
        assert len(store.snapshots) == len(plan)

    def test_captures_equal_public_sgd_loop(self):
        # reference: the same shuffle stream stepped through backward + sgd_step
        train, _ = quick_split()
        plan = plan_captures(CFG, window_halfwidth=1)
        store = small_run(plan, seed=5)
        params = init_params(ARCH, 5)
        rng = np.random.default_rng([5, 1])
        order, pos, expected = rng.permutation(train.num_examples), 0, {}
        for t in range(CFG.total_iters):
            if pos >= train.num_examples:
                order, pos = rng.permutation(train.num_examples), 0
            idx = order[pos : pos + 16]
            pos += 16
            batch = Dataset(train.features[idx], train.labels[idx], train.num_classes)
            params = sgd_step(params, backward(params, batch), lr_at(CFG, t))
            if t in plan:
                expected[t] = params
        assert {s.iteration: s.params for s in store.snapshots} == expected

    def test_auto_tags_from_schedule(self):
        store = small_run(plan_captures(CFG, window_halfwidth=1))
        tags = {s.iteration: s.tag for s in store.snapshots}
        for t in cycle_minima(CFG):
            assert tags[t - 1] == "window"
            assert tags[t] == "min"
        for t in cycle_midpoints(CFG):
            assert tags[t] == "mid"

    def test_explicit_tag_mapping(self):
        store = small_run({7: "offset", 19: "min"})
        assert [s.tag for s in store.snapshots] == ["offset", "min"]

    def test_out_of_range_plan_rejected(self):
        with pytest.raises(InputError):
            small_run({60: "window"})
        with pytest.raises(InputError):
            small_run({-1: "window"})

    def test_mismatched_data_rejected(self):
        train, val = quick_split()
        wrong_arch = MlpArchitecture((5, 4, 3))
        with pytest.raises(InputError):
            train_with_capture(wrong_arch, train, val, CFG, 0, {})

    def test_divergence_names_iteration(self):
        train, val = quick_split()
        wild = CycleConfig(1e7, 1e8, 20, 60)
        with pytest.raises(TrainingError, match="iteration"):
            train_with_capture(ARCH, train, val, wild, 0, {}, batch_size=16)

    def test_snapshot_metadata(self):
        store = small_run(plan_captures(CFG))
        for snap, t in zip(select_min(store), cycle_minima(CFG), strict=True):
            assert snap.iteration == t
            assert snap.lr_at_capture == CFG.alpha_min
            assert snap.train_nll >= 0.0 and snap.val_nll >= 0.0

    def test_later_snapshots_improve_on_first(self):
        # premise of collecting along the path: later models score better
        firsts, lasts = [], []
        for seed in range(10):
            data = quick_split(seed=seed)
            cfg = CycleConfig(0.02, 0.3, 60, 180)
            store = train_with_capture(
                ARCH, data[0], data[1], cfg, seed, plan_captures(cfg), batch_size=16
            )
            mins = select_min(store)
            firsts.append(mins[0].val_nll)
            lasts.append(mins[-1].val_nll)
        assert np.median(lasts) < np.median(firsts)


class TestSelectMin:
    def test_one_per_cycle(self):
        store = small_run(plan_captures(CFG))
        chosen = select_min(store)
        assert [s.iteration for s in chosen] == cycle_minima(CFG)
        assert all(s.lr_at_capture == CFG.alpha_min for s in chosen)

    def test_empty_selection_raises(self):
        store = small_run({3: "window"})
        with pytest.raises(SelectionError):
            select_min(store)


class TestSelectMid:
    def test_one_per_cycle_and_disjoint_from_min(self):
        store = small_run(plan_captures(CFG))
        mids = select_mid(store)
        mins = select_min(store)
        assert len(mids) == len(mins) == 3
        assert not {s.iteration for s in mids} & {s.iteration for s in mins}
        half = (CFG.alpha_max + CFG.alpha_min) / 2.0
        for s in mids:
            step = lr_at(CFG, s.iteration - 1) - lr_at(CFG, s.iteration)
            assert abs(s.lr_at_capture - half) <= step + 1e-12

    def test_combined_min_mid_gives_two_per_cycle(self):
        store = small_run(plan_captures(CFG))
        merged = sorted(
            select_min(store) + select_mid(store), key=lambda s: s.iteration
        )
        assert len(merged) == 2 * CFG.num_cycles

    def test_huge_declared_run_length(self):
        # a store header may declare any run length; min and mid scan the snapshots
        zeros = ParamVector(np.zeros(ARCH.num_params), ARCH)
        snaps = [Snapshot(zeros, t, 0.05, 0.5, 0.5, "min") for t in (2, 4, 7, 9, 12)]
        store = SnapshotStore("huge", ARCH, CycleConfig(0.01, 0.1, 5, 2**70), 0, "", "", snaps)
        assert [s.iteration for s in select_min(store)] == [4, 9]
        assert [s.iteration for s in select_mid(store)] == [2, 7, 12]


class TestSelectWindow:
    def test_hand_case_picks_lowest_val_nll(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {7: 0.50, 8: 0.40, 9: 0.45, 10: 0.60, 11: 0.55}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="skipped"):  # second cycle incomplete
            chosen = select_window(store, 2)
        assert [s.iteration for s in chosen] == [8]

    def test_ties_break_to_earliest(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {t: 0.5 for t in range(7, 12)}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning):
            chosen = select_window(store, 2)
        assert chosen[0].iteration == 7

    def test_s_zero_equals_select_min(self):
        store = small_run(plan_captures(CFG))
        assert select_window(store, 0) == select_min(store)

    def test_incomplete_window_skips_cycle(self):
        cfg = CycleConfig(0.01, 0.1, 10, 30)
        # cycles at 9, 19, 29; the last window [28, 30] runs past the end
        vals = {t: 0.5 + 0.01 * t for t in (8, 9, 10, 18, 19, 20, 28, 29)}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="29"):
            chosen = select_window(store, 1)
        assert [s.iteration for s in chosen] == [8, 18]

    def test_oversized_window_rejected(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(InputError):
            select_window(store, CFG.cycle_len // 2)

    def test_never_fabricates_snapshots(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {8: 0.3, 9: 0.2, 10: 0.4}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning):  # second cycle has no window captures
            chosen = select_window(store, 1)
        assert chosen[0] in store.snapshots


class TestSelectOffset:
    def test_zero_steps_equals_select_min(self):
        store = small_run(plan_captures(CFG))
        assert select_offset(store, 0) == select_min(store)

    def test_positive_steps(self):
        cfg = CycleConfig(0.01, 0.1, 100, 300)
        vals = {t: 0.5 for t in (109, 209)}
        vals.update({t: 0.6 for t in (99, 199, 299)})
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="309"):
            chosen = select_offset(store, 10)
        assert [s.iteration for s in chosen] == [109, 209]

    def test_steps_beyond_cycle_rejected(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(InputError):
            select_offset(store, CFG.cycle_len)

    def test_uncaptured_target_raises(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(SelectionError):
            select_offset(store, 3)

    def test_negative_steps(self):
        plan = plan_captures(CFG, offsets=[-4])
        store = small_run(plan)
        chosen = select_offset(store, -4)
        assert [s.iteration for s in chosen] == [m - 4 for m in cycle_minima(CFG)]


class TestStoreIO:
    def test_round_trip_exact(self, tmp_path):
        store = small_run(plan_captures(CFG, window_halfwidth=1))
        path = tmp_path / "run.snap"
        save_store(store, path)
        assert load_store(path) == store

    def test_sidecar_written(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        meta = json.loads((tmp_path / "run.snap.meta.json").read_text())
        assert meta["seed"] == store.seed
        assert meta["train_fingerprint"] == store.train_fingerprint
        assert meta["cfg"]["cycle_len"] == CFG.cycle_len

    def test_truncated_file(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        (tmp_path / "cut.snap").write_bytes(path.read_bytes()[:-40])
        with pytest.raises(TruncatedFileError):
            load_store(tmp_path / "cut.snap")

    def test_flipped_magic(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        (tmp_path / "bad.snap").write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            load_store(tmp_path / "bad.snap")

    def test_bad_version(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 8, 99)
        (tmp_path / "v99.snap").write_bytes(bytes(raw))
        with pytest.raises(BadVersionError):
            load_store(tmp_path / "v99.snap")

    def test_arch_mismatch(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 10)
        header = json.loads(raw[14 : 14 + header_len].decode())
        header["param_count"] = header["param_count"] + 1
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        out = raw[:10] + struct.pack("<I", len(new_header)) + new_header + raw[14 + header_len :]
        (tmp_path / "arch.snap").write_bytes(out)
        with pytest.raises(ArchMismatchError):
            load_store(tmp_path / "arch.snap")

    def test_corrupt_header_json(self, tmp_path):
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[20] = 0xFF
        (tmp_path / "json.snap").write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_store(tmp_path / "json.snap")
