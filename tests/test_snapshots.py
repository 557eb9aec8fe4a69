"""Unit tests for snapshot capture, the selection policies, and store I/O."""

import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import quick_split, store_from_nlls
from oracles import backward, cycle_midpoints, sgd_step
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
    SplitSpec,
    TrainingError,
    TruncatedFileError,
    init_params,
    load_store,
    make_blobs,
    plan_captures,
    save_store,
    select,
    split,
    train_runs,
)
from snapstack import snapshots
from snapstack.schedule import cycle_minima, lr_at

ARCH = MlpArchitecture((2, 4, 3))
CFG = CycleConfig(0.02, 0.3, 20, 60)


def small_run(capture_plan, seed=0, cfg=CFG):
    train, val = quick_split()
    return train_runs(ARCH, train, val, cfg, [seed], [capture_plan], 16)[0]


def reference_steps(arch, train, cfg, seed, batch_size):
    """(iteration, params after its update) of one run stepped through the reference
    backward and out-of-place sgd_step (tests/oracles.py), over the shuffle stream the
    training loop draws for seed."""
    params = init_params(arch, seed)
    rng = np.random.default_rng([seed, 1])
    m = train.num_examples
    order, pos = rng.permutation(m), 0
    for t in range(cfg.total_iters):
        if pos >= m:
            order, pos = rng.permutation(m), 0
        idx = order[pos : pos + batch_size]
        pos += batch_size
        batch = Dataset(train.features[idx], train.labels[idx], train.num_classes)
        params = sgd_step(params, backward(params, batch), lr_at(cfg, t))
        yield t, params


def reference_divergence(arch, train, cfg, seed, batch_size):
    """The iteration whose update first leaves a non-finite value in the reference
    loop: a non-finite gradient (rejected as a ParamVector) or a non-finite step."""
    t = -1
    try:
        with np.errstate(all="ignore"):
            for t, _ in reference_steps(arch, train, cfg, seed, batch_size):
                pass
    except (InputError, TrainingError):
        return t + 1
    return None


# 96 training rows in batches of 20, and 80 in batches of 32: every pass ends
# on a 16-row minibatch, so the loop switches to the short batch and back
REFERENCE_CASES = [
    pytest.param((6, 32, 3), 40, 20, id="6-32-3"),
    pytest.param((784, 32, 10), 10, 32, id="784-32-10"),
]


def reference_split(sizes, per_class):
    return split(make_blobs(sizes[-1], per_class, sizes[0], 1.0, seed=3), SplitSpec(0.2, 3))


class TestCaptures:
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
        train, _ = quick_split()
        plan = plan_captures(CFG, window_halfwidth=1)
        store = small_run(plan, seed=5)
        expected = {t: p for t, p in reference_steps(ARCH, train, CFG, 5, 16) if t in plan}
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
            train_runs(wrong_arch, train, val, CFG, [0], [{}], 32)

    def test_divergence_names_iteration(self):
        train, val = quick_split()
        wild = CycleConfig(1e7, 1e8, 20, 60)
        with pytest.raises(TrainingError, match="iteration"):
            train_runs(ARCH, train, val, wild, [0], [{}], 16)

    def test_snapshot_metadata(self):
        store = small_run(plan_captures(CFG))
        for snap, t in zip(select(store, "min"), cycle_minima(CFG), strict=True):
            assert snap.iteration == t
            assert snap.lr_at_capture == CFG.alpha_min
            assert snap.train_nll >= 0.0 and snap.val_nll >= 0.0

    def test_later_snapshots_improve_on_first(self):
        # premise of collecting along the path: later models score better
        firsts, lasts = [], []
        for seed in range(10):
            data = quick_split(seed=seed)
            cfg = CycleConfig(0.02, 0.3, 60, 180)
            store = train_runs(ARCH, data[0], data[1], cfg, [seed], [plan_captures(cfg)], 16)[0]
            mins = select(store, "min")
            firsts.append(mins[0].val_nll)
            lasts.append(mins[-1].val_nll)
        assert np.median(lasts) < np.median(firsts)


class TestTrainRuns:
    def test_each_run_equals_its_own_training(self):
        # 96 training rows in batches of 20: every pass ends on a short minibatch
        train, val = quick_split()
        seeds = [5, 6, 7]
        plans = [plan_captures(CFG, window_halfwidth=1), {59: "window"}, {7: "offset"}]
        stores = train_runs(ARCH, train, val, CFG, seeds, plans, 20)
        for store, seed, plan in zip(stores, seeds, plans, strict=True):
            assert store == train_runs(ARCH, train, val, CFG, [seed], [plan], 20)[0]

    def test_mnist_shaped_runs_equal_their_own_training(self):
        # 784-32-10 on 10 x 10 blobs: 80 training rows in batches of 32, so each
        # pass ends on a 16-row minibatch
        arch = MlpArchitecture((784, 32, 10))
        train, val = split(make_blobs(10, 10, 784, 0.5, seed=3), SplitSpec(0.2, 3))
        seeds = [5, 6, 7]
        plans = [plan_captures(CFG, window_halfwidth=1), {59: "window"}, {7: "offset"}]
        stores = train_runs(arch, train, val, CFG, seeds, plans, 32)
        for store, seed, plan in zip(stores, seeds, plans, strict=True):
            assert store == train_runs(arch, train, val, CFG, [seed], [plan], 32)[0]

    @pytest.mark.parametrize("sizes, per_class, batch", REFERENCE_CASES)
    def test_non_adjacent_sets_score_as_a_split(self, sizes, per_class, batch):
        # a split's sets are scored as one matrix; copies in separate arrays are stacked
        arch = MlpArchitecture(sizes)
        train, val = reference_split(sizes, per_class)
        assert train.features.base is val.features.base
        apart = [Dataset(np.array(d.features), d.labels, d.num_classes) for d in (train, val)]
        assert not np.shares_memory(apart[0].features, apart[1].features)
        plans = [plan_captures(CFG, window_halfwidth=1), {59: "window"}]
        stores = train_runs(arch, train, val, CFG, [5, 6], plans, batch)
        assert stores == train_runs(arch, *apart, CFG, [5, 6], plans, batch)

    def test_scoring_a_split_copies_no_features(self):
        # 800 + 200 rows of 784 features: the scoring reads the split's joined
        # matrix, so the call never holds another 6.3 MB
        arch = MlpArchitecture((784, 32, 10))
        train, val = split(make_blobs(10, 100, 784, 1.0, seed=2), SplitSpec(0.2, 2))
        joined = train.features.nbytes + val.features.nbytes
        plan = {t: "window" for t in range(0, 60, 12)}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (store,) = train_runs(arch, train, val, CFG, [1], [plan], 32)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(store.snapshots) == 5
        assert peak < joined, f"peak {peak} bytes against {joined} bytes of features"

    @pytest.mark.parametrize("sizes, per_class, batch", REFERENCE_CASES)
    def test_runs_equal_public_sgd_loop(self, sizes, per_class, batch):
        arch = MlpArchitecture(sizes)
        train, val = reference_split(sizes, per_class)
        seeds = [5, 6, 7]
        plans = [plan_captures(CFG, window_halfwidth=1), {59: "window"}, {7: "offset", 58: "min"}]
        stores = train_runs(arch, train, val, CFG, seeds, plans, batch)
        for store, seed, plan in zip(stores, seeds, plans, strict=True):
            steps = reference_steps(arch, train, CFG, seed, batch)
            expected = {t: p for t, p in steps if t in plan}
            assert {s.iteration: s.params for s in store.snapshots} == expected
            assert [s.lr_at_capture for s in store.snapshots] == [lr_at(CFG, t) for t in expected]

    @pytest.mark.parametrize("sizes, per_class, batch", REFERENCE_CASES)
    def test_divergence_at_reference_iteration(self, sizes, per_class, batch):
        # rates large enough that the runs blow up late, a few iterations apart
        arch = MlpArchitecture(sizes)
        train, val = reference_split(sizes, per_class)
        wild = CycleConfig(1e3, 1e4, 20, 60)
        seeds = [6, 5, 7]
        diverged = [reference_divergence(arch, train, wild, s, batch) for s in seeds]
        assert None not in diverged
        t = min(diverged)
        seed = seeds[diverged.index(t)]
        with pytest.raises(TrainingError, match=rf"iteration {t} \(seed {seed}\)$"):
            train_runs(arch, train, val, wild, seeds, [{}] * 3, batch)

    def test_divergence_names_seed(self):
        train, val = quick_split()
        wild = CycleConfig(1e7, 1e8, 20, 60)
        with pytest.raises(TrainingError, match=r"iteration \d+ \(seed 4\)"):
            train_runs(ARCH, train, val, wild, [4, 9], [{}, {}], 16)

    @pytest.mark.parametrize("seeds, plans", [([1, 2, 3], [{}]), ([1], [{}, {}]), ([], [])])
    def test_run_lists_must_pair_up(self, seeds, plans):
        # one plan per seed and at least one run: a store per run, none dropped
        train, val = quick_split()
        with pytest.raises(InputError, match="one capture plan per seed"):
            train_runs(ARCH, train, val, CFG, seeds, plans, 16)


class TestSelectMin:
    def test_one_per_cycle(self):
        store = small_run(plan_captures(CFG))
        chosen = select(store, "min")
        assert [s.iteration for s in chosen] == cycle_minima(CFG)
        assert all(s.lr_at_capture == CFG.alpha_min for s in chosen)

    def test_empty_selection_raises(self):
        store = small_run({3: "window"})
        with pytest.raises(SelectionError):
            select(store, "min")


def huge_store(iterations) -> SnapshotStore:
    """Store whose header declares 2**70 iterations in cycles of 5 (minima 4, 9, 14, ...)."""
    zeros = ParamVector(np.zeros(ARCH.num_params), ARCH)
    snaps = [Snapshot(zeros, t, 0.05, 0.5, 0.5 - 0.01 * t, "min") for t in iterations]
    return SnapshotStore("huge", ARCH, CycleConfig(0.01, 0.1, 5, 2**70), 0, "", "", snaps)


class TestSelectMid:
    def test_one_per_cycle_and_disjoint_from_min(self):
        store = small_run(plan_captures(CFG))
        mids = select(store, "mid")
        mins = select(store, "min")
        assert len(mids) == len(mins) == 3
        assert not {s.iteration for s in mids} & {s.iteration for s in mins}
        half = (CFG.alpha_max + CFG.alpha_min) / 2.0
        for s in mids:
            step = lr_at(CFG, s.iteration - 1) - lr_at(CFG, s.iteration)
            assert abs(s.lr_at_capture - half) <= step + 1e-12

    def test_combined_min_mid_gives_two_per_cycle(self):
        store = small_run(plan_captures(CFG))
        merged = select(store, "min+mid")
        assert len(merged) == 2 * CFG.num_cycles
        assert [s.iteration for s in merged] == sorted(cycle_minima(CFG) + cycle_midpoints(CFG))

    def test_huge_declared_run_length(self):
        # a store header may declare any run length; the selections visit only the
        # cycles the snapshots reach
        store = huge_store((2, 4, 7, 9, 12))
        assert [s.iteration for s in select(store, "min")] == [4, 9]
        assert [s.iteration for s in select(store, "mid")] == [2, 7, 12]


class TestSelectWindow:
    def test_hand_case_picks_lowest_val_nll(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {7: 0.50, 8: 0.40, 9: 0.45, 10: 0.60, 11: 0.55}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="skipped"):  # second cycle incomplete
            chosen = select(store, "window", 2)
        assert [s.iteration for s in chosen] == [8]

    def test_ties_break_to_earliest(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {t: 0.5 for t in range(7, 12)}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning):
            chosen = select(store, "window", 2)
        assert chosen[0].iteration == 7

    def test_s_zero_equals_select_min(self):
        store = small_run(plan_captures(CFG))
        assert select(store, "window", 0) == select(store, "min")

    def test_incomplete_window_skips_cycle(self):
        cfg = CycleConfig(0.01, 0.1, 10, 30)
        # cycles at 9, 19, 29; the last window [28, 30] runs past the end
        vals = {t: 0.5 + 0.01 * t for t in (8, 9, 10, 18, 19, 20, 28, 29)}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="29"):
            chosen = select(store, "window", 1)
        assert [s.iteration for s in chosen] == [8, 18]

    def test_huge_declared_run_length(self):
        store = huge_store((3, 4, 5, 8, 9, 10))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chosen = select(store, "window", 1)
        assert [s.iteration for s in chosen] == [5, 10]
        assert [str(w.message) for w in caught] == [
            "cycle minimum 14: window [13, 15] not fully captured, cycle skipped",
            f"no snapshot reaches {2**70 // 5 - 3} cycle(s), the first with minimum 19; "
            "cycles skipped",
        ]

    def test_unreached_cycles_share_one_warning(self):
        # 9 reaches cycle 0 and 49 reaches cycles 3 and 4; cycles 1, 2 and 5 are unreached
        store = store_from_nlls(CycleConfig(0.01, 0.1, 10, 60), ARCH, {9: 0.5, 49: 0.4})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chosen = select(store, "window", 0)
        assert [s.iteration for s in chosen] == [9, 49]
        assert [str(w.message) for w in caught] == [
            "cycle minimum 39: window [39, 39] not fully captured, cycle skipped",
            "no snapshot reaches 3 cycle(s), the first with minimum 19; cycles skipped",
        ]

    def test_oversized_window_rejected(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(InputError):
            select(store, "window", CFG.cycle_len // 2)

    def test_never_fabricates_snapshots(self):
        cfg = CycleConfig(0.01, 0.1, 10, 20)
        vals = {8: 0.3, 9: 0.2, 10: 0.4}
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning):  # second cycle has no window captures
            chosen = select(store, "window", 1)
        assert chosen[0] in store.snapshots


class TestSelectOffset:
    def test_zero_steps_equals_select_min(self):
        store = small_run(plan_captures(CFG))
        assert select(store, "offset", 0) == select(store, "min")

    def test_positive_steps(self):
        cfg = CycleConfig(0.01, 0.1, 100, 300)
        vals = {t: 0.5 for t in (109, 209)}
        vals.update({t: 0.6 for t in (99, 199, 299)})
        store = store_from_nlls(cfg, ARCH, vals)
        with pytest.warns(UserWarning, match="309"):
            chosen = select(store, "offset", 10)
        assert [s.iteration for s in chosen] == [109, 209]

    def test_steps_beyond_cycle_rejected(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(InputError):
            select(store, "offset", CFG.cycle_len)

    def test_uncaptured_target_raises(self):
        store = small_run(plan_captures(CFG))
        with pytest.raises(SelectionError):
            select(store, "offset", 3)

    @pytest.mark.parametrize("steps", [1, -1])
    def test_huge_declared_run_length(self, steps):
        # cycles 0 and 1 are captured around their minima; cycle 2's target is not
        store = huge_store((3, 4, 5, 8, 9, 10))
        with pytest.raises(SelectionError, match=f"iteration {14 + steps} "):
            select(store, "offset", steps)

    def test_negative_steps(self):
        plan = plan_captures(CFG, offsets=[-4])
        store = small_run(plan)
        chosen = select(store, "offset", -4)
        assert [s.iteration for s in chosen] == [m - 4 for m in cycle_minima(CFG)]


class TestSelect:
    def test_unknown_policy_names_the_policies(self):
        store = store_from_nlls(CFG, ARCH, {19: 0.5})
        expected = f"unknown policy 'bogus', expected one of {snapshots.POLICIES}"
        with pytest.raises(InputError, match=re.escape(expected)):
            select(store, "bogus")

    def test_min_mid_returns_the_half_captured(self):
        cfg = CycleConfig(0.01, 0.1, 5, 10)  # minima 4, 9; half-amplitude crossings 2, 7
        mids_only = store_from_nlls(cfg, ARCH, {2: 0.5, 7: 0.5})
        assert [s.iteration for s in select(mids_only, "min+mid")] == [2, 7]
        minima_only = store_from_nlls(cfg, ARCH, {4: 0.5, 9: 0.5})
        assert [s.iteration for s in select(minima_only, "min+mid")] == [4, 9]
        neither = store_from_nlls(cfg, ARCH, {3: 0.5})
        with pytest.raises(SelectionError, match="minima or half-amplitude crossings"):
            select(neither, "min+mid")

    def test_min_mid_is_the_union_of_min_and_mid(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            length = int(rng.integers(2, 13))
            total = length * int(rng.integers(1, 5)) + int(rng.integers(0, length))
            cfg = CycleConfig(0.01, 0.1, length, total)
            captured = np.flatnonzero(rng.random(total) < rng.random())
            store = store_from_nlls(cfg, ARCH, {int(t): 0.5 for t in captured})
            union = {}
            for policy in ("min", "mid"):
                try:
                    union.update((s.iteration, s) for s in select(store, policy))
                except SelectionError:
                    pass
            if union:
                assert select(store, "min+mid") == [union[t] for t in sorted(union)]
            else:
                with pytest.raises(SelectionError):
                    select(store, "min+mid")


class TestStoreIO:
    def test_round_trip_exact(self, tmp_path):
        store = small_run(plan_captures(CFG, window_halfwidth=1))
        path = tmp_path / "run.snap"
        save_store(store, path)
        assert load_store(path) == store

    def test_load_holds_the_file_about_once(self, tmp_path):
        # an idx784-shaped store: the parameters are read one snapshot at a time,
        # never from a whole-file buffer held next to the vectors made from it
        arch = MlpArchitecture((784, 32, 10))
        rng = np.random.default_rng(0)
        snaps = tuple(
            Snapshot(ParamVector(rng.normal(0.0, 0.1, arch.num_params), arch), t, 0.05, 0.3, 0.4,
                     "window")
            for t in range(40)
        )
        store = SnapshotStore(run_id="idx784-shaped", arch=arch, cfg=CycleConfig(0.01, 0.1, 100, 500),
                              seed=0, train_fingerprint="", val_fingerprint="", snapshots=snaps)
        path = tmp_path / "run.snap"
        save_store(store, path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_store(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loaded == store
        size = path.stat().st_size
        assert peak <= 1.1 * size, f"peak {peak} bytes for a {size}-byte store"

    def test_payload_is_each_vector_little_endian(self, tmp_path):
        store = small_run(plan_captures(CFG, window_halfwidth=1))
        path = tmp_path / "run.snap"
        save_store(store, path)
        payload = b"".join(s.params.values.astype("<f8").tobytes() for s in store.snapshots)
        assert path.read_bytes().endswith(payload)
        assert path.stat().st_size == 14 + len(json.dumps(
            snapshots._header_dict(store), sort_keys=True, separators=(",", ":"))) + len(payload)

    def test_load_keeps_each_payload_array(self, tmp_path):
        store = small_run(plan_captures(CFG, window_halfwidth=1))
        path = tmp_path / "run.snap"
        save_store(store, path)
        for snap in load_store(path).snapshots:
            values = snap.params.values
            assert values.flags.owndata and not values.flags.writeable
            assert values.dtype == np.float64

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

    def test_rejects_unknown_activation(self, tmp_path):
        # the header names the MLP's one hidden activation; any other, or none, is malformed
        store = small_run(plan_captures(CFG))
        path = tmp_path / "run.snap"
        save_store(store, path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 10)
        header = json.loads(raw[14 : 14 + header_len].decode())
        assert header["arch"]["hidden_activation"] == "relu"
        for arch in ({**header["arch"], "hidden_activation": "tanh"},
                     {"layer_sizes": header["arch"]["layer_sizes"]}):
            new_header = json.dumps({**header, "arch": arch}).encode()
            out = raw[:10] + struct.pack("<I", len(new_header)) + new_header + raw[14 + header_len :]
            (tmp_path / "act.snap").write_bytes(out)
            with pytest.raises(FormatError, match="hidden_activation|tanh"):
                load_store(tmp_path / "act.snap")
