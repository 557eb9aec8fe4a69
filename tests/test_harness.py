"""End-to-end tests for the experiment commands and the CLI."""

import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import snapstack
from conftest import ensemble_metrics, store_from_nlls, version_1_store
from snapstack import (
    FormatError,
    InputError,
    MlpArchitecture,
    experiment,
    load_store,
    log_likelihoods,
    select,
    stacking,
    weights_temperature,
)
from snapstack.experiment import (
    build_datasets,
    cmd_compare,
    cmd_sweep_offset,
    cmd_sweep_temperature,
    cmd_train,
    config_from_dict,
)
from snapstack.harness import cmd_report, load_config, main

SMALL = {
    "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 60, "dim": 2, "spread": 0.6,
                "test_per_class": 50},
    "hidden": [8],
    "cycle": {"alpha_min": 0.02, "alpha_max": 0.3, "cycle_len": 50, "total_iters": 150},
    "seed": 0,
    "batch_size": 16,
    "window_halfwidth": 1,
    "offsets": [-2, 0, 2],
    "offset_steps": 2,
    "tau_grid": [0.5, 1.0, 1000.0],
    "num_independent": 2,
}


def small_config(**overrides):
    raw = json.loads(json.dumps(SMALL))
    raw.update(overrides)
    return config_from_dict(raw)


# cycle_len 2: each cycle's half-amplitude point is its rate minimum
CYCLE_LEN_2 = {
    "cycle": {"alpha_min": 0.02, "alpha_max": 0.3, "cycle_len": 2, "total_iters": 8},
    "window_halfwidth": 0,
    "offsets": [0, 1],
    "offset_steps": 1,
}


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestConfig:
    def test_defaults(self):
        cfg = small_config()
        assert cfg.val_fraction == 0.2
        assert cfg.n_grid == (1, 2, 3)

    def test_missing_key(self):
        with pytest.raises(InputError, match="seed"):
            config_from_dict({"dataset": SMALL["dataset"], "cycle": SMALL["cycle"]})

    def test_invalid_alpha_rejected_before_training(self):
        with pytest.raises(InputError):
            small_config(cycle={"alpha_min": 0.3, "alpha_max": 0.3, "cycle_len": 50,
                                "total_iters": 150})

    def test_bad_tau_grid(self):
        with pytest.raises(InputError):
            small_config(tau_grid=[1.0, 0.0])

    def test_n_models_grid_is_an_unknown_key(self):
        # ensemble sizes always run 1..num_cycles; the old size-grid key is now a typo
        with pytest.raises(InputError, match="unknown config key 'n_models_grid'"):
            small_config(n_models_grid=[1, 2])

    def test_unknown_dataset_kind(self):
        with pytest.raises(InputError):
            small_config(dataset={"kind": "images"})

    def test_load_config_rejects_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_config(p)

    def test_wrong_typed_values_rejected(self):
        with pytest.raises(InputError):
            config_from_dict({"dataset": {"kind": "blobs"}, "cycle": [1, 2], "seed": 0})
        with pytest.raises(InputError):
            config_from_dict({
                "dataset": {"kind": "blobs"},
                "cycle": {"alpha_min": 0.1, "alpha_max": 0.2, "cycle_len": 10, "total_iters": 20},
                "seed": "zero",
            })


class TestCmdTrain:
    def test_writes_store_and_sidecar(self, tmp_path, capsys):
        cfg = small_config()
        path = cmd_train(cfg, tmp_path)
        assert path.exists()
        assert path.with_name(path.name + ".meta.json").exists()
        out = capsys.readouterr().out
        assert out.count("cycle") == 3  # one summary line per completed cycle
        store = load_store(path)
        assert {s.iteration for s in store.snapshots} >= {49, 99, 149}

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_config()
        a = cmd_train(cfg, tmp_path / "a")
        b = cmd_train(cfg, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_degenerate_cycle_warns(self, tmp_path):
        cfg = small_config(cycle={"alpha_min": 0.02, "alpha_max": 0.3, "cycle_len": 3,
                                  "total_iters": 150}, window_halfwidth=0, offsets=[],
                           offset_steps=1)
        with pytest.warns(UserWarning, match="degenerate"):
            cmd_train(cfg, tmp_path)


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = small_config()
    store = load_store(cmd_train(cfg, tmp))
    return cfg, store, tmp


class TestSweepTemperature:

    def test_grid_complete(self, setup):
        cfg, store, tmp = setup
        path = cmd_sweep_temperature(cfg, store, "min", "train", tmp)
        rows = read_rows(path)
        assert len(rows) == len(cfg.tau_grid) * len(cfg.n_grid)
        assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)

    def test_single_member_constant_across_tau(self, setup):
        cfg, store, tmp = setup
        rows = read_rows(cmd_sweep_temperature(cfg, store, "min", "train", tmp))
        accs = {r["accuracy"] for r in rows if r["n_models"] == "1"}
        assert len(accs) == 1

    def test_high_tau_matches_equal_weights(self, setup):
        cfg, store, tmp = setup
        _, _, test, _ = build_datasets(cfg)
        rows = read_rows(cmd_sweep_temperature(cfg, store, "min", "train", tmp))
        for r in rows:
            if r["tau"] != "1000.0":
                continue
            snaps = select(store, "min")[-int(r["n_models"]):]
            eq = ensemble_metrics(snaps, np.ones(len(snaps)), test)
            assert abs(float(r["accuracy"]) - eq.accuracy) <= 1.0 / test.num_examples + 1e-12

    def test_oversized_n_skipped_with_warning(self, setup):
        cfg, store, tmp = setup
        assert len(select(store, "window", cfg.window_halfwidth)) == 2 < max(cfg.n_grid)
        with pytest.warns(UserWarning, match="skipping"):
            path = cmd_sweep_temperature(cfg, store, "window", "train", tmp)
        assert len(read_rows(path)) == 2 * len(cfg.tau_grid)

    def test_rerun_byte_identical(self, setup):
        cfg, store, tmp = setup
        a = cmd_sweep_temperature(cfg, store, "min", "train", tmp / "r1").read_bytes()
        b = cmd_sweep_temperature(cfg, store, "min", "train", tmp / "r2").read_bytes()
        assert a == b

    def test_policies_share_store(self, setup):
        cfg, store, tmp = setup
        for policy in ("mid", "min+mid", "window", "offset"):
            rows = read_rows(cmd_sweep_temperature(cfg, store, policy, "train", tmp))
            assert rows, policy

    @pytest.mark.parametrize("policy,source", [("min+mid", "train"), ("window", "validation")])
    def test_rows_equal_reference_ensemble_path(self, setup, policy, source):
        # the cached member forwards must reproduce one ensemble's fresh forwards exactly
        cfg, store, tmp = setup
        _, _, test, _ = build_datasets(cfg)
        snaps = select(store, policy, cfg.window_halfwidth)
        rows = read_rows(cmd_sweep_temperature(cfg, store, policy, source, tmp))
        assert rows
        for r in rows:
            members = snaps[-int(r["n_models"]):]
            w = weights_temperature(log_likelihoods(members, source), float(r["tau"]))
            met = ensemble_metrics(members, w, test)
            assert (float(r["accuracy"]), float(r["mean_nll"])) == (met.accuracy, met.mean_nll)

    def test_each_member_forwarded_once(self, setup, monkeypatch):
        cfg, store, tmp = setup
        calls = []
        forward_each = stacking.forward_each

        def counting(params, features):
            params = list(params)
            calls.extend(params)
            return forward_each(params, features)

        monkeypatch.setattr(stacking, "forward_each", counting)
        cmd_sweep_temperature(cfg, store, "min+mid", "train", tmp)
        members = [s.params for s in select(store, "min+mid")]
        assert len(calls) == len(members)
        assert sorted(map(id, calls)) == sorted(map(id, members))

    def test_min_mid_counts_shared_iterations_once(self):
        cfg = small_config(**CYCLE_LEN_2)
        store = store_from_nlls(cfg.cycle, MlpArchitecture((2, 3)), {t: 0.5 for t in range(8)})
        assert [s.iteration for s in select(store, "mid")] == [1, 3, 5, 7]
        snaps = select(store, "min+mid")
        assert [s.iteration for s in snaps] == [1, 3, 5, 7]
        assert snaps == select(store, "min")

    def test_stale_store_warns(self, setup, tmp_path):
        cfg, store, _ = setup
        other = small_config(seed=123)
        with pytest.warns(UserWarning, match="different data"):
            cmd_sweep_temperature(other, store, "min", "train", tmp_path)

    @pytest.mark.parametrize("top, dataset, stale", [
        pytest.param({}, {}, False, id="same"),
        pytest.param({}, {"test_limit": 300}, False, id="test-limit"),  # not fingerprinted
        pytest.param({"seed": 1}, {}, True, id="seed"),
        pytest.param({"val_fraction": 0.25}, {}, True, id="fraction"),
        pytest.param({}, {"limit": 900}, True, id="limit"),
        pytest.param({}, None, True, id="test-as-pool"),
    ])
    def test_stale_idx_store_warns(self, idx_store, tmp_path, top, dataset, stale):
        # the pool's split is fingerprinted as it is read, without building train or val
        raw, store_path = idx_store
        ds = raw["dataset"]
        if dataset is None:  # the test files as the pool, and the pool's as the test set
            dataset = {f"{a}_{kind}": ds[f"{b}_{kind}"] for a, b in (("train", "test"),
                       ("test", "train")) for kind in ("images", "labels")}
        cfg = config_from_dict({**raw, **top, "dataset": {**ds, **dataset}})
        store = load_store(store_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cmd_sweep_temperature(cfg, store, "min", "train", tmp_path)
        assert [str(w.message) for w in caught] == stale * [
            "store was trained on different data than this config produces; "
            "weights may be stale"
        ]


class TestSweepOffset:
    def test_rows_per_available_offset(self, tmp_path):
        cfg = small_config()
        store = load_store(cmd_train(cfg, tmp_path))
        path = cmd_sweep_offset(cfg, store, tmp_path, tau=1.0)
        rows = read_rows(path)
        assert [r["offset"] for r in rows] == ["-2", "0", "2"]
        assert len({r["offset"] for r in rows}) == 3  # mirrored offsets stay distinct rows

    def test_offset_zero_equals_min_policy(self, tmp_path):
        cfg = small_config()
        store = load_store(cmd_train(cfg, tmp_path))
        _, _, test, _ = build_datasets(cfg)
        rows = read_rows(cmd_sweep_offset(cfg, store, tmp_path, tau=1.0))
        mins = select(store, "min")
        met = ensemble_metrics(mins, weights_temperature(log_likelihoods(mins, "train"), 1.0), test)
        zero_row = next(r for r in rows if r["offset"] == "0")
        assert float(zero_row["accuracy"]) == met.accuracy

    def test_uncaptured_offset_skipped(self, tmp_path):
        cfg = small_config()
        store = load_store(cmd_train(cfg, tmp_path))
        with pytest.warns(UserWarning, match="skipped"):
            path = cmd_sweep_offset(small_config(offsets=[0, 7]), store, tmp_path, tau=1.0)
        assert [r["offset"] for r in read_rows(path)] == ["0"]


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("compare")
    return small_config(), tmp, cmd_compare(small_config(), tmp)


@pytest.fixture
def train_runs(monkeypatch):
    """Records each experiment.train_runs call as (seeds, the stores it returned)."""
    calls, train_runs = [], experiment.train_runs

    def recording(arch, train, val, cycle, seeds, *rest):
        calls.append((list(seeds), train_runs(arch, train, val, cycle, seeds, *rest)))
        return calls[-1][1]

    monkeypatch.setattr(experiment, "train_runs", recording)
    return calls


class TestCmdCompare:

    def test_expected_rows(self, result):
        _, _, res = result
        kinds = {(r[0], r[1]) for r in res["rows"]}
        assert ("single", "-") in kinds
        assert ("ensemble", "individual") in kinds
        for policy in ("min", "min+mid", "offset"):
            assert ("snapshot", f"{policy}, eq") in kinds
            assert ("snapshot", f"{policy}, stack") in kinds
        assert ("swa", "min, eq") in kinds
        assert ("swa", "min, stack") in kinds

    def test_min_mid_rows_count_distinct_models(self, tmp_path):
        # at cycle_len 2 min+mid is min: 4 models, each weighted once
        rows = cmd_compare(small_config(**CYCLE_LEN_2), tmp_path)["rows"]
        by_label = {r[1]: r for r in rows if r[0] == "snapshot"}
        for kind in ("eq", "stack"):
            mixed, mins = by_label[f"min+mid, {kind}"], by_label[f"min, {kind}"]
            assert mixed[2] == mins[2] == 4
            assert mixed[3:] == mins[3:]

    def test_single_row_matches_final_model(self, result):
        cfg, tmp, res = result
        single = next(r for r in res["rows"] if r[0] == "single")
        assert single[2] == 1
        assert 0.0 <= single[4] <= 1.0

    def test_snapshot_rows_from_one_training(self, tmp_path, train_runs):
        # one training call: the capture run is member 0, the other seeds train beside it
        cfg = small_config()
        cmd_compare(cfg, tmp_path)
        assert [seeds for seeds, _ in train_runs] == [[0, 1]]

    def test_independent_members_equal_separate_runs(self, tmp_path, train_runs):
        # the seeds train in one loop, yet each member is the run its seed gives alone
        cfg = small_config(num_independent=3)
        res = cmd_compare(cfg, tmp_path)
        assert res["train_time"] > 0.0
        ((seeds, trained),) = train_runs
        assert seeds == [0, 1, 2]
        members = [trained[0].snapshots[-1]] + [s.snapshots[0] for s in trained[1:]]
        train, val, _, arch = build_datasets(cfg)
        last = cfg.cycle.total_iters - 1
        for seed, member in zip(range(3), members, strict=True):
            (alone,) = snapstack.train_runs(
                arch, train, val, cfg.cycle, [seed], [{last: "window"}], cfg.batch_size
            )
            assert np.array_equal(member.params.values, alone.snapshots[0].params.values)

    def test_each_snapshot_forwarded_once(self, tmp_path, monkeypatch, train_runs):
        # min is a subset of min+mid; single is independent member 0; the capture
        # store holds only what the rows read, so every snapshot is forwarded once.
        # The SWA rows forward one averaged parameter vector per spec besides.
        calls, forward_each = [], stacking.forward_each

        def counting(params, features):
            params = list(params)
            calls.extend(params)  # held, so no two forwarded vectors share an id
            return forward_each(params, features)

        monkeypatch.setattr(stacking, "forward_each", counting)
        cfg = small_config(num_independent=3)
        cmd_compare(cfg, tmp_path)
        ((_, (store, *others)),) = train_runs
        snapshots = [*store.snapshots, *(run.snapshots[0] for run in others)]
        member_ids = {id(s.params) for s in snapshots}
        assert len(member_ids) == len(store.snapshots) + cfg.num_independent - 1
        snapshot_calls = [id(p) for p in calls if id(p) in member_ids]
        assert sorted(snapshot_calls) == sorted(member_ids)
        swa_calls = len(calls) - len(snapshot_calls)
        assert swa_calls == 1 + len(cfg.tau_grid)  # the equal spec and each tau

    def test_reads_no_window_or_sweep_offsets(self, tmp_path):
        # compare captures no windows and no sweep offsets, so it takes values train rejects
        cfg = small_config(window_halfwidth=25, offsets=[60])
        assert cmd_compare(cfg, tmp_path)["rows"]
        with pytest.raises(InputError):
            cmd_train(cfg, tmp_path)

    def test_policy_without_snapshots_is_skipped(self, tmp_path):
        # one cycle leaves no room for offset 3 after its minimum: the offset pair is
        # dropped with a warning, and every other row is still written
        cfg = small_config(
            cycle={**SMALL["cycle"], "cycle_len": 20, "total_iters": 20}, offset_steps=3
        )
        with pytest.warns(UserWarning, match="policy 'offset' skipped: no cycles admit offset 3"):
            rows = cmd_compare(cfg, tmp_path)["rows"]
        assert [(r[0], r[1]) for r in rows] == [
            ("single", "-"), ("ensemble", "individual"),
            ("snapshot", "min, eq"), ("snapshot", "min, stack"),
            ("snapshot", "min+mid, eq"), ("snapshot", "min+mid, stack"),
            ("swa", "min, eq"), ("swa", "min, stack"),
        ]
        assert len(read_rows(tmp_path / "compare.csv")) == 8

    def test_one_member_ensemble_is_the_single_model(self, tmp_path, train_runs):
        res = cmd_compare(small_config(num_independent=1), tmp_path)
        rows = {(r[0], r[1]): r[2:] for r in res["rows"]}
        assert rows[("ensemble", "individual")] == rows[("single", "-")]
        assert [seeds for seeds, _ in train_runs] == [[0]]

    def test_outputs_written(self, result):
        _, tmp, res = result
        assert res["csv_path"].exists()
        assert res["md_path"].exists()
        text = res["md_path"].read_text()
        assert text.startswith("| Model |")


def test_idx_dataset_pipeline(tmp_path):
    # the whole train -> sweep flow also runs on IDX image files
    from conftest import write_idx_pair

    rng = np.random.default_rng(0)
    tr_dir = tmp_path / "train"
    te_dir = tmp_path / "test"
    tr_dir.mkdir()
    te_dir.mkdir()
    tr_img, tr_lbl = write_idx_pair(
        tr_dir, rng.integers(0, 256, (90, 3, 3), dtype=np.uint8),
        rng.integers(0, 3, 90, dtype=np.uint8),
    )
    te_img, te_lbl = write_idx_pair(
        te_dir, rng.integers(0, 256, (30, 3, 3), dtype=np.uint8),
        rng.integers(0, 3, 30, dtype=np.uint8),
    )
    cfg = small_config(dataset={
        "kind": "idx",
        "train_images": str(tr_img), "train_labels": str(tr_lbl),
        "test_images": str(te_img), "test_labels": str(te_lbl),
        "num_classes": 3,
    })
    train, val, test, arch = build_datasets(cfg)
    assert (train.num_examples, val.num_examples, test.num_examples) == (72, 18, 30)
    assert arch.layer_sizes == (9, 8, 3)
    store_path = cmd_train(cfg, tmp_path)
    rows = read_rows(cmd_sweep_temperature(cfg, load_store(store_path), "min", "train", tmp_path))
    assert len(rows) == len(cfg.tau_grid) * len(cfg.n_grid)


def test_idx_build_holds_each_matrix_once(tmp_path):
    # no transient copies: the build peaks near the bytes of what it returns, also
    # when the pool is much larger than the test set
    from conftest import write_idx_pair

    rng = np.random.default_rng(0)
    for pool_rows, test_rows in ((400, 400), (2000, 200)):
        paths = {}
        for part, n in (("train", pool_rows), ("test", test_rows)):
            (tmp_path / f"{part}{pool_rows}").mkdir()
            paths[f"{part}_images"], paths[f"{part}_labels"] = map(str, write_idx_pair(
                tmp_path / f"{part}{pool_rows}", rng.integers(0, 256, (n, 28, 28)),
                rng.integers(0, 10, n),
            ))
        cfg = small_config(dataset={"kind": "idx", "num_classes": 10, **paths})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            datasets = build_datasets(cfg)[:3]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        held = sum(ds.features.nbytes + ds.labels.nbytes for ds in datasets)
        assert peak <= 1.25 * held, (
            f"{pool_rows}/{test_rows} rows: peak {peak} bytes for {held} bytes of datasets"
        )


def write_mnist_shaped(tmp_path, sizes: dict[str, int], seed: int = 0) -> dict:
    """An IDX dataset config of MNIST-shaped images, a class prototype plus heavy pixel
    noise, with the row count of each part ("train", "test") in sizes."""
    from conftest import write_idx_pair

    rng = np.random.default_rng([seed, 784])
    shared = rng.random((28, 28)) < 0.15
    prototypes = np.where(shared ^ (rng.random((10, 28, 28)) < 0.01), 200.0, 20.0)
    paths = {}
    for part, n in sizes.items():
        labels = rng.integers(0, 10, n)
        pixels = np.clip(prototypes[labels] + rng.normal(0.0, 120.0, (n, 28, 28)), 0.0, 255.0)
        (tmp_path / part).mkdir()
        paths[f"{part}_images"], paths[f"{part}_labels"] = map(
            str, write_idx_pair(tmp_path / part, pixels, labels)
        )
    return {"kind": "idx", "num_classes": 10, **paths}


@pytest.fixture(scope="module")
def idx_store(tmp_path_factory):
    """(raw config, store path): an MNIST-shaped pool of 1,000 images and 600 test
    images, 784-32-10, and a store of 37 snapshots (7.5 MB), of which min+mid scores 10."""
    tmp = tmp_path_factory.mktemp("idx_store")
    raw = {
        "dataset": write_mnist_shaped(tmp, {"train": 1000, "test": 600}),
        "hidden": [32],
        "cycle": {"alpha_min": 0.01, "alpha_max": 0.1, "cycle_len": 20, "total_iters": 100},
        "seed": 0,
        "batch_size": 32,
        "window_halfwidth": 2,
        "offsets": [-5, 5],
        "offset_steps": 5,
    }
    return raw, cmd_train(config_from_dict(raw), tmp / "out")


class TestStoreCommands:
    """sweep-temp and sweep-offset read the test set and the snapshots they score, and
    fail as they did when they built every dataset and read every payload at load."""

    @pytest.mark.parametrize("argv", [["sweep-temp", "--policy", "min+mid"], ["sweep-offset"]])
    def test_memory_holds_test_set_and_scored_snapshots(self, idx_store, tmp_path, argv):
        # neither the pool's float matrix (6.3 MB) nor the store's payload (7.5 MB) is
        # held: the traced peak is the test set, the snapshots scored and a fixed slack
        raw, store_path = idx_store
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        store = load_store(store_path)
        if argv[0] == "sweep-temp":
            scored = {s.iteration for s in select(store, "min+mid")}
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the last cycle's +5 runs past the end
                scored = {s.iteration for k in raw["offsets"] for s in select(store, "offset", k)}
        snapshot_bytes = len(scored) * store.arch.num_params * 8
        test_bytes = 600 * (784 + 1) * 8
        assert len(store.snapshots) > 3 * len(scored)
        argv = [*argv, "--config", str(cfg_path), "--store", str(store_path),
                "--out-dir", str(tmp_path)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        slack = 3 * 2**20
        assert peak <= test_bytes + snapshot_bytes + slack, (
            f"peak {peak} bytes: test set {test_bytes}, {len(scored)} snapshots "
            f"{snapshot_bytes}"
        )

    # config changes, from the files of an IDX pool (idx), an absent file (missing), a
    # test set 3x3 pixels wide (narrow) and test labels outside the pool's classes (wide)
    CORPUS = [
        # a bad fraction fails before any pool is read, a bad blobs pool or a missing IDX one
        pytest.param(lambda f: {"val_fraction": 1.5,
                                "dataset": {**SMALL["dataset"], "per_class": 0}}, id="blobs-pool"),
        pytest.param(lambda f: {"val_fraction": 1.5,
                                "dataset": {**f["idx"], "train_images": f["missing"]}},
                     id="fraction"),
        pytest.param(lambda f: {"val_fraction": 0.6}, id="blobs-split"),
        pytest.param(lambda f: {"dataset": {**SMALL["dataset"], "test_per_class": 0}},
                     id="blobs-test"),
        pytest.param(lambda f: {"dataset": {**f["idx"], "train_images": f["missing"],
                                            "test_images": f["missing"] + "-test"}},
                     id="idx-pool"),
        # 3 rows cannot be split, and label 2 lies outside 2 classes
        pytest.param(lambda f: {"dataset": {**f["idx"], "num_classes": 2, "limit": 3}},
                     id="idx-labels"),
        pytest.param(lambda f: {"dataset": {**f["idx"], "limit": 2}}, id="idx-split"),
        pytest.param(lambda f: {"dataset": {**f["idx"], "test_images": f["missing"]}},
                     id="idx-test"),
        pytest.param(lambda f: {"dataset": {**f["idx"], "test_images": f["narrow_images"],
                                            "test_labels": f["narrow_labels"]}},
                     id="idx-test-width"),
        pytest.param(lambda f: {"dataset": {**f["idx"], "test_labels": f["wide_labels"]}},
                     id="idx-test-labels"),
    ]

    @pytest.mark.parametrize("changes", CORPUS)
    def test_errors_equal_build_datasets(self, tmp_path, changes):
        # the error that building every dataset gives, and the first of two
        from conftest import write_idx_pair

        rng = np.random.default_rng(0)
        files = {"missing": str(tmp_path / "missing.idx")}
        for part, n, side, classes in (("train", 60, 4, 3), ("test", 50, 4, 3),
                                       ("narrow", 50, 3, 3), ("wide", 50, 4, 5)):
            (tmp_path / part).mkdir()
            files[f"{part}_images"], files[f"{part}_labels"] = map(str, write_idx_pair(
                tmp_path / part, rng.integers(0, 256, (n, side, side)), np.arange(n) % classes
            ))
        files["idx"] = {"kind": "idx", **{f"{part}_{kind}": files[f"{part}_{kind}"]
                                          for part in ("train", "test")
                                          for kind in ("images", "labels")}}
        cfg = small_config(**changes(files))
        with pytest.raises(Exception) as want:
            build_datasets(cfg)
        store = load_store(cmd_train(small_config(), tmp_path / "out"))
        with pytest.raises(Exception) as got:
            experiment._store_test_set(cfg, store)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("command", ["sweep-temp", "sweep-offset"])
    def test_bad_fraction_fails_before_bad_blobs_pool(self, tmp_path, capsys, command):
        # the fraction is checked before the pool is made, as for an IDX pool
        raw = {**SMALL, "val_fraction": 1.5, "dataset": {**SMALL["dataset"], "per_class": 0}}
        message = "val_fraction must be in (0, 1), got 1.5"
        with pytest.raises(InputError) as built:
            build_datasets(config_from_dict(raw))
        assert str(built.value) == message
        store_path = cmd_train(small_config(), tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--store", str(store_path),
                     "--out-dir", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: raw[:-100], id="truncated"),
        pytest.param(lambda raw: b"\xff" + raw[1:], id="magic"),
    ])
    @pytest.mark.parametrize("part", ["images", "labels"])
    @pytest.mark.parametrize("command", ["sweep-temp", "sweep-offset"])
    def test_damaged_pool_fails_as_it_did(self, idx_store, tmp_path, capsys, damage, part,
                                          command):
        # exit 3 with the message that building the pool gives
        raw, store_path = idx_store
        raw = json.loads(json.dumps(raw))
        damaged = tmp_path / f"pool-{part}.idx"
        damaged.write_bytes(damage(Path(raw["dataset"][f"train_{part}"]).read_bytes()))
        raw["dataset"][f"train_{part}"] = str(damaged)
        with pytest.raises(FormatError) as want:
            build_datasets(config_from_dict(raw))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--store", str(store_path),
                     "--out-dir", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change", [
        pytest.param(lambda raw, n: raw[:-n], id="truncated"),
        # the last 7 vectors rotated by one: each a valid one, in another snapshot's place
        pytest.param(lambda raw, n: raw[: -7 * n] + raw[-n:] + raw[-7 * n : -n], id="rewritten"),
    ])
    @pytest.mark.parametrize("command", ["sweep-temp", "sweep-offset"])
    def test_store_changed_after_load_exits_3(self, tmp_path, capsys, monkeypatch, change,
                                              command):
        # the payload is read when it is scored; a store file changed since its load
        # fails the command there, and nothing is scored on other parameters
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SMALL))
        store_path = cmd_train(small_config(), tmp_path / "store")
        n = 8 * load_store(store_path).arch.num_params
        real_load = experiment.load_store

        def load_then_change(path):
            store = real_load(path)
            Path(path).write_bytes(change(Path(path).read_bytes(), n))
            return store

        monkeypatch.setattr(experiment, "load_store", load_then_change)
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--store", str(store_path),
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(str(store_path))}: store file changed since "
                            r"it was loaded\n", err), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep-temp", "sweep-offset"])
    def test_version_1_store_exits_3(self, setup, tmp_path, capsys, command):
        # a version-1 store is refused whole, before any dataset is read or file written
        _, _, store_dir = setup
        store_path = tmp_path / "v1.snap"
        store_path.write_bytes(version_1_store((store_dir / "store.snap").read_bytes()))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SMALL))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_path), "--store", str(store_path),
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {store_path}: store version 1, expected 2; rerun train to rebuild it\n"
        )
        assert not out.exists()


# train, sweep-temp and compare in one interpreter: argv is the config path and
# the output directory; exits 1 on the first command that fails
RUN_COMMANDS = """
import sys
from snapstack.harness import main
cfg, out = sys.argv[1:]
common = ["--config", cfg, "--out-dir", out]
for argv in (["train", *common], ["sweep-temp", *common, "--store", out + "/store.snap"],
             ["compare", *common]):
    if main(argv):
        sys.exit(1)
"""


def test_blas_threads_change_no_parameter(tmp_path):
    # criterion 8's bytes hold at a fixed BLAS thread count: at d=784 the scoring
    # GEMMs may sum in another order at 2 threads, so the NLLs may move in the last
    # bits, while training's small GEMMs, and so every snapshot, must not
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset": write_mnist_shaped(tmp_path, {"train": 200, "test": 400}),
        "hidden": [32],
        "cycle": {"alpha_min": 0.01, "alpha_max": 0.1, "cycle_len": 40, "total_iters": 200},
        "seed": 0,
        "batch_size": 32,
        "window_halfwidth": 2,
        "offsets": [-10, -5, 5, 10],
        "num_independent": 2,
    }))
    src = str(Path(snapstack.__file__).resolve().parents[1])
    outs = {}
    for threads in ("1", "2"):
        out = outs[threads] = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-c", RUN_COMMANDS, str(cfg_path), str(out)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                     OMP_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    one, two = (load_store(outs[t] / "store.snap") for t in ("1", "2"))
    assert len(one.snapshots) == len(two.snapshots) > 40
    for a, b in zip(one.snapshots, two.snapshots):
        assert a.iteration == b.iteration and a.params == b.params
        assert abs(a.train_nll - b.train_nll) <= 1e-12
        assert abs(a.val_nll - b.val_nll) <= 1e-12
    for name in ("sweep_temp_min_train.csv", "compare.csv"):
        rows_one, rows_two = (read_rows(outs[t] / name) for t in ("1", "2"))
        assert len(rows_one) == len(rows_two) > 0
        for a, b in zip(rows_one, rows_two):
            metrics = ("accuracy", "mean_nll")
            assert {k: v for k, v in a.items() if k not in metrics} == {
                k: v for k, v in b.items() if k not in metrics
            }
            for key in metrics:
                assert abs(float(a[key]) - float(b[key])) <= 1e-12, (name, a, b)


def test_weighting_source_choice_barely_matters():
    # stacking on train-side vs validation-side likelihoods lands within
    # 2 percentage points of the same best accuracy (median over 10 seeds)
    from snapstack import (
        CycleConfig,
        MlpArchitecture,
        SplitSpec,
        make_blobs,
        plan_captures,
        select,
        split,
        train_runs,
    )

    taus = (0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 10.0, 1000.0)
    arch = MlpArchitecture((6, 32, 3))
    cyc = CycleConfig(0.05, 0.5, 200, 1000)

    def best_acc(mins, source, test):
        lls = log_likelihoods(mins, source)
        return max(ensemble_metrics(mins, weights_temperature(lls, t), test).accuracy for t in taus)

    diffs = []
    for seed in range(10):
        pool = make_blobs(3, 250, 6, 1.0, seed=seed)
        train, val = split(pool, SplitSpec(0.2, seed))
        test = make_blobs(3, 200, 6, 1.0, seed=seed + 1_000_003, centers_seed=seed)
        (store,) = train_runs(arch, train, val, cyc, [seed], [plan_captures(cyc)], 8)
        mins = select(store, "min")
        diffs.append(abs(best_acc(mins, "train", test) - best_acc(mins, "validation", test)))
    assert np.median(diffs) <= 0.02


class TestCmdReport:
    def test_single_cell(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("tau,n_models,accuracy,mean_nll,policy,source\n1.0,3,0.9,0.3,min,train\n")
        out = cmd_report([p], tmp_path / "report.md")
        text = out.read_text()
        assert "Best accuracy: 0.9" in text
        assert "tau=1.0" in text

    def test_ties_all_listed(self, tmp_path):
        p = tmp_path / "tie.csv"
        p.write_text(
            "tau,n_models,accuracy,mean_nll,policy,source\n"
            "1.0,3,0.9,0.3,min,train\n0.5,2,0.9,0.4,min,train\n1.0,1,0.8,0.5,min,train\n"
        )
        text = cmd_report([p], tmp_path / "report.md").read_text()
        assert text.count("- tau=") == 2

    def test_missing_column_names_it(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("tau,n_models,mean_nll\n1.0,3,0.3\n")
        with pytest.raises(FormatError, match="accuracy"):
            cmd_report([p], tmp_path / "report.md")

    @pytest.mark.parametrize("payload", [
        pytest.param(b"model,type,accuracy,mean_nll\nsingle,-,0.9\n", id="short-row"),
        pytest.param(b"tau,accuracy,mean_nll\n1.0,0.9,\xff\n", id="not-utf8"),
        pytest.param(b"accuracy,mean_nll,tau\n1.0,0.5,0.3,extra\n", id="long-row"),
        pytest.param(b"tau,accuracy,mean_nll\n1.0,nan,0.3\n0.5,0.9,0.4\n", id="nan-accuracy"),
        pytest.param(b"tau,accuracy,mean_nll\n1.0,inf,0.3\n0.5,0.9,0.4\n", id="inf-accuracy"),
        pytest.param(b"", id="empty"),
    ])
    def test_unreadable_csv_is_format_error(self, tmp_path, payload):
        p = tmp_path / "bad.csv"
        p.write_bytes(payload)
        with pytest.raises(FormatError):
            cmd_report([p], tmp_path / "report.md")


# sizes no array can hold exit 1 when the config or the architecture is checked,
# and one that only the allocation refuses exits 2: 2**55 hidden units at d=6 ask
# for more memory than a 57-bit address space holds, so nothing is reserved
COMPUTING_COMMANDS = ("train", "sweep-temp", "sweep-offset", "compare")
OVERSIZED = [
    *(pytest.param({"dataset": {**SMALL["dataset"], key: 10**20}}, command, 1,
                   id=f"{key}-{command}")
      for key in ("num_classes", "per_class", "dim", "test_per_class")
      for command in COMPUTING_COMMANDS),
    *(pytest.param({"num_independent": 10**20}, command, 1, id=f"num_independent-{command}")
      for command in COMPUTING_COMMANDS),
    *(pytest.param({"hidden": [10**20]}, command, 1, id=f"hidden-{command}")
      for command in ("train", "compare")),
    *(pytest.param({"dataset": {**SMALL["dataset"], "dim": 6}, "hidden": [2**55]}, command,
                   2, id=f"hidden-2**55-{command}")
      for command in ("train", "compare")),
]


class TestCli:
    def write_config(self, tmp_path, **overrides):
        raw = json.loads(json.dumps(SMALL))
        raw.update(overrides)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(raw))
        return p

    def test_train_then_sweep_and_report(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        store = tmp_path / "store.snap"
        assert store.exists()
        assert main([
            "sweep-temp", "--config", str(cfg_path), "--store", str(store),
            "--policy", "min", "--source", "train", "--out-dir", str(tmp_path),
        ]) == 0
        csv_path = tmp_path / "sweep_temp_min_train.csv"
        assert csv_path.exists()
        assert main(["report", str(csv_path), "--out", str(tmp_path / "report.md")]) == 0
        assert (tmp_path / "report.md").exists()

    INT_KEYS = ("seed", "cycle.cycle_len", "batch_size", "hidden.0", "offsets.0",
                "num_independent", "dataset.per_class")
    FLOAT_KEYS = ("cycle.alpha_min", "val_fraction", "tau_grid.0", "dataset.spread")

    @pytest.mark.parametrize("key,value", [
        *((key, value) for key in INT_KEYS for value in (1.5, True)),
        *((key, True) for key in FLOAT_KEYS),
        ("weighting_source", True),
        pytest.param("cycle.alpha_min", 10**400, id="cycle.alpha_min-1e400"),
        pytest.param("dataset.spread", 10**400, id="dataset.spread-1e400"),
        ("cycle.alpha_max", math.inf),
        ("tau_grid.0", math.nan),
    ])
    def test_key_takes_only_its_json_type(self, tmp_path, capsys, key, value):
        # int() and float() would truncate 1.5 and read true as 1 and train on that;
        # an integer too large for a float, NaN and Infinity must also name their key
        raw = json.loads(json.dumps({**SMALL, "val_fraction": 0.2}))
        *path, last = key.split(".")
        node = raw
        for part in path:
            node = node[part]
        node[int(last) if isinstance(node, list) else last] = value
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(raw))
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        named = re.sub(r"\.(\d+)$", r"[\1]", key)
        assert f"'{named}' must be" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            cycle={"alpha_min": 0.5, "alpha_max": 0.3, "cycle_len": 50, "total_iters": 150},
        )
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["sweep-temp", "compare"])
    def test_empty_tau_grid_exit_code(self, tmp_path, capsys, command):
        cfg_path = self.write_config(tmp_path, tau_grid=[])
        args = ["--store", str(tmp_path / "store.snap")] if command == "sweep-temp" else []
        assert main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path), *args]) == 1
        assert "temperature grid" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    IDX = {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c",
           "test_labels": "d"}

    @pytest.mark.parametrize("overrides,argv", [
        pytest.param({"seed": -1}, [], id="negative-seed"),
        pytest.param({}, ["--seed", "-3"], id="negative-seed-flag"),
        pytest.param({"seed": 1e999}, [], id="huge-seed"),
        pytest.param({"cycle": {**SMALL["cycle"], "cycle_len": 1e999}}, [], id="huge-cycle-len"),
        pytest.param({"cycle": {**SMALL["cycle"], "total_iters": 2**70}}, [], id="huge-total-iters"),
        pytest.param({"hidden": [1e999]}, [], id="huge-hidden"),
        pytest.param({"dataset": {**SMALL["dataset"], "per_class": 1e999}}, [], id="huge-per-class"),
        pytest.param({"dataset": {**IDX, "train_images": None}}, [], id="null-idx-path"),
        pytest.param({"dataset": {**IDX, "test_labels": ["d"]}}, [], id="list-idx-path"),
        pytest.param({"dataset": {**IDX, "train_images": 0}}, [], id="int-idx-path"),
        pytest.param({"tau_grid": [1.0, float("nan")]}, [], id="nan-tau"),
        pytest.param({"hidden": "12"}, [], id="string-hidden"),
        pytest.param({"hidden": {"8": 1}}, [], id="dict-hidden"),
        pytest.param({"offsets": "0"}, [], id="string-offsets"),
        pytest.param({"tau_grid": "5"}, [], id="string-tau-grid"),
        pytest.param({"n_models_grid": {"1": 1}}, [], id="dict-n-models-grid"),
        pytest.param({"n_models_grid": []}, [], id="empty-n-models-grid"),
        pytest.param({"tau_gird": [0.5]}, [], id="unknown-key"),
        pytest.param({"cycle": {**SMALL["cycle"], "typo": 3}}, [], id="unknown-cycle-key"),
        pytest.param({"dataset": {**SMALL["dataset"], "bogus": 1}}, [], id="unknown-dataset-key"),
        pytest.param({"weighting_source": "test"}, [], id="unknown-weighting-source"),
        pytest.param({"num_independent": 0}, [], id="no-independent-runs"),
        # checked when training starts, yet still before the output directory is made
        pytest.param({"batch_size": 0}, [], id="zero-batch-size"),
        pytest.param({"window_halfwidth": 25}, [], id="window-wider-than-cycle"),
        pytest.param({"offset_steps": 999}, [], id="offset-beyond-cycle"),
        pytest.param(b"[1]", [], id="top-level-array"),
        pytest.param(b'{"seed": "\xff"}', [], id="not-utf8"),
        pytest.param(b'{"seed": ' + b"9" * 5000 + b"}", [], id="seed-5000-digits"),
    ])
    def test_bad_config_exit_code(self, tmp_path, capsys, overrides, argv):
        if isinstance(overrides, bytes):  # raw file contents
            cfg_path = tmp_path / "config.json"
            cfg_path.write_bytes(overrides)
        else:
            cfg_path = self.write_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir), *argv]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, command, code", OVERSIZED)
    def test_oversized_sizes_exit_with_one_error_line(self, setup, tmp_path, capsys, overrides,
                                                      command, code):
        _, _, store_dir = setup
        cfg_path = self.write_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        store = ["--store", str(store_dir / "store.snap")] if command.startswith("sweep") else []
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path), "--out-dir", str(out_dir), *store]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err), err
        assert err.startswith("error: out of memory") == (code == 2)
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides,key", [
        pytest.param({"tau_gird": [0.5], "batch_sz": 4, "cycle": {**SMALL["cycle"], "typo": 3},
                      "dataset": {**SMALL["dataset"], "bogus": 1}}, "tau_gird", id="top-level"),
        pytest.param({"cycle": {**SMALL["cycle"], "typo": 3}}, "cycle.typo", id="cycle"),
        pytest.param({"dataset": {**SMALL["dataset"], "bogus": 1}}, "dataset.bogus",
                     id="dataset"),
    ])
    def test_unknown_key_is_named(self, tmp_path, capsys, overrides, key):
        # a misspelt key would otherwise run its default silently
        cfg_path = self.write_config(tmp_path, **overrides)
        out_dir = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key '{key}'\n"
        assert not out_dir.exists()

    def test_sweep_temp_bad_window_creates_nothing(self, setup, tmp_path, capsys):
        _, _, store_dir = setup
        cfg_path = self.write_config(tmp_path, window_halfwidth=25)
        out_dir = tmp_path / "out"
        assert main([
            "sweep-temp", "--config", str(cfg_path), "--store", str(store_dir / "store.snap"),
            "--policy", "window", "--out-dir", str(out_dir),
        ]) == 1
        assert "window half-width 25" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep-temp", "--config", "c.json", "--store", "s", "--policy", "best"],
                     id="bad-policy"),
        pytest.param(["train", "--config", "c.json", "--seed", "three"], id="text-seed"),
        pytest.param(["train"], id="missing-config"),
        pytest.param(["fit", "--config", "c.json"], id="unknown-command"),
    ])
    def test_bad_arguments_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1
        assert "error: " in capsys.readouterr().err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--help"])
        assert exit_info.value.code == 0
        assert "--config" in capsys.readouterr().out

    def test_malformed_dataset_fails_at_load(self, tmp_path, capsys):
        # the dataset section is parsed with the config, before the store or out-dir
        cfg_path = self.write_config(tmp_path, dataset={**SMALL["dataset"], "dim": "x"})
        out_dir = tmp_path / "out"
        assert main([
            "sweep-temp", "--config", str(cfg_path), "--store", str(tmp_path / "none.snap"),
            "--out-dir", str(out_dir),
        ]) == 1
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(e.startswith("error: ") and "dataset.dim" in e for e in err)

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_idx_test_width_mismatch(self, tmp_path, capsys, monkeypatch, command):
        from conftest import write_idx_pair

        def no_training(*args, **kwargs):
            raise AssertionError("trained despite a bad dataset")

        monkeypatch.setattr(experiment, "train_runs", no_training)
        rng = np.random.default_rng(0)
        paths = {}
        for part, n, side in (("train", 60, 4), ("test", 50, 3)):
            (tmp_path / part).mkdir()
            paths[f"{part}_images"], paths[f"{part}_labels"] = map(str, write_idx_pair(
                tmp_path / part, rng.integers(0, 256, (n, side, side)), rng.integers(0, 3, n)
            ))
        cfg_path = self.write_config(tmp_path, dataset={"kind": "idx", **paths})
        assert main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and paths["test_images"] in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_missing_idx_file_creates_nothing(self, tmp_path, capsys, command):
        # the output directory is created only once the datasets are built
        missing = str(tmp_path / "missing.idx")
        cfg_path = self.write_config(tmp_path, dataset={**self.IDX, "train_images": missing})
        out_dir = tmp_path / "o"
        assert main([command, "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 3
        assert not out_dir.exists()
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("offsets", [[], [7]], ids=["no-offsets", "uncaptured-offset"])
    @pytest.mark.parametrize("tau", ["-1", "nan", "inf"])
    def test_sweep_offset_checks_tau_without_rows(self, setup, tmp_path, capsys, offsets, tau):
        _, _, store_dir = setup
        cfg_path = self.write_config(tmp_path, offsets=offsets)
        assert main([
            "sweep-offset", "--config", str(cfg_path), "--store", str(store_dir / "store.snap"),
            "--out-dir", str(tmp_path), "--tau", tau,
        ]) == 1
        assert re.fullmatch(r"error: [^\n]*tau[^\n]*\n", capsys.readouterr().err)
        assert not (tmp_path / "sweep_offset.csv").exists()

    def test_sweep_temp_source_defaults_to_config(self, setup, tmp_path):
        _, _, store_dir = setup
        cfg_path = self.write_config(tmp_path, weighting_source="validation")
        common = ["--config", str(cfg_path), "--store", str(store_dir / "store.snap"),
                  "--out-dir", str(tmp_path)]
        assert main(["sweep-temp", *common]) == 0
        rows = read_rows(tmp_path / "sweep_temp_min_validation.csv")
        assert rows and {r["source"] for r in rows} == {"validation"}
        assert main(["sweep-temp", *common, "--source", "train"]) == 0  # the flag wins
        assert {r["source"] for r in read_rows(tmp_path / "sweep_temp_min_train.csv")} == {"train"}

    def test_sweep_temp_warns_once_per_skipped_cell(self, setup, tmp_path):
        # Python shows a warning once per message and source line, so each names its tau
        cfg, store, store_dir = setup
        cfg_path = self.write_config(tmp_path)
        src = str(Path(snapstack.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "snapstack", "sweep-temp", "--config", str(cfg_path),
             "--store", str(store_dir / "store.snap"), "--policy", "window",
             "--out-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        have = len(select(store, "window", cfg.window_halfwidth))
        skipped = [(str(n), str(tau)) for tau in cfg.tau_grid for n in cfg.n_grid if n > have]
        assert len(skipped) == len(cfg.tau_grid)
        assert len(re.findall(r"skipping n=\d+", proc.stderr)) == len(skipped)
        assert re.findall(r"skipping n=(\d+) at tau=(\S+)", proc.stderr) == skipped

    def test_missing_store_exit_code(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        code = main([
            "sweep-temp", "--config", str(cfg_path), "--store", str(tmp_path / "none.snap"),
            "--out-dir", str(tmp_path),
        ])
        assert code == 3

    def test_huge_declared_run_length_store(self, tmp_path):
        # the selections walk only the cycles the store's snapshots reach
        cfg_path = self.write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        raw = (tmp_path / "store.snap").read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 10)
        header = json.loads(raw[14 : 14 + header_len])
        header["cfg"]["total_iters"] = 2**70
        blob = json.dumps(header).encode()
        huge = tmp_path / "huge.snap"
        huge.write_bytes(raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + header_len :])
        common = ["--config", str(cfg_path), "--store", str(huge), "--out-dir", str(tmp_path)]
        with pytest.warns(UserWarning, match="no snapshot reaches"):
            assert main(["sweep-temp", *common, "--policy", "window"]) == 0
        assert len(read_rows(tmp_path / "sweep_temp_window_train.csv")) == 2 * len(SMALL["tau_grid"])
        with pytest.warns(UserWarning, match="was not captured"):
            assert main(["sweep-offset", *common]) == 0
        assert read_rows(tmp_path / "sweep_offset.csv") == []

    def test_non_integral_layer_size_in_store_exit_code(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        raw = (tmp_path / "store.snap").read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 10)
        header = json.loads(raw[14 : 14 + header_len])
        header["arch"]["layer_sizes"][0] += 0.5
        blob = json.dumps(header).encode()
        bad = tmp_path / "bad.snap"
        bad.write_bytes(raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + header_len :])
        capsys.readouterr()
        code = main(["sweep-temp", "--config", str(cfg_path), "--store", str(bad),
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "malformed store header" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            cycle={"alpha_min": 1e6, "alpha_max": 1e7, "cycle_len": 50, "total_iters": 150},
        )
        assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2

    def test_compare_divergence_names_seed(self, tmp_path, capsys):
        cfg_path = self.write_config(
            tmp_path,
            cycle={"alpha_min": 0.02, "alpha_max": 1e7, "cycle_len": 50, "total_iters": 150},
        )
        assert main(["compare", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged at iteration \d+ \(seed \d+\)\n", err)

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--seed", "9", "--out-dir", str(tmp_path / "s9")])
        store = load_store(tmp_path / "s9" / "store.snap")
        assert store.seed == 9


def fresh_interpreter(code: str, *args: str) -> str:
    """The stdout of code run with args in a new interpreter on this package."""
    src = str(Path(snapstack.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


NUMPY_LOADED = "import sys; print('numpy' in sys.modules)"


class TestImports:
    """The CLI and report need only the standard library; the package's exports load on
    first use, and a command that takes a config loads numpy when it reads it."""

    EXPORTS = {
        "SplitSpec", "fingerprint", "load_idx", "make_blobs", "split",
        "ArchMismatchError", "BadMagicError", "BadVersionError", "CountMismatchError",
        "FormatError", "InputError", "SelectionError", "SnapstackError", "TrainingError",
        "TruncatedFileError",
        "Dataset", "MlpArchitecture", "ParamVector", "forward_batch", "init_params",
        "CycleConfig", "cycle_minima", "lr_at",
        "Snapshot", "SnapshotStore", "load_store", "plan_captures", "save_store", "select",
        "train_runs",
        "EvalMetrics", "evaluate_rows", "log_likelihoods", "member_probs", "swa_probs",
        "weighted_mean", "weights_temperature",
    }

    @pytest.mark.parametrize("module", ["snapstack", "snapstack.harness"])
    def test_import_loads_no_numpy(self, module):
        assert fresh_interpreter(f"import {module}\n{NUMPY_LOADED}") == "False\n"

    def test_cli_import_loads_no_dataclasses(self):
        # the report command pays for every module the CLI imports
        loaded = "print('numpy' in sys.modules, 'dataclasses' in sys.modules)"
        assert fresh_interpreter(f"import sys, snapstack.harness\n{loaded}") == "False False\n"

    def test_report_loads_no_numpy(self, setup, result, tmp_path):
        cfg, store, _ = setup
        sweep = cmd_sweep_temperature(cfg, store, "min", "train", tmp_path)
        csvs = [str(sweep), str(result[2]["csv_path"])]
        out = tmp_path / "report.md"
        code = (
            "import sys\nfrom snapstack.harness import main\n"
            f"assert main(['report', *sys.argv[1:]]) == 0\n{NUMPY_LOADED}"
        )
        assert fresh_interpreter(code, *csvs, "--out", str(out)) == f"wrote {out}\nFalse\n"
        assert out.read_text() == cmd_report(csvs, tmp_path / "again.md").read_text()

    def test_config_read_loads_numpy(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SMALL))
        code = (
            f"import sys\nfrom snapstack.harness import load_config\n{NUMPY_LOADED}\n"
            f"load_config(sys.argv[1])\n{NUMPY_LOADED}"
        )
        assert fresh_interpreter(code, str(cfg_path)) == "False\nTrue\n"

    def test_exports_resolve_to_their_definitions(self):
        assert len(snapstack.__all__) == len(self.EXPORTS) == 37
        assert set(snapstack.__all__) == self.EXPORTS
        assert self.EXPORTS <= set(dir(snapstack))
        for name in snapstack.__all__:
            value = getattr(snapstack, name)
            assert value.__module__.startswith("snapstack.")
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            snapstack.no_such_name
        assert not hasattr(snapstack, "no_such_name")

    def test_submodule_import_falls_through(self):
        # `from snapstack import stacking` asks the package first, then imports the module
        code = (
            "import snapstack\nassert not hasattr(snapstack, 'stacking')\n"
            "from snapstack import stacking\nprint(stacking.__name__)"
        )
        assert fresh_interpreter(code) == "snapstack.stacking\n"
