"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import struct
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    ensemble_metrics,
    store_from_nlls,
    swa_params,
    version_1_store,
    write_idx_pair,
)
from oracles import backward, cycle_midpoints, likelihood_weights, nll_loss
from snapstack import (
    BadVersionError,
    CycleConfig,
    Dataset,
    FormatError,
    MlpArchitecture,
    ParamVector,
    SelectionError,
    Snapshot,
    SplitSpec,
    evaluate_rows,
    forward_batch,
    load_idx,
    load_store,
    log_likelihoods,
    lr_at,
    make_blobs,
    member_probs,
    save_store,
    select,
    split,
    train_runs,
    weighted_mean,
    weights_temperature,
)
from snapstack.experiment import (
    cmd_compare,
    cmd_sweep_offset,
    cmd_sweep_temperature,
    cmd_train,
    config_from_dict,
)
from snapstack.schedule import cycle_minima
from snapstack.snapshots import plan_captures


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num:2d} ({name}): FAIL")
        raise
    print(f"\n[acceptance] criterion {num:2d} ({name}): PASS")


# pinned desk-scale experiment: 3-class blobs, 600/150/600, MLP [6 -> 32 -> 3],
# 5 cosine cycles of 200 iterations
TREND = {
    "num_classes": 3, "per_class": 250, "dim": 6, "spread": 1.0, "test_per_class": 200,
}
TREND_CYCLE = CycleConfig(0.05, 0.5, 200, 1000)
TREND_TAUS = (0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 10.0, 1000.0)


def trend_datasets(seed: int):
    base = {k: v for k, v in TREND.items() if k != "test_per_class"}
    pool = make_blobs(**base, seed=seed, centers_seed=seed)
    train, val = split(pool, SplitSpec(0.2, seed))
    test = make_blobs(
        **{**base, "per_class": TREND["test_per_class"]},
        seed=seed + 1_000_003, centers_seed=seed,
    )
    return train, val, test


def _unpack_pre_activations(params: ParamVector, features: np.ndarray) -> list[np.ndarray]:
    """Hidden-layer pre-activations, recomputed independently of the library."""
    sizes = params.arch.layer_sizes
    v = params.values
    zs = []
    a = features
    ofs = 0
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        w = v[ofs : ofs + fi * fo].reshape(fi, fo)
        ofs += fi * fo
        b = v[ofs : ofs + fo]
        ofs += fo
        z = a @ w + b
        if i < len(sizes) - 2:
            zs.append(z)
            a = np.maximum(z, 0.0)
    return zs


def test_c01_gradient_matches_finite_differences():
    with criterion(1, "backward vs central finite differences"):
        started = time.perf_counter()
        h = 1e-5
        rng = np.random.default_rng(20240517)
        archs = [
            MlpArchitecture((2, 3)),
            MlpArchitecture((3, 5, 3)),
            MlpArchitecture((4, 6, 2)),
            MlpArchitecture((2, 4, 4, 3)),
        ]
        checked = 0
        while checked < 100:
            arch = archs[checked % len(archs)]
            pv = ParamVector(rng.normal(0.0, 0.8, arch.num_params), arch)
            m = int(rng.integers(2, 7))
            feats = rng.normal(0.0, 1.0, (m, arch.input_dim))
            labels = rng.integers(0, arch.num_classes, m)
            # central differences are invalid across the ReLU corner; resample
            # instances whose hidden pre-activations sit within reach of h
            zs = _unpack_pre_activations(pv, feats)
            if zs and min(np.abs(z).min() for z in zs) < 1e-3:
                continue
            batch = Dataset(feats, labels, arch.num_classes)
            grad = backward(pv, batch).values
            fd = np.empty_like(grad)
            base = pv.values
            for i in range(base.size):
                up = base.copy()
                up[i] += h
                dn = base.copy()
                dn[i] -= h
                fd[i] = (
                    nll_loss(ParamVector(up, arch), batch)
                    - nll_loss(ParamVector(dn, arch), batch)
                ) / (2.0 * h)
            rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
            assert rel.max() < 1e-4, f"instance {checked}: max rel error {rel.max():.2e}"
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_c02_schedule_exactness():
    with criterion(2, "cyclical schedule endpoints and crossings"):
        started = time.perf_counter()
        configs = [
            CycleConfig(0.001, 0.1, 101, 505),
            CycleConfig(0.01, 0.5, 2, 10),
            CycleConfig(0.02, 0.3, 7, 50),
            CycleConfig(1e-4, 1.0, 1000, 3000),
        ]
        for cfg in configs:
            for c in range(cfg.num_cycles):
                assert lr_at(cfg, c * cfg.cycle_len) == cfg.alpha_max
                assert lr_at(cfg, c * cfg.cycle_len + cfg.cycle_len - 1) == cfg.alpha_min
            half = (cfg.alpha_max + cfg.alpha_min) / 2.0
            for t in cycle_midpoints(cfg):
                assert lr_at(cfg, t) <= half + 1e-12
                phase = t % cfg.cycle_len
                if phase > 0:
                    assert lr_at(cfg, t - 1) >= half - 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"schedule suite took {elapsed:.2f}s"


def test_c03_weighting_algebra():
    with criterion(3, "weighting positivity, limits, and invariances"):
        rng = np.random.default_rng(7)
        # (a) strictly positive, sum == N within 1e-9, at the likelihood rule's tau = 1
        # and at a random tau (equal weighting is np.ones(N))
        for _ in range(200):
            n = int(rng.integers(1, 10))
            lls = rng.uniform(-8.0, 0.0, n)
            tau = float(10.0 ** rng.uniform(-3, 3))
            for w in (weights_temperature(lls, 1.0), weights_temperature(lls, tau)):
                assert np.all(w > 0.0)
                assert abs(w.sum() - n) <= 1e-9
        # (b) tau = 1 temperature is exactly the likelihood rule, written out in the oracle
        for _ in range(50):
            lls = rng.uniform(-6.0, 0.0, int(rng.integers(1, 8)))
            assert np.array_equal(likelihood_weights(lls), weights_temperature(lls, 1.0))
        # (c) tau = 1000 deviates from equal weights by < 0.01 at <= 5 nat spread
        for _ in range(50):
            lls = rng.uniform(-5.0, 0.0, int(rng.integers(2, 10)))
            assert np.abs(weights_temperature(lls, 1000.0) - 1.0).max() < 0.01
        # (d) tau -> 0: the best member takes essentially all the weight
        for _ in range(50):
            n = int(rng.integers(2, 10))
            lls = rng.uniform(-5.0, 0.0, n)
            lls[int(rng.integers(0, n))] = 0.5  # unique max
            w = weights_temperature(lls, 1e-3)
            assert w.max() > 0.999 * n
        # (e) shifting every log-likelihood leaves weights unchanged to 1e-12
        for _ in range(50):
            lls = rng.uniform(-5.0, 0.0, 6)
            shift = float(rng.uniform(-200.0, 200.0))
            a = weights_temperature(lls, 0.9)
            b = weights_temperature(lls + shift, 0.9)
            assert np.abs(a - b).max() < 1e-12


def test_c04_window_selection_oracle():
    with criterion(4, "window selection vs brute force"):
        rng = np.random.default_rng(99)
        arch = MlpArchitecture((2, 3))

        def brute_force(store, s):
            idx = {sn.iteration: sn for sn in store.snapshots}
            out = []
            for m in cycle_minima(store.cfg):
                if m + s >= store.cfg.total_iters:
                    continue
                cands = []
                complete = True
                for t in range(m - s, m + s + 1):
                    if t not in idx:
                        complete = False
                        break
                    cands.append(idx[t])
                if not complete:
                    continue
                best = cands[0]
                for sn in cands[1:]:
                    if sn.val_nll < best.val_nll:  # strict: earliest iteration wins ties
                        best = sn
                out.append(best)
            return out

        for case in range(50):
            length = int(rng.integers(6, 25))
            cycles = int(rng.integers(1, 5))
            total = cycles * length + int(rng.integers(0, length))
            cfg = CycleConfig(0.01, 0.1, length, total)
            s = int(rng.integers(0, min((length - 1) // 2, 5) + 1))
            vals = {}
            for m in cycle_minima(cfg):
                for t in range(m - s, m + s + 1):
                    if 0 <= t < total and rng.uniform() > 0.1:  # drop ~10% of captures
                        # discrete levels half the time, to force exact ties
                        vals[t] = (
                            float(rng.choice([0.1, 0.2, 0.3]))
                            if rng.uniform() < 0.5
                            else float(rng.uniform(0.1, 2.0))
                        )
            store = store_from_nlls(cfg, arch, vals)
            expected = brute_force(store, s)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if not expected:
                    with pytest.raises(SelectionError):
                        select(store, "window", s)
                    continue
                got = select(store, "window", s)
            assert [sn.iteration for sn in got] == [sn.iteration for sn in expected], (
                f"case {case}: cfg {cfg}, s={s}"
            )


def test_c05_ensemble_prediction_algebra():
    with criterion(5, "ensemble prediction equals weighted member mean"):
        rng = np.random.default_rng(13)
        arch = MlpArchitecture((3, 6, 4))
        snaps = []
        for i in range(5):
            pv = ParamVector(rng.normal(0.0, 1.0, arch.num_params), arch)
            snaps.append(Snapshot(pv, i, float(rng.uniform(0.2, 2.0)), 0.5))
        xs = rng.normal(0.0, 1.0, (40, 3))

        eq = np.ones(len(snaps))
        member_mean = np.stack([forward_batch(s.params, xs) for s in snaps]).mean(axis=0)
        assert np.abs(weighted_mean(member_probs(snaps, xs), eq) - member_mean).max() <= 1e-12

        for tau in (0.1, 1.0, 50.0):
            w = weights_temperature(log_likelihoods(snaps, "train"), tau)
            out = weighted_mean(member_probs(snaps, xs), w)
            assert np.all(out >= 0.0)
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9

        lone = weights_temperature(log_likelihoods(snaps[:1], "train"), 0.2)
        x = xs[0]
        out = weighted_mean(member_probs(snaps[:1], x[None]), lone)[0]
        assert np.array_equal(out, forward_batch(snaps[0].params, x[None])[0])


def test_c06_trend_reproduction():
    with criterion(6, "snapshot ensembles improve on the single model"):
        started = time.perf_counter()
        arch = MlpArchitecture((6, 32, 3))
        singles, equals, bests = [], [], []
        for seed in range(10):
            train, val, test = trend_datasets(seed)
            (store,) = train_runs(
                arch, train, val, TREND_CYCLE, [seed], [plan_captures(TREND_CYCLE)], 8
            )
            mins = select(store, "min")
            single = forward_batch(mins[-1].params, test.features)[None]
            singles.append(evaluate_rows(single, test)[0].accuracy)
            equals.append(ensemble_metrics(mins, np.ones(len(mins)), test).accuracy)
            lls = log_likelihoods(mins, "train")
            bests.append(
                max(
                    ensemble_metrics(mins, weights_temperature(lls, tau), test).accuracy
                    for tau in TREND_TAUS
                )
            )
        elapsed = time.perf_counter() - started
        med_single = float(np.median(singles))
        med_equal = float(np.median(equals))
        med_best = float(np.median(bests))
        print(
            f"\n[acceptance]   medians over 10 seeds: single {med_single:.4f}, "
            f"equal-weight {med_equal:.4f}, best stacked {med_best:.4f} ({elapsed:.1f}s)"
        )
        assert med_equal >= med_single
        assert med_best >= med_equal
        assert elapsed < 180.0, f"trend run took {elapsed:.1f}s"


def test_c07_single_run_cost():
    with criterion(7, "all snapshot variants from one run, capture overhead < 20%"):
        train, val, _ = trend_datasets(0)
        arch = MlpArchitecture((6, 32, 3))
        plan = plan_captures(TREND_CYCLE, window_halfwidth=2, offsets=[-10, 10])

        # every ensembling variant must come out of this one captured run
        (store,) = train_runs(arch, train, val, TREND_CYCLE, [0], [plan], 32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            variants = {
                "min": select(store, "min"),
                "mid": select(store, "mid"),
                "window": select(store, "window", 2),
                "offset": select(store, "offset", 10),
            }
        stacked = weights_temperature(log_likelihoods(variants["min"], "train"), 1.0)
        assert stacked.shape == (len(variants["min"]),)
        swa = swa_params(variants["min"], np.ones(len(variants["min"])))
        assert swa.arch == arch
        assert all(len(snaps) >= 4 for snaps in variants.values())

        def timed(capture_plan):
            # CPU time of this process: time spent descheduled on a busy host does not count
            t0 = time.process_time()
            train_runs(arch, train, val, TREND_CYCLE, [0], [capture_plan], 32)
            return time.process_time() - t0

        timed(plan)  # warm both paths
        timed({})
        # interleaved pairs see the same host conditions; medians drop the outliers
        pairs = [(timed({}), timed(plan)) for _ in range(15)]
        bare = float(np.median([b for b, _ in pairs]))
        cost = float(np.median([f - b for b, f in pairs]))
        overhead = cost / bare
        print(
            f"\n[acceptance]   capture overhead {100 * overhead:.1f}% "
            f"({len(plan)} captures; bare {bare * 1000:.0f}ms, capture cost {cost * 1000:.1f}ms)"
        )
        assert overhead < 0.20


ACCEPT_CONFIG = {
    "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 60, "dim": 2,
                "spread": 0.6, "test_per_class": 50},
    "hidden": [8],
    "cycle": {"alpha_min": 0.02, "alpha_max": 0.3, "cycle_len": 50, "total_iters": 150},
    "seed": 0,
    "batch_size": 16,
    "window_halfwidth": 1,
    "offsets": [-2, 0, 2],
    "offset_steps": 2,
    "tau_grid": [0.5, 1.0, 1000.0],
}


def test_c08_determinism(tmp_path):
    with criterion(8, "byte-identical stores and CSVs on rerun"):
        config = config_from_dict({**json.loads(json.dumps(ACCEPT_CONFIG)), "num_independent": 2})
        store_a = cmd_train(config, tmp_path / "a")
        store_b = cmd_train(config, tmp_path / "b")
        assert store_a.read_bytes() == store_b.read_bytes()
        store = load_store(store_a)
        csv_a = cmd_sweep_temperature(config, store, "min", "train", tmp_path / "a")
        csv_b = cmd_sweep_temperature(config, store, "min", "train", tmp_path / "b")
        assert csv_a.read_bytes() == csv_b.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            off_a = cmd_sweep_offset(config, store, tmp_path / "a", tau=1.0)
            off_b = cmd_sweep_offset(config, store, tmp_path / "b", tau=1.0)
            cmp_a = cmd_compare(config, tmp_path / "a")
            cmp_b = cmd_compare(config, tmp_path / "b")
        assert off_a.read_bytes() == off_b.read_bytes()
        for key in ("csv_path", "md_path"):
            assert cmp_a[key].read_bytes() == cmp_b[key].read_bytes()


def test_c09_swa_algebra():
    with criterion(9, "parameter averaging identities"):
        arch = MlpArchitecture((1, 1))

        def snap(v0, v1, it):
            return Snapshot(ParamVector(np.array([v0, v1]), arch), it, 0.5, 0.5)

        same = snap(0.7, -0.4, 0)
        out = swa_params([same] * 3, [1.0] * 3)
        assert np.abs(out.values - same.params.values).max() <= 1e-12

        a, b = snap(0.0, 2.0, 0), snap(2.0, 0.0, 1)
        np.testing.assert_allclose(
            swa_params([a, b], [1.0, 1.0]).values, [1.0, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(
            swa_params([a, b], [1.8, 0.2]).values, [0.2, 1.8], atol=1e-12
        )


def test_c10_io_robustness(tmp_path):
    with criterion(10, "structured errors across the corrupt-file corpus"):
        train, val, _ = trend_datasets(3)
        arch = MlpArchitecture((6, 8, 3))
        cfg = CycleConfig(0.02, 0.3, 20, 60)
        (store,) = train_runs(arch, train, val, cfg, [3], [plan_captures(cfg)], 16)
        good = tmp_path / "good.snap"
        save_store(store, good)
        assert load_store(good) == store  # bit-exact round trip
        raw = good.read_bytes()

        images = np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 2, 2)
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.array([0, 1, 2], np.uint8))
        img_raw = img_path.read_bytes()
        lbl_raw = lbl_path.read_bytes()

        def flip(buf: bytes, pos: int) -> bytes:
            out = bytearray(buf)
            out[pos] ^= 0xFF
            return bytes(out)

        header_len = struct.unpack_from("<I", raw, 10)[0]
        header = json.loads(raw[14 : 14 + header_len])
        snap_meta = header["snapshots"]

        def with_blob(blob: bytes) -> bytes:
            return raw[:10] + struct.pack("<I", len(blob)) + blob + raw[14 + header_len :]

        def with_header(**changes) -> bytes:
            return with_blob(json.dumps({**header, **changes}).encode())

        def with_meta(**changes) -> bytes:
            return with_header(snapshots=[{**snap_meta[0], **changes}, *snap_meta[1:]])

        # a consistent store of arch (6, 8, 1) whose last layer size is the JSON true
        bool_size = {"layer_sizes": [6, 8, True]}
        bool_size_header = json.dumps({**header, "arch": bool_size, "param_count": 65}).encode()
        bool_size_store = (
            raw[:10] + struct.pack("<I", len(bool_size_header)) + bool_size_header
            + bytes(len(snap_meta) * 65 * 8)
        )

        # json.dumps refuses an int this long, so it goes into the encoded header
        long_seed_header = json.dumps(header).encode().replace(
            b'"seed": %d' % header["seed"], b'"seed": ' + b"9" * 5000
        )

        corpus = {
            "store_empty": (b"", load_store),
            "store_magic": (flip(raw, 0), load_store),
            "store_version": (raw[:8] + struct.pack("<H", 42) + raw[10:], load_store),
            "store_header_cut": (raw[: 14 + header_len // 2], load_store),
            "store_header_json": (flip(raw, 20), load_store),
            "store_payload_cut": (raw[:-17], load_store),
            "store_payload_extra": (raw + b"\x00" * 8, load_store),
            "store_snapshots_not_list": (with_header(snapshots=5), load_store),
            "store_param_count_text": (with_header(param_count="many"), load_store),
            "store_param_count_inf": (with_header(param_count=float("inf")), load_store),
            "store_layer_size_text": (
                with_header(arch={"layer_sizes": [6, "eight", 3]}), load_store
            ),
            "store_iteration_inf": (
                with_header(snapshots=[{**snap_meta[0], "iteration": float("inf")}, *snap_meta[1:]]),
                load_store,
            ),
            "store_seed_digits": (with_blob(long_seed_header), load_store),
            "store_cycle_len_float": (
                with_header(cfg={**header["cfg"], "cycle_len": 10.0}), load_store
            ),
            "store_total_iters_fraction": (
                with_header(cfg={**header["cfg"], "total_iters": 60.5}), load_store
            ),
            "store_total_iters_inf": (
                with_header(cfg={**header["cfg"], "total_iters": float("inf")}), load_store
            ),
            # a header value of another JSON kind than its field's, which int() or
            # float() would coerce
            "store_iteration_fraction": (with_meta(iteration=10.7), load_store),
            "store_seed_text": (with_header(seed="7"), load_store),
            "store_seed_bool": (with_header(seed=True), load_store),
            "store_param_count_digits": (
                with_header(param_count=str(header["param_count"])), load_store
            ),
            "store_train_nll_text": (with_meta(train_nll="0.5"), load_store),
            "store_fingerprint_number": (with_header(val_fingerprint=7), load_store),
            "store_alpha_max_bool": (
                with_header(cfg={**header["cfg"], "alpha_max": True}), load_store
            ),
            "store_layer_size_bool": (bool_size_store, load_store),
            # JSON has no Infinity, and the dataclasses take no key they have no field for
            "store_alpha_max_infinity": (
                with_header(cfg={**header["cfg"], "alpha_max": float("inf")}), load_store
            ),
            "store_snapshot_unknown_key": (with_meta(note="kept"), load_store),
            # the keys that version 1 also wrote are unknown to version 2, and a
            # version-1 file is refused whole
            "store_run_id": (with_header(run_id="run-3"), load_store),
            "store_snapshot_tag": (with_meta(tag="min"), load_store),
            "store_version_1": (version_1_store(raw), load_store),
            "idx_image_magic": (flip(img_raw, 0), lambda p: load_idx(p, lbl_path)),
            "idx_image_cut": (img_raw[:-3], lambda p: load_idx(p, lbl_path)),
            "idx_label_magic": (flip(lbl_raw, 3), lambda p: load_idx(img_path, p)),
            "idx_zero_images": (
                struct.pack(">IIII", 0x00000803, 0, 2, 2), lambda p: load_idx(p, lbl_path)
            ),
            "idx_zero_rows": (
                struct.pack(">IIII", 0x00000803, 3, 0, 2), lambda p: load_idx(p, lbl_path)
            ),
            "idx_count_mismatch": (
                struct.pack(">II", 0x00000801, 5) + bytes([0, 1, 2, 0, 1]),
                lambda p: load_idx(img_path, p),
            ),
        }
        assert len(corpus) >= 10
        for name, (payload, loader) in corpus.items():
            path = tmp_path / name
            path.write_bytes(payload)
            with pytest.raises(FormatError):
                loader(path)
        with pytest.raises(BadVersionError, match="store version 1, expected 2"):
            load_store(tmp_path / "store_version_1")
