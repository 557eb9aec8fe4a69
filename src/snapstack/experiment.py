"""The computing commands: the experiment config, its datasets, and train, sweep-temp,
sweep-offset and compare.

Every command is deterministic given (config, seed); CSV payloads carry no
timestamps. The CLI (harness) imports this module when it reads a config, so a
command that computes nothing loads no numpy.
"""

from __future__ import annotations

import csv
import math
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import (
    SplitSpec,
    _read_idx,
    load_idx,
    load_idx_split,
    make_blobs,
    split,
    split_fingerprints,
)
from .errors import SOURCES, InputError, SelectionError, json_kind
from .nn import Dataset, MlpArchitecture
from .schedule import CycleConfig
# load_store is not called here: the CLI reads a command's store as experiment.load_store
from .snapshots import (  # noqa: F401
    Snapshot,
    SnapshotStore,
    load_store,
    plan_captures,
    save_store,
    select,
    train_runs,
)
from .stacking import (
    EvalMetrics,
    evaluate_rows,
    log_likelihoods,
    member_probs,
    swa_probs,
    weighted_mean,
    weights_temperature,
)

# test partitions reuse the training cluster geometry but a disjoint noise stream
TEST_SEED_OFFSET = 1_000_003

SWEEP_COLUMNS = ("tau", "n_models", "accuracy", "mean_nll", "policy", "source")
OFFSET_COLUMNS = ("offset", "tau", "n_models", "accuracy", "mean_nll", "policy", "source")
COMPARE_COLUMNS = ("model", "type", "n_models", "tau", "accuracy", "mean_nll")


@dataclass(frozen=True)
class BlobsData:
    num_classes: int
    per_class: int
    dim: int
    spread: float
    test_per_class: int | None = None  # absent: per_class
    kind: str = "blobs"


@dataclass(frozen=True)
class IdxData:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str
    limit: int | None = None
    test_limit: int | None = None
    num_classes: int | None = None
    kind: str = "idx"


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: BlobsData | IdxData
    cycle: CycleConfig
    seed: int
    hidden: tuple[int, ...] = (32,)
    val_fraction: float = 0.2
    batch_size: int = 32
    window_halfwidth: int = 0
    offsets: tuple[int, ...] = ()
    offset_steps: int = 10
    tau_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 10.0, 1000.0)
    num_independent: int = 5
    weighting_source: str = "train"

    def __post_init__(self):
        # store headers may declare any run length; a config's run must be trainable
        if self.cycle.total_iters > sys.maxsize:
            raise InputError(f"total_iters {self.cycle.total_iters} exceeds {sys.maxsize}")
        if not self.tau_grid:
            raise InputError("temperature grid must not be empty")
        if any(not tau > 0.0 for tau in self.tau_grid):
            raise InputError("temperature grid values must be positive")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
        if self.weighting_source not in SOURCES:
            raise InputError(f"unknown weighting source {self.weighting_source!r}")
        if self.num_independent < 1:
            raise InputError("num_independent must be at least 1")

    @property
    def n_grid(self) -> tuple[int, ...]:
        return tuple(range(1, self.cycle.num_cycles + 1))


def _section(raw: dict, cls: type, prefix: str = "") -> dict:
    """The fields of dataclass cls read from raw, a JSON object, by their type hints; an
    error names its key. An absent field takes its default, and so does null where that
    default is None."""
    declared = {f.name: f for f in fields(cls)}
    for key in raw:
        if key not in declared:
            raise InputError(f"unknown config key {prefix + key!r}")
    hints = get_type_hints(cls)
    parsed = {}
    for name, field in declared.items():
        if name not in raw or (raw[name] is None and field.default is None):
            if field.default is MISSING:
                raise InputError(f"config missing required key: {prefix + name!r}")
            continue
        parsed[name] = _value(hints[name], prefix + name, raw[name])
    return parsed


def _value(hint, key: str, value):
    """value as hint: a JSON scalar, array (tuple) or object (dataclass, or the one of a
    union its "kind" names); the error names key. JSON has no NaN or Infinity, though
    Python's parser reads them."""
    if get_origin(hint) is tuple:
        # a string or an object would iterate as characters or keys
        if not isinstance(value, list):
            raise InputError(f"config key {key!r} must be a JSON array, got {value!r}")
        return tuple(_value(get_args(hint)[0], f"{key}[{i}]", v) for i, v in enumerate(value))
    kinds = [arg for arg in get_args(hint) if arg is not type(None)]
    if len(kinds) == 1:  # X | None, and the value is not null
        return _value(kinds[0], key, value)
    if kinds or is_dataclass(hint):
        if not isinstance(value, dict):
            raise InputError(f"config key {key!r} must be a JSON object, got {value!r}")
        if kinds:
            hint = next((cls for cls in kinds if cls.kind == value.get("kind")), None)
            if hint is None:
                names = " or ".join(repr(cls.kind) for cls in kinds)
                raise InputError(f"{key}.kind must be {names}, got {value.get('kind')!r}")
        return hint(**_section(value, hint, key + "."))
    try:
        value = hint(json_kind(hint, value, f"config key {key!r}"))
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if hint is float and not math.isfinite(value):
        raise InputError(f"config key {key!r} must be a finite number")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from parsed JSON."""
    return ExperimentConfig(**_section(raw, ExperimentConfig))


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset, MlpArchitecture]:
    """Materialize (train, val, test) and the matching architecture."""
    ds = config.dataset
    if isinstance(ds, BlobsData):
        pool = _blobs_pool(ds, config.seed)
        train, val = split(pool, SplitSpec(config.val_fraction, config.seed))
    else:
        # the pool is split as uint8 pixels before the test set loads, so each float
        # matrix is held once
        train, val = load_idx_split(
            ds.train_images, ds.train_labels, SplitSpec(config.val_fraction, config.seed),
            ds.limit, ds.num_classes,
        )
    test = _test_set(config, train.num_classes, train.dim)
    arch = MlpArchitecture((train.dim, *config.hidden, train.num_classes))
    return train, val, test, arch


def _blobs_pool(ds: BlobsData, seed: int) -> Dataset:
    return make_blobs(ds.num_classes, ds.per_class, ds.dim, ds.spread, seed=seed, centers_seed=seed)


def _test_set(config: ExperimentConfig, num_classes: int, dim: int) -> Dataset:
    """config's test set, for a pool of num_classes classes and dim features."""
    ds, seed = config.dataset, config.seed
    if isinstance(ds, BlobsData):
        test_n = ds.per_class if ds.test_per_class is None else ds.test_per_class
        return make_blobs(
            ds.num_classes, test_n, ds.dim, ds.spread, seed=seed + TEST_SEED_OFFSET,
            centers_seed=seed,
        )
    test = load_idx(ds.test_images, ds.test_labels, ds.test_limit, num_classes)
    if test.dim != dim:
        raise InputError(f"{ds.test_images}: {test.dim} features, training has {dim}")
    return test


def _fmt(v) -> str:
    # repr keeps the full float and round-trips, so reruns are byte-identical
    return repr(v) if isinstance(v, float) else str(v)


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _split_prints(config: ExperimentConfig) -> tuple[tuple[str, str], int, int]:
    """The fingerprints of build_datasets' (train, val), their class count and feature
    width, with its errors up to the test set, in its order; train and val are not built."""
    ds = config.dataset
    # build_datasets checks the fraction after making a blobs pool, before reading an IDX one
    if isinstance(ds, BlobsData):
        pool = _blobs_pool(ds, config.seed)
        spec = SplitSpec(config.val_fraction, config.seed)
        rows, labels, k = pool.features, pool.labels, pool.num_classes
    else:  # uint8 pixel rows that view the file's bytes
        spec = SplitSpec(config.val_fraction, config.seed)
        rows, labels, k = _read_idx(ds.train_images, ds.train_labels, ds.limit, ds.num_classes)
    return split_fingerprints(rows, labels, k, spec), k, rows.shape[1]


def _store_test_set(config: ExperimentConfig, store: SnapshotStore) -> Dataset:
    """The test set of config, the one dataset a store command reads; warns when the store
    was trained on different data than config produces. The pool is fingerprinted and
    let go before the test set is built."""
    prints, k, dim = _split_prints(config)
    test = _test_set(config, k, dim)
    if prints != (store.train_fingerprint, store.val_fingerprint):
        warnings.warn(
            "store was trained on different data than this config produces; "
            "weights may be stale"
        )
    return test


def _scorer(data: Dataset, pool: list[Snapshot]):
    """metrics(weights, members) scores members, drawn from pool (all of it by default),
    as one ensemble per weight row of weights [T, len(members)] in one pass: the mean of
    their outputs on data. Each pool snapshot is forwarded once, here, and looked up by
    object: the seeds' finals in compare share an iteration."""
    probs = dict(zip(map(id, pool), member_probs(pool, data.features)))

    def metrics(weights: np.ndarray, members=pool) -> list[EvalMetrics]:
        return evaluate_rows(weighted_mean([probs[id(s)] for s in members], weights), data)

    return metrics


def cmd_train(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Train once with the full capture plan; write the store and its sidecar."""
    if config.cycle.cycle_len < 4:
        warnings.warn(f"degenerate cycle_len {config.cycle.cycle_len}: schedule has almost no descent")
    train, val, test, arch = build_datasets(config)
    del test  # built so a bad test file fails train; training never reads it
    plan = plan_captures(
        config.cycle, config.window_halfwidth, [*config.offsets, config.offset_steps]
    )
    t0 = time.perf_counter()
    (store,) = train_runs(
        arch, train, val, config.cycle, [config.seed], [plan], config.batch_size
    )
    elapsed = time.perf_counter() - t0
    path = Path(out_dir) / "store.snap"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_store(store, path)
    for i, snap in enumerate(select(store, "min"), start=1):
        print(
            f"cycle {i:2d}  iter {snap.iteration:6d}  train_nll {snap.train_nll:.4f}  "
            f"val_nll {snap.val_nll:.4f}"
        )
    print(f"saved {len(store.snapshots)} snapshots to {path} ({elapsed:.1f}s)")
    return path


def cmd_sweep_temperature(
    config: ExperimentConfig,
    store: SnapshotStore,
    policy: str,
    source: str,
    out_dir: str | Path,
) -> Path:
    """Accuracy over the (temperature, ensemble size) grid for one policy.

    For each cell the LAST n snapshots of the policy (the most recent cycles)
    are stacked with temperature weights and scored on the held-out test set.
    Each ensemble size scores all its taus in one pass over one forward per snapshot.
    """
    test = _store_test_set(config, store)
    arg = config.window_halfwidth if policy == "window" else config.offset_steps
    snaps = select(store, policy, arg)
    metrics = _scorer(test, snaps)
    lls = log_likelihoods(snaps, source)
    scored = {
        n: metrics(weights_temperature(lls[-n:], config.tau_grid), snaps[-n:])
        for n in config.n_grid
        if n <= len(snaps)
    }
    rows = []
    for i, tau in enumerate(config.tau_grid):
        for n in config.n_grid:
            if n not in scored:
                warnings.warn(
                    f"policy {policy!r} has {len(snaps)} snapshots, skipping n={n} at tau={tau}"
                )
                continue
            met = scored[n][i]
            rows.append((float(tau), n, met.accuracy, met.mean_nll, policy, source))
    path = Path(out_dir) / f"sweep_temp_{policy.replace('+', '_')}_{source}.csv"
    _write_csv(path, SWEEP_COLUMNS, rows)
    return path


def cmd_sweep_offset(
    config: ExperimentConfig, store: SnapshotStore, out_dir: str | Path, tau: float
) -> Path:
    """Accuracy per capture offset from the rate minima, at a fixed temperature."""
    if not (tau > 0.0 and math.isfinite(tau)):  # checked before any work
        raise InputError(f"tau must be a positive finite number, got {tau}")
    src = config.weighting_source
    test = _store_test_set(config, store)
    rows = []
    for steps in config.offsets:
        try:
            snaps = select(store, "offset", steps)
        except SelectionError as e:
            warnings.warn(f"offset {steps} skipped: {e}")
            continue
        (met,) = _scorer(test, snaps)(weights_temperature(log_likelihoods(snaps, src), [tau]))
        rows.append((steps, float(tau), len(snaps), met.accuracy, met.mean_nll, "offset", src))
    path = Path(out_dir) / "sweep_offset.csv"
    _write_csv(path, OFFSET_COLUMNS, rows)
    return path


def cmd_compare(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Comparison table: single model, independent ensemble, snapshot and SWA rows.

    Every snapshot and SWA row derives from ONE capture run; only the
    independent-ensemble baseline trains additional models, in the same SGD
    loop as the capture run.
    """
    train, val, test, arch = build_datasets(config)

    # the capture run plans only what the rows read, the final iterate last; captures
    # do not change the trajectory, so that iterate is independent member 0 (config.seed)
    last = config.cycle.total_iters - 1
    seeds = list(range(config.seed, config.seed + config.num_independent))
    plans = [plan_captures(config.cycle, offsets=[config.offset_steps])]
    plans += [{last: "window"}] * (len(seeds) - 1)
    t0 = time.perf_counter()
    store, *others = train_runs(arch, train, val, config.cycle, seeds, plans, config.batch_size)
    train_time = time.perf_counter() - t0
    del train, val  # every row is scored on test
    finals = [store.snapshots[-1]] + [run.snapshots[0] for run in others]
    metrics = _scorer(test, [*store.snapshots, *finals[1:]])

    rows: list[tuple] = []
    (single,) = metrics(np.ones((1, 1)), finals[:1])
    rows.append(("single", "-", 1, "-", single.accuracy, single.mean_nll))
    (met,) = metrics(np.ones((1, len(finals))), finals)
    rows.append(("ensemble", "individual", len(finals), "-", met.accuracy, met.mean_nll))

    def add_pair(model: str, label: str, snaps: list[Snapshot], metrics) -> None:
        """The equal-weight row, then the stacked row at the first tau with the best accuracy."""
        lls = log_likelihoods(snaps, config.weighting_source)
        w = np.vstack([np.ones(len(snaps)), weights_temperature(lls, config.tau_grid)])
        met, *stacked = metrics(w, snaps)
        rows.append((model, f"{label}, eq", len(snaps), "-", met.accuracy, met.mean_nll))
        scored = zip(map(float, config.tau_grid), stacked)
        tau, met = max(scored, key=lambda tau_met: tau_met[1].accuracy)  # max keeps the first
        rows.append((model, f"{label}, stack", len(snaps), tau, met.accuracy, met.mean_nll))

    for policy, arg in (("min", 0), ("min+mid", 0), ("offset", config.offset_steps)):
        try:
            snaps = select(store, policy, arg)
        except SelectionError as e:
            warnings.warn(f"policy {policy!r} skipped: {e}")
            continue
        add_pair("snapshot", policy, snaps, metrics)
    add_pair("swa", "min", select(store, "min"),
             lambda w, snaps: evaluate_rows(swa_probs(snaps, w, test.features), test))

    csv_path = Path(out_dir) / "compare.csv"
    _write_csv(csv_path, COMPARE_COLUMNS, rows)
    md_path = csv_path.with_name("compare.md")
    md_path.write_text(_compare_markdown(rows))
    return {
        "rows": rows,
        "csv_path": csv_path,
        "md_path": md_path,
        "train_time": train_time,
    }


def _compare_markdown(rows: list[tuple]) -> str:
    lines = [
        "| Model | Type | Models | tau | Accuracy | Mean NLL |",
        "|---|---|---|---|---|---|",
    ]
    for model, kind, n, tau, acc, nll in rows:
        tau_s = tau if isinstance(tau, str) else f"{tau:g}"
        lines.append(f"| {model} | {kind} | {n} | {tau_s} | {acc:.4f} | {nll:.4f} |")
    return "\n".join(lines) + "\n"
