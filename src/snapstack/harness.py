"""Experiment orchestration and the command-line interface.

Subcommands: train, sweep-temp, sweep-offset, compare, report. Every command
is deterministic given (config, seed); CSV payloads carry no timestamps. Exit
codes: 0 success, 1 validation error, 2 runtime/training error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import SplitSpec, fingerprint, load_idx, load_idx_split, make_blobs, split
from .errors import (
    FormatError,
    InputError,
    SelectionError,
    TrainingError,
)
from .nn import Dataset, MlpArchitecture
from .schedule import CycleConfig
from .snapshots import (
    POLICIES,
    Snapshot,
    SnapshotStore,
    load_store,
    plan_captures,
    save_store,
    select,
    train_runs,
)
from .stacking import (
    SOURCES,
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


# the JSON values each config type takes: Python counts a bool as an int, JSON does not
_JSON_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


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
    types, name = _JSON_KINDS[hint]
    if type(value) not in types:
        raise InputError(f"config key {key!r} must be {name}, got {value!r}")
    try:
        value = hint(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if hint is float and not math.isfinite(value):
        raise InputError(f"config key {key!r} must be a finite number")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from parsed JSON."""
    return ExperimentConfig(**_section(raw, ExperimentConfig))


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as e:  # also JSONDecodeError, UnicodeDecodeError and over-long integers
        raise InputError(f"{path}: config is not valid UTF-8 JSON ({e})") from e
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    return config_from_dict(raw)


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset, MlpArchitecture]:
    """Materialize (train, val, test) and the matching architecture."""
    ds, seed = config.dataset, config.seed
    if isinstance(ds, BlobsData):
        k, dim, spread = ds.num_classes, ds.dim, ds.spread
        pool = make_blobs(k, ds.per_class, dim, spread, seed=seed, centers_seed=seed)
        train, val = split(pool, SplitSpec(config.val_fraction, seed))
        test_seed = seed + TEST_SEED_OFFSET
        test_n = ds.per_class if ds.test_per_class is None else ds.test_per_class
        test = make_blobs(k, test_n, dim, spread, seed=test_seed, centers_seed=seed)
    else:
        # the pool is split as uint8 pixels before the test set loads, so each float
        # matrix is held once
        train, val = load_idx_split(
            ds.train_images, ds.train_labels, SplitSpec(config.val_fraction, seed),
            ds.limit, ds.num_classes,
        )
        test = load_idx(ds.test_images, ds.test_labels, ds.test_limit, train.num_classes)
        if test.dim != train.dim:
            raise InputError(f"{ds.test_images}: {test.dim} features, training has {train.dim}")
    arch = MlpArchitecture((train.dim, *config.hidden, train.num_classes))
    return train, val, test, arch


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


class _Experiment:
    """One command's datasets and ensemble scorer; a store command keeps only the test
    set, the one dataset it reads."""

    def __init__(self, config: ExperimentConfig, store: SnapshotStore | None = None):
        train, val, self.test, self.arch = build_datasets(config)
        self.train, self.val = (train, val) if store is None else (None, None)
        if store is not None and (
            store.train_fingerprint != fingerprint(train)
            or store.val_fingerprint != fingerprint(val)
        ):
            warnings.warn(
                "store was trained on different data than this config produces; "
                "weights may be stale"
            )

    def scorer(self, pool: list[Snapshot], swa: bool = False):
        """metrics(weights, members) scores members, drawn from pool (all of it by default),
        as one ensemble per weight row of weights [T, len(members)] in one pass: the mean of
        their test outputs, or with swa the outputs of their mean parameters. Each pool
        snapshot is forwarded once, here, and looked up by object: the seeds' finals in
        compare share an iteration."""
        probs = {} if swa else dict(zip(map(id, pool), member_probs(pool, self.test.features)))

        def metrics(weights: np.ndarray, members=pool) -> list[EvalMetrics]:
            if swa:
                return evaluate_rows(swa_probs(members, weights, self.test.features), self.test)
            return evaluate_rows(weighted_mean([probs[id(s)] for s in members], weights), self.test)

        return metrics


def cmd_train(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Train once with the full capture plan; write the store and its sidecar."""
    if config.cycle.cycle_len < 4:
        warnings.warn(f"degenerate cycle_len {config.cycle.cycle_len}: schedule has almost no descent")
    exp = _Experiment(config)
    exp.test = None  # built so a bad test file fails train; training never reads it
    plan = plan_captures(
        config.cycle, config.window_halfwidth, [*config.offsets, config.offset_steps]
    )
    t0 = time.perf_counter()
    (store,) = train_runs(
        exp.arch, exp.train, exp.val, config.cycle, [config.seed], [plan], config.batch_size
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
    exp = _Experiment(config, store)
    arg = config.window_halfwidth if policy == "window" else config.offset_steps
    snaps = select(store, policy, arg)
    metrics = exp.scorer(snaps)
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
    exp = _Experiment(config, store)
    rows = []
    for steps in config.offsets:
        try:
            snaps = select(store, "offset", steps)
        except SelectionError as e:
            warnings.warn(f"offset {steps} skipped: {e}")
            continue
        (met,) = exp.scorer(snaps)(weights_temperature(log_likelihoods(snaps, src), [tau]))
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
    exp = _Experiment(config)

    # the capture run plans only what the rows read, the final iterate last; captures
    # do not change the trajectory, so that iterate is independent member 0 (config.seed)
    last = config.cycle.total_iters - 1
    seeds = list(range(config.seed, config.seed + config.num_independent))
    plans = [plan_captures(config.cycle, offsets=[config.offset_steps])]
    plans += [{last: "window"}] * (len(seeds) - 1)
    t0 = time.perf_counter()
    store, *others = train_runs(exp.arch, exp.train, exp.val, config.cycle, seeds, plans,
                                config.batch_size)
    train_time = time.perf_counter() - t0
    finals = [store.snapshots[-1]] + [run.snapshots[0] for run in others]
    metrics = exp.scorer([*store.snapshots, *finals[1:]])

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
    swa_snaps = select(store, "min")
    add_pair("swa", "min", swa_snaps, exp.scorer(swa_snaps, swa=True))

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


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None:
                raise FormatError(f"{path}: empty CSV")
            rows = []
            for row in reader:
                # DictReader fills missing fields with None and files extra ones under None
                if None in row or None in row.values():
                    raise FormatError(
                        f"{path}: line {reader.line_num} does not have the header's "
                        f"{len(reader.fieldnames)} fields"
                    )
                rows.append(row)
            return list(reader.fieldnames), rows
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: unreadable CSV ({e})") from e


def cmd_report(csv_paths: list[str | Path], out_path: str | Path) -> Path:
    """Markdown summary: best cells per sweep CSV plus any comparison tables."""
    out_path = Path(out_path)
    sections = []
    for raw_path in csv_paths:
        path = Path(raw_path)
        columns, rows = _read_csv(path)
        for required in ("accuracy", "mean_nll"):
            if required not in columns:
                raise FormatError(f"{path}: missing required column {required!r}")
        if not rows:
            raise FormatError(f"{path}: no data rows")
        sections.append(f"## {path.name}\n")
        if "model" in columns:
            # comparison table: reproduce it whole
            sections.append("| " + " | ".join(columns) + " |")
            sections.append("|" + "---|" * len(columns))
            for r in rows:
                sections.append("| " + " | ".join(r[c] for c in columns) + " |")
            sections.append("")
        try:
            accuracies = [float(r["accuracy"]) for r in rows]
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}: column 'accuracy' is not numeric ({e})") from e
        if not all(map(math.isfinite, accuracies)):
            raise FormatError(f"{path}: column 'accuracy' holds a non-finite value")
        best_acc = max(accuracies)
        best_rows = [r for r, a in zip(rows, accuracies) if a == best_acc]
        label_cols = [c for c in columns if c not in ("accuracy", "mean_nll")]
        sections.append(f"Best accuracy: {best_acc}")
        for r in best_rows:
            desc = ", ".join(f"{c}={r[c]}" for c in label_cols)
            sections.append(f"- {desc} (mean_nll={r['mean_nll']})")
        sections.append("")
    out_path.write_text("# Results\n\n" + "\n".join(sections))
    return out_path


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, like every other invalid input; subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snapstack",
        description="Snapshot ensembling with training-time likelihood stacking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out-dir", default="out", help="output directory")

    p = sub.add_parser("train", help="train once and write the snapshot store")
    add_common(p)

    p = sub.add_parser("sweep-temp", help="temperature x ensemble-size sweep")
    add_common(p)
    p.add_argument("--store", required=True, help="snapshot store file")
    p.add_argument("--policy", default="min", choices=POLICIES)
    p.add_argument("--source", choices=SOURCES,
                   help="weighting source (default: the config's weighting_source)")

    p = sub.add_parser("sweep-offset", help="accuracy vs capture offset from the minima")
    add_common(p)
    p.add_argument("--store", required=True, help="snapshot store file")
    p.add_argument("--tau", type=float, default=1.0)

    p = sub.add_parser("compare", help="comparison table across ensembling methods")
    add_common(p)

    p = sub.add_parser("report", help="summarize sweep/compare CSVs as Markdown")
    p.add_argument("csvs", nargs="+", help="CSV files produced by the sweep commands")
    p.add_argument("--out", default="report.md", help="output Markdown file")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "report":
        out = cmd_report(args.csvs, args.out)
        print(f"wrote {out}")
        return 0

    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    if args.command == "train":
        cmd_train(config, args.out_dir)
    elif args.command == "sweep-temp":
        store = load_store(args.store)
        source = args.source or config.weighting_source
        out = cmd_sweep_temperature(config, store, args.policy, source, args.out_dir)
        print(f"wrote {out}")
    elif args.command == "sweep-offset":
        store = load_store(args.store)
        out = cmd_sweep_offset(config, store, args.out_dir, tau=args.tau)
        print(f"wrote {out}")
    elif args.command == "compare":
        result = cmd_compare(config, args.out_dir)
        print(f"wrote {result['csv_path']} and {result['md_path']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, SelectionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
