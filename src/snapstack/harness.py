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
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import SplitSpec, fingerprint, load_idx, make_blobs, split
from .errors import (
    FormatError,
    InputError,
    SelectionError,
    TrainingError,
)
from .nn import Dataset, MlpArchitecture, forward_batch
from .schedule import CycleConfig
from .snapshots import (
    Snapshot,
    SnapshotStore,
    load_store,
    plan_captures,
    save_store,
    select_mid,
    select_min,
    select_offset,
    select_window,
    _train_runs,
    train_with_capture,
)
from .stacking import (
    EvalMetrics,
    WeightingSpec,
    build_ensemble,
    evaluate,
    member_probs,
    swa_average,
    weighted_mean,
)

# test partitions reuse the training cluster geometry but a disjoint noise stream
TEST_SEED_OFFSET = 1_000_003

DEFAULT_TAU_GRID = (0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 10.0, 1000.0)

POLICIES = ("min", "mid", "min+mid", "window", "offset")
IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")

SWEEP_COLUMNS = ("tau", "n_models", "accuracy", "mean_nll", "policy", "source")
OFFSET_COLUMNS = ("offset", "tau", "n_models", "accuracy", "mean_nll", "policy", "source")
COMPARE_COLUMNS = ("model", "type", "n_models", "tau", "accuracy", "mean_nll")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: dict
    hidden: tuple[int, ...]
    cycle: CycleConfig
    seed: int
    val_fraction: float
    batch_size: int
    window_halfwidth: int
    offsets: tuple[int, ...]
    offset_steps: int
    tau_grid: tuple[float, ...]
    n_models_grid: tuple[int, ...] | None
    num_independent: int
    weighting_source: str

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
        if self.weighting_source not in ("train", "validation"):
            raise InputError(f"unknown weighting source {self.weighting_source!r}")
        if self.num_independent < 1:
            raise InputError("num_independent must be at least 1")
        if self.n_models_grid is not None:
            if not self.n_models_grid:
                raise InputError("ensemble size grid must not be empty")
            bad = [n for n in self.n_models_grid if n < 1 or n > self.cycle.num_cycles]
            if bad:
                raise InputError(
                    f"ensemble sizes {bad} outside [1, {self.cycle.num_cycles} cycles]"
                )

    @property
    def n_grid(self) -> tuple[int, ...]:
        if self.n_models_grid is not None:
            return self.n_models_grid
        return tuple(range(1, self.cycle.num_cycles + 1))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from parsed JSON."""
    try:
        for key in ("hidden", "offsets", "tau_grid", "n_models_grid"):
            # a string or an object would iterate as characters or keys
            if raw.get(key) is not None and not isinstance(raw[key], list):
                raise InputError(f"config key {key!r} must be a JSON array, got {raw[key]!r}")
        return ExperimentConfig(
            dataset=_dataset_from_dict(dict(raw["dataset"])),
            hidden=tuple(int(h) for h in raw.get("hidden", (32,))),
            cycle=CycleConfig(
                alpha_min=float(raw["cycle"]["alpha_min"]),
                alpha_max=float(raw["cycle"]["alpha_max"]),
                cycle_len=int(raw["cycle"]["cycle_len"]),
                total_iters=int(raw["cycle"]["total_iters"]),
            ),
            seed=int(raw["seed"]),
            val_fraction=float(raw.get("val_fraction", 0.2)),
            batch_size=int(raw.get("batch_size", 32)),
            window_halfwidth=int(raw.get("window_halfwidth", 0)),
            offsets=tuple(int(o) for o in raw.get("offsets", ())),
            offset_steps=int(raw.get("offset_steps", 10)),
            tau_grid=tuple(float(t) for t in raw.get("tau_grid", DEFAULT_TAU_GRID)),
            n_models_grid=(
                tuple(int(n) for n in raw["n_models_grid"])
                if raw.get("n_models_grid") is not None
                else None
            ),
            num_independent=int(raw.get("num_independent", 5)),
            weighting_source=str(raw.get("weighting_source", "train")),
        )
    except KeyError as e:
        raise InputError(f"config missing required key: {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise InputError(f"malformed config value: {e}") from e


def _dataset_from_dict(ds: dict) -> dict:
    """The dataset section with typed values; an error names its key."""
    kind = ds.get("kind")
    if kind == "blobs":  # test_per_class defaults to per_class
        ds = {"test_per_class": ds.get("per_class"), **ds}
        casts = dict(num_classes=int, per_class=int, dim=int, spread=float, test_per_class=int)
    elif kind == "idx":  # os.fspath takes no JSON value but a string; null means absent
        optional = [k for k in ("limit", "test_limit", "num_classes") if ds.get(k) is not None]
        casts = {**dict.fromkeys(IDX_PATHS, os.fspath), **dict.fromkeys(optional, int)}
    else:
        raise InputError(f"dataset.kind must be 'blobs' or 'idx', got {kind!r}")
    parsed = {"kind": kind}
    for key, cast in casts.items():
        try:
            parsed[key] = cast(ds[key])
        except KeyError:
            raise InputError(f"config missing required key: 'dataset.{key}'") from None
        except (TypeError, ValueError, OverflowError) as e:
            raise InputError(f"malformed config value dataset.{key}: {e}") from e
    return parsed


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
    if ds["kind"] == "blobs":
        k, dim, spread = ds["num_classes"], ds["dim"], ds["spread"]
        pool = make_blobs(k, ds["per_class"], dim, spread, seed=seed, centers_seed=seed)
        train, val = split(pool, SplitSpec(config.val_fraction, seed))
        test_seed = seed + TEST_SEED_OFFSET
        test = make_blobs(k, ds["test_per_class"], dim, spread, seed=test_seed, centers_seed=seed)
    else:
        pool = load_idx(ds["train_images"], ds["train_labels"], ds.get("limit"), ds.get("num_classes"))
        test = load_idx(ds["test_images"], ds["test_labels"], ds.get("test_limit"), pool.num_classes)
        if test.dim != pool.dim:
            raise InputError(f"{ds['test_images']}: {test.dim} features, training has {pool.dim}")
        train, val = split(pool, SplitSpec(config.val_fraction, seed))
    arch = MlpArchitecture((train.dim, *config.hidden, train.num_classes))
    return train, val, test, arch


def policy_snapshots(
    store: SnapshotStore, policy: str, config: ExperimentConfig
) -> list[Snapshot]:
    if policy == "min":
        return select_min(store)
    if policy == "mid":
        return select_mid(store)
    if policy == "min+mid":
        merged = select_min(store) + select_mid(store)
        return sorted(merged, key=lambda s: s.iteration)
    if policy == "window":
        return select_window(store, config.window_halfwidth)
    if policy == "offset":
        return select_offset(store, config.offset_steps)
    raise InputError(f"unknown policy {policy!r}, expected one of {POLICIES}")


def _fmt(v) -> str:
    # repr keeps the full float and round-trips, so reruns are byte-identical
    return repr(v) if isinstance(v, float) else str(v)


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _prepare(
    config: ExperimentConfig, out_dir: str | Path, store: SnapshotStore | None = None
) -> tuple[Path, Dataset, Dataset, Dataset, MlpArchitecture]:
    """Create out_dir and build (train, val, test, arch); warn if store saw other data."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, val, test, arch = build_datasets(config)
    if store is not None and (
        store.train_fingerprint != fingerprint(train) or store.val_fingerprint != fingerprint(val)
    ):
        warnings.warn(
            "store was trained on different data than this config produces; "
            "weights may be stale"
        )
    return out_dir, train, val, test, arch


def _scorer(snaps: list[Snapshot], test: Dataset, probs: np.ndarray):
    """metrics(spec, n) scores the last n snaps as an ensemble from their test outputs probs."""

    def metrics(spec: WeightingSpec, n: int = len(snaps)) -> EvalMetrics:
        return evaluate(weighted_mean(probs[-n:], build_ensemble(snaps[-n:], spec).weights), test)

    return metrics


def cmd_train(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Train once with the full capture plan; write the store and its sidecar."""
    if config.cycle.cycle_len < 4:
        warnings.warn(f"degenerate cycle_len {config.cycle.cycle_len}: schedule has almost no descent")
    out_dir, train, val, _, arch = _prepare(config, out_dir)
    plan = plan_captures(
        config.cycle, config.window_halfwidth, [*config.offsets, config.offset_steps]
    )
    t0 = time.perf_counter()
    store = train_with_capture(
        arch, train, val, config.cycle, config.seed, plan, batch_size=config.batch_size
    )
    elapsed = time.perf_counter() - t0
    path = out_dir / "store.snap"
    save_store(store, path)
    for i, snap in enumerate(select_min(store), start=1):
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
    Each snapshot is forwarded once; a cell is a weighted mean of those outputs.
    """
    out_dir, _, _, test, _ = _prepare(config, out_dir, store)
    snaps = policy_snapshots(store, policy, config)
    metrics = _scorer(snaps, test, member_probs(snaps, test.features))
    rows = []
    for tau in config.tau_grid:
        for n in config.n_grid:
            if n > len(snaps):
                warnings.warn(f"policy {policy!r} has {len(snaps)} snapshots, skipping n={n}")
                continue
            met = metrics(WeightingSpec("temperature", tau=tau, source=source), n)
            rows.append((float(tau), n, met.accuracy, met.mean_nll, policy, source))
    path = out_dir / f"sweep_temp_{policy.replace('+', '_')}_{source}.csv"
    _write_csv(path, SWEEP_COLUMNS, rows)
    return path


def cmd_sweep_offset(
    config: ExperimentConfig, store: SnapshotStore, out_dir: str | Path, tau: float
) -> Path:
    """Accuracy per capture offset from the rate minima, at a fixed temperature."""
    src = config.weighting_source
    spec = WeightingSpec("temperature", tau=tau, source=src)  # checks tau before any work
    out_dir, _, _, test, _ = _prepare(config, out_dir, store)
    rows = []
    for steps in config.offsets:
        try:
            snaps = select_offset(store, steps)
        except SelectionError as e:
            warnings.warn(f"offset {steps} skipped: {e}")
            continue
        met = _scorer(snaps, test, member_probs(snaps, test.features))(spec)
        rows.append((steps, float(tau), len(snaps), met.accuracy, met.mean_nll, "offset", src))
    path = out_dir / "sweep_offset.csv"
    _write_csv(path, OFFSET_COLUMNS, rows)
    return path


def cmd_compare(config: ExperimentConfig, out_dir: str | Path) -> dict:
    """Comparison table: single model, independent ensemble, snapshot and SWA rows.

    Every snapshot and SWA row derives from ONE capture run; only the
    independent-ensemble baseline trains additional models, in the same SGD
    loop as the capture run.
    """
    out_dir, train, val, test, arch = _prepare(config, out_dir)

    # the capture run plans only what the rows read, the final iterate last; captures
    # do not change the trajectory, so that iterate is independent member 0 (config.seed)
    last = config.cycle.total_iters - 1
    seeds = list(range(config.seed, config.seed + config.num_independent))
    plans = [plan_captures(config.cycle, offsets=[config.offset_steps])]
    plans += [{last: "window"}] * (len(seeds) - 1)
    t0 = time.perf_counter()
    store, *others = _train_runs(arch, train, val, config.cycle, seeds, plans, config.batch_size)
    train_time = time.perf_counter() - t0
    finals = [store.snapshots[-1]] + [run.snapshots[0] for run in others]

    # one forward per member; the seeds' finals share an iteration, so look up by object
    members = [*store.snapshots, *finals[1:]]
    probs = dict(zip(map(id, members), member_probs(members, test.features)))

    def scorer(snaps: list[Snapshot]):
        return _scorer(snaps, test, np.stack([probs[id(s)] for s in snaps]))

    rows: list[tuple] = []
    single = scorer(finals[:1])(WeightingSpec("equal"))
    rows.append(("single", "-", 1, "-", single.accuracy, single.mean_nll))
    met = scorer(finals)(WeightingSpec("equal"))
    rows.append(("ensemble", "individual", len(finals), "-", met.accuracy, met.mean_nll))

    def add_pair(model: str, label: str, n: int, metrics) -> None:
        """The equal-weight row, then the stacked row at the first tau with the best accuracy."""
        met = metrics(WeightingSpec("equal"))
        rows.append((model, f"{label}, eq", n, "-", met.accuracy, met.mean_nll))
        src = config.weighting_source
        scored = [
            (float(tau), metrics(WeightingSpec("temperature", tau=tau, source=src)))
            for tau in config.tau_grid
        ]
        tau, met = max(scored, key=lambda tau_met: tau_met[1].accuracy)  # max keeps the first
        rows.append((model, f"{label}, stack", n, tau, met.accuracy, met.mean_nll))

    for policy in ("min", "min+mid", "offset"):
        try:
            snaps = policy_snapshots(store, policy, config)
        except SelectionError as e:
            warnings.warn(f"policy {policy!r} skipped: {e}")
            continue
        add_pair("snapshot", policy, len(snaps), scorer(snaps))

    swa_snaps = select_min(store)

    def swa_metrics(spec: WeightingSpec):
        swa = swa_average(build_ensemble(swa_snaps, spec))
        return evaluate(forward_batch(swa, test.features), test)

    add_pair("swa", "min", len(swa_snaps), swa_metrics)

    csv_path = out_dir / "compare.csv"
    _write_csv(csv_path, COMPARE_COLUMNS, rows)
    md_path = out_dir / "compare.md"
    md_path.write_text(_compare_markdown(rows))
    return {
        "rows": rows,
        "csv_path": csv_path,
        "md_path": md_path,
        "snapshot_trainings": 1,
        "independent_trainings": config.num_independent - 1,
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
    p.add_argument("--source", choices=("train", "validation"),
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
