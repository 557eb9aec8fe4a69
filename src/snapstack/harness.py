"""The command-line interface, and the report command.

Subcommands: train, sweep-temp, sweep-offset, compare, report. Exit codes: 0
success, 1 validation error, 2 runtime/training error or out of memory, 3 I/O
error. This module imports only the standard library: report reads and writes
text, and the computing commands (snapstack.experiment, which loads numpy) are
imported when load_config reads their config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .errors import POLICIES, SOURCES, FormatError, InputError, SelectionError, TrainingError

def load_config(path: str | Path):
    """The experiment.ExperimentConfig in the JSON file path. Its reader is in experiment,
    so the first config read loads numpy: every command that takes a config computes."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as e:  # also JSONDecodeError, UnicodeDecodeError and over-long integers
        raise InputError(f"{path}: config is not valid UTF-8 JSON ({e})") from e
    if not isinstance(raw, dict):
        raise InputError(f"{path}: config must be a JSON object")
    from .experiment import config_from_dict

    return config_from_dict(raw)


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

    # the computing commands: only these load experiment and numpy
    from dataclasses import replace

    from . import experiment

    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    if args.command == "train":
        experiment.cmd_train(config, args.out_dir)
    elif args.command == "sweep-temp":
        store = experiment.load_store(args.store)
        source = args.source or config.weighting_source
        out = experiment.cmd_sweep_temperature(config, store, args.policy, source, args.out_dir)
        print(f"wrote {out}")
    elif args.command == "sweep-offset":
        store = experiment.load_store(args.store)
        out = experiment.cmd_sweep_offset(config, store, args.out_dir, tau=args.tau)
        print(f"wrote {out}")
    elif args.command == "compare":
        result = experiment.cmd_compare(config, args.out_dir)
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
    except MemoryError as e:  # an array larger than the machine can hold
        print(f"error: out of memory ({e})" if str(e) else "error: out of memory",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
