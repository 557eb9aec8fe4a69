"""Output checks for one pipeline's out directory.

A pipeline passes when every command exited 0 (checked by the runner) and:
- store.snap, the CSVs and the Markdown outputs are byte-identical to those
  of the run's first pipeline (the sidecar carries a timestamp and is not
  compared);
- at the reference seed, every numeric CSV field is within 1e-12 of the
  reference values kept under reference/<workload>/, rows matched by key;
- at any seed, accuracies lie in [0, 1], NLLs are finite and non-negative,
  and each CSV has the expected row count minus the skipped cells.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
TOLERANCE = 1e-12

SWEEP_CSV = "sweep_temp_min_mid_train.csv"
OFFSET_CSV = "sweep_offset.csv"
COMPARE_CSV = "compare.csv"

# columns that identify a row; every other column is a measured value
KEYS = {
    SWEEP_CSV: ("tau", "n_models", "policy", "source"),
    OFFSET_CSV: ("offset", "tau", "policy", "source"),
    COMPARE_CSV: ("model", "type"),
}
# compare.csv: single, independent ensemble, (eq, stack) x 3 policies, (eq, stack) SWA
COMPARE_ROWS = 10


def digests(out_dir: Path, names) -> dict[str, str]:
    """SHA-256 of the named output files that exist (sanity() reports missing ones)."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in names
        if (out_dir / name).is_file()
    }


def _read(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def expected_rows(wl: Workload) -> dict[str, tuple[int, int]]:
    """(rows written, cells skipped) per CSV, worked out from the config alone."""
    cfg = wl.config
    members = 2 * wl.num_cycles  # min+mid: one of each per completed cycle
    sizes = range(1, wl.num_cycles + 1)
    skipped = sum(1 for _ in cfg["tau_grid"] for n in sizes if n > members)
    cells = len(cfg["tau_grid"]) * len(sizes)
    return {
        SWEEP_CSV: (cells - skipped, skipped),
        # every offset is captured, so select_offset never raises
        OFFSET_CSV: (len(cfg["offsets"]), 0),
        COMPARE_CSV: (COMPARE_ROWS, 0),
    }


def sanity(wl: Workload, out_dir: Path, skip_warnings: int) -> list[tuple[str, str]]:
    """Checks that hold at any seed; returns (output file, problem) pairs."""
    problems = []
    expected = expected_rows(wl)
    if skip_warnings != sum(s for _, s in expected.values()):
        problems.append((SWEEP_CSV, f"{skip_warnings} skip warnings, expected "
                                    f"{sum(s for _, s in expected.values())}"))
    for name, (rows_expected, _) in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append((name, "missing"))
            continue
        rows = _read(path)
        if len(rows) != rows_expected:
            problems.append((name, f"{len(rows)} rows, expected {rows_expected}"))
        for r in rows:
            acc, nll = float(r["accuracy"]), float(r["mean_nll"])
            if not 0.0 <= acc <= 1.0:
                problems.append((name, f"accuracy {acc} outside [0, 1]"))
            if not (math.isfinite(nll) and nll >= 0.0):
                problems.append((name, f"mean_nll {nll} not finite and non-negative"))
    for name in ("store.snap", "compare.md", "report.md"):
        if not (out_dir / name).is_file():
            problems.append((name, "missing"))
    return problems


def _same(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def against_reference(wl: Workload, out_dir: Path) -> list[tuple[str, str]]:
    """Field-by-field comparison with the kept reference CSVs."""
    problems = []
    for name, keys in KEYS.items():
        ref_path = REFERENCE_DIR / wl.name / name
        if not ref_path.is_file():
            problems.append((name, f"reference {wl.name}/{name} missing"))
            continue
        if not (out_dir / name).is_file():
            continue  # reported by sanity()
        ref = {tuple(r[k] for k in keys): r for r in _read(ref_path)}
        got = {tuple(r[k] for k in keys): r for r in _read(out_dir / name)}
        if ref.keys() != got.keys():
            problems.append((name, "row keys differ from the reference"))
            continue
        for key, row in got.items():
            for col, value in row.items():
                if not _same(value, ref[key][col]):
                    problems.append((name, f"{key} {col}: {value} vs reference {ref[key][col]}"))
    return problems
