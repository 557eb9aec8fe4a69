"""CLI benchmark for snapstack: the quick-start pipeline, timed as a user runs it.

    python3 bench/run.py --workload readme --seed 0 --seconds 35 --trace 0

For one workload, writes the seeded inputs, then runs the pipeline
train -> sweep-temp (min+mid) -> sweep-offset -> compare -> report again and
again until --seconds have passed. Each command runs in a fresh interpreter
(bench/child.py), one at a time (closed loop, one client). Every output is
checked. With --trace 0 the end-to-end metrics are printed; with --trace 1
traced and untraced pipelines alternate and the per-layer metrics are
printed, with the tracing overhead. `--workload all` runs every workload,
untraced then traced, and prints everything. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
WORK_ROOT = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150
# a run ends within this many seconds of its start, whatever --seconds says
RUN_LIMIT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "sweep_temp_s": "s",
    "sweep_offset_s": "s",
    "compare_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
TIMED_COMMANDS = {
    "train": "train_s",
    "sweep-temp": "sweep_temp_s",
    "sweep-offset": "sweep_offset_s",
    "compare": "compare_s",
}
# the outputs that must be byte-identical across a run's pipelines, and the
# command that writes each
PRODUCER = {
    "store.snap": "train",
    checks.SWEEP_CSV: "sweep-temp",
    checks.OFFSET_CSV: "sweep-offset",
    checks.COMPARE_CSV: "compare",
    "compare.md": "compare",
    "report.md": "report",
}
SKIP_WARNING = re.compile(r"skipping n=\d+|offset -?\d+ skipped:|policy '[^']*' skipped:")
COUNT_SUFFIXES = (".calls", ".flops", ".rows", ".bytes", ".captures", ".distinct_members",
                  ".forward_reuse", ".cells", ".cells_skipped")


def layer_unit(name: str) -> str:
    if name.startswith("share.") or name.endswith(".forward_reuse"):
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    for suffix, unit in ((".flops", "flop"), (".rows", "rows"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def commands(out: str = "out") -> list[tuple[str, list[str]]]:
    cfg = ["--config", "config.json", "--out-dir", out]
    store = ["--store", f"{out}/store.snap"]
    return [
        ("train", ["train", *cfg]),
        ("sweep-temp", ["sweep-temp", *cfg, *store, "--policy", "min+mid", "--source", "train"]),
        ("sweep-offset", ["sweep-offset", *cfg, *store, "--tau", "1.0"]),
        ("compare", ["compare", *cfg]),
        ("report", ["report", f"{out}/{checks.SWEEP_CSV}", f"{out}/{checks.OFFSET_CSV}",
                    f"{out}/{checks.COMPARE_CSV}", "--out", f"{out}/report.md"]),
    ]


def command_env() -> dict[str, str]:
    """The timed commands' environment: this checkout's sources, one BLAS thread.

    One thread keeps the timings steady on a small shared machine, where a
    second BLAS thread waits on whatever else the machine runs; the run
    record shows the setting.
    """
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_record(seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "record.py")], env=command_env(),
                          capture_output=True, text=True, check=True, timeout=COMMAND_TIMEOUT_S)
    return {**json.loads(proc.stdout), "seed": seed}


class Pipelines:
    """Runs whole pipelines for one workload in its own work directory."""

    def __init__(self, wl: workloads.Workload, work: Path, check_reference: bool,
                 hard_deadline: float):
        self.wl = wl
        self.hard_deadline = hard_deadline
        self.work = work
        self.check_reference = check_reference
        self.env = command_env()
        self.first_digests: dict[str, str] | None = None
        self.count = 0

    def warm_up(self) -> None:
        """Byte-compile the package once, untimed, as an installed package would be."""
        subprocess.run([sys.executable, "-c", "import snapstack.harness"], env=self.env,
                       cwd=self.work, check=True, timeout=COMMAND_TIMEOUT_S)

    def _command(self, name: str, argv: list[str], trace_path: Path | None) -> dict:
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        opts = [str(result_path)]
        if trace_path is not None:
            opts += ["--trace", str(trace_path), "--trace-id", f"p{self.count}-{name}"]
        timeout = min(COMMAND_TIMEOUT_S, self.hard_deadline - time.perf_counter())
        try:
            if timeout <= 0:
                raise subprocess.TimeoutExpired(argv, 0)
            proc = subprocess.run([sys.executable, str(CHILD), *opts, "--", *argv],
                                  cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"name": name, "ok": False, "why": "timed out", "stderr": ""}
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return {"name": name, "ok": False, "stderr": proc.stderr,
                    "why": f"exit {proc.returncode}: {tail[0]}"}
        res = json.loads(result_path.read_text())
        res.update(name=name, ok=True, stderr=proc.stderr)
        return res

    def run(self, traced: bool) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        trace_dir = self.work / "spans"
        if traced:
            trace_dir.mkdir(exist_ok=True)
        results, traces = [], []
        t0 = time.perf_counter()
        for name, argv in commands():
            trace_path = trace_dir / f"{name}.json" if traced else None
            results.append(self._command(name, argv, trace_path))
        wall = time.perf_counter() - t0
        self.count += 1

        failed = {r["name"]: r["why"] for r in results if not r["ok"]}
        skips = sum(len(SKIP_WARNING.findall(r["stderr"])) for r in results)
        problems: list[tuple[str, str]] = []
        if not failed:
            problems += checks.sanity(self.wl, out, skips)
            if self.check_reference:
                problems += checks.against_reference(self.wl, out)
            digests = checks.digests(out, PRODUCER)
            if self.first_digests is None:
                self.first_digests = digests
            for fname, digest in digests.items():
                if self.first_digests.get(fname) != digest:
                    problems.append((fname, "differs from the run's first pipeline"))
            if traced:
                traces = [json.loads((trace_dir / f"{n}.json").read_text()) for n, _ in commands()]
        for fname, problem in problems:
            failed.setdefault(PRODUCER[fname], f"{fname}: {problem}")
        return {"wall": wall, "results": results, "failed": failed, "traces": traces,
                "skips": skips, "traced": traced}


def _tail(samples: list[float]) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    med = statistics.median(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"median {med:.6g}  p{p:g} {q:.6g}  (n={n})"
    return f"median {med:.6g}  (n={n}; too few samples for a tail percentile)"


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    samples: dict[str, list[float]] = {k: [] for k in E2E_UNITS}
    rss = []
    for run in runs:
        if not run["failed"]:
            samples["pipeline_s"].append(run["wall"])
        for r in run["results"]:
            if not r["ok"]:
                continue
            samples["setup_s"].append(r["setup_s"])
            rss.append(r["maxrss_kb"] / 1024.0)
            if r["name"] in TIMED_COMMANDS:
                samples[TIMED_COMMANDS[r["name"]]].append(r["command_s"])
    metrics, lines = {}, []
    for name, values in samples.items():
        if name == "peak_rss_mb":
            metrics[name] = max(rss, default=0.0)
            lines.append(f"  {name:<16} {'MB':<6} max {metrics[name]:.6g}  (n={len(rss)} processes)")
        elif values:
            metrics[name] = statistics.median(values)
            lines.append(f"  {name:<16} {E2E_UNITS[name]:<6} {_tail(values)}")
        else:
            metrics[name] = 0.0
            lines.append(f"  {name:<16} {E2E_UNITS[name]:<6} no successful sample")
    return metrics, lines


def per_layer(wl: workloads.Workload, runs: list[dict]) -> tuple[dict[str, float], list[str], list[str]]:
    """Medians of the traced pipelines' roll-ups; counts must repeat exactly."""
    traced = [r for r in runs if r["traced"] and not r["failed"]]
    plain = [r["wall"] for r in runs if not r["traced"] and not r["failed"]]
    rolls, per_cmd = [], {}
    cells = sum(rows for rows, _ in checks.expected_rows(wl).values())
    for run in traced:
        m, per_cmd = spans.rollup(run["traces"], wl.layer_sizes, wl.config["cycle"]["total_iters"])
        m["harness.cells"] = cells
        m["harness.cells_skipped"] = run["skips"]
        rolls.append(m)
    problems = []
    metrics: dict[str, float] = {}
    for name in (rolls[0] if rolls else {}):
        values = [m[name] for m in rolls]
        if not name.endswith(COUNT_SUFFIXES):
            metrics[name] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"count {name} differs between traced pipelines: {sorted(set(values))}")
        metrics[name] = values[0]
    if traced and plain:
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(plain))
    lines = [f"  {k:<34} {layer_unit(k):<6} {v:.6g}" for k, v in metrics.items()]
    if traced:
        lines.append(f"  (medians of {len(traced)} traced pipelines; overhead against "
                     f"{len(plain)} untraced)")
        absent = sorted({a for t in traced[0]["traces"] for a in t["absent"]})
        if absent:
            lines.append(f"  absent wrap targets: {', '.join(absent)}")
        lines.append("  per command, inclusive seconds (last traced pipeline):")
        top = ("data.build", "snapshots.train", "snapshots.save", "snapshots.load",
               "nn.forward", "stacking.evaluate", "stacking.swa")
        lines.append("    " + f"{'command':<13}" + "".join(f"{t:>18}" for t in ("span", *top)))
        for cmd, totals in per_cmd.items():
            row = [totals.get(f"cmd.{cmd}", 0.0)] + [totals.get(t, 0.0) for t in top]
            lines.append("    " + f"{cmd:<13}" + "".join(f"{v:>18.4f}" for v in row))
    return metrics, lines, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    wl = workloads.build(name, seed, small)
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(wl, work)
    pipes = Pipelines(wl, work, check_reference=(seed == checks.REFERENCE_SEED and not small),
                      hard_deadline=hard_deadline)
    pipes.warm_up()

    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(runs) % 2 == 1
        runs.append(pipes.run(traced))
        if runs[-1]["failed"]:
            break
        if time.perf_counter() >= deadline and (not trace or len(runs) >= 2):
            break

    attempted = sum(len(r["results"]) for r in runs)
    failed = sum(len(r["failed"]) for r in runs)
    samples = [{"wall": r["wall"], "traced": r["traced"],
                "commands": {c["name"]: {k: c.get(k) for k in ("setup_s", "command_s", "cpu_s")}
                             for c in r["results"]}} for r in runs]
    (work / "samples.json").write_text(json.dumps(samples, indent=1) + "\n")
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{len(runs)} pipelines in {seconds:g}s budget  ({workloads.WHY[name]})")
    for r in runs:
        for cmd, why in r["failed"].items():
            print(f"  FAILED {cmd}: {why}")
    problems = []
    if trace:
        metrics, lines, problems = per_layer(wl, runs)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, lines = end_to_end(runs)
        units = E2E_UNITS
    print("\n".join(lines))
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    print(f"  {'error_rate':<16} {'ratio':<6} {failed / attempted:.6g}  "
          f"({failed} failed of {attempted} attempted)")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "snapstack" / "harness.py").is_file():
        print(f"error: no snapstack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    record = run_record(args.seed)
    print("run record: " + json.dumps(record))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                r = run_workload(name, args.seed, args.seconds, trace, args.small)
                result["correct"] &= r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                result["metrics"].update({f"{name}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
