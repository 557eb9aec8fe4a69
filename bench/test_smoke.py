"""Smoke test of the benchmark itself, at reduced sizes.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced. Every metric that
BENCHMARK.json names must be printed with its unit, and nothing may fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def _run(*args: str) -> tuple[str, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    stdout, result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--small")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 5
    error_line = next(line for line in stdout.splitlines() if line.strip().startswith("error_rate"))
    assert error_line.split()[1:3] == ["ratio", "0"], error_line


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "TARGETS", (
        ("snapstack.snapshots", "_no_such_kernel", "nn.grad"),
        ("snapstack.stacking", "forward_batch", "nn.forward"),
    ))
    import snapstack.stacking as stacking

    original = stacking.forward_batch
    tracer = spans.Tracer("t")
    try:
        tracer.install()
        assert tracer.absent == ["snapstack.snapshots._no_such_kernel"]
        assert stacking.forward_batch is not original
    finally:
        stacking.forward_batch = original
