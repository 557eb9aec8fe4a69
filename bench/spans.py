"""Span tracing from outside the package, and the roll-up into per-layer metrics.

`Tracer.install` replaces names that snapstack modules import from one
another (and the harness's own entry points) with timing wrappers. Each call
records one span: [name, start, end, parent index, quantity]. Spans live in
memory and are written once, when the command ends. A wrap target that no
longer exists is reported as absent, so the trace outlives refactors.

`rollup` turns the spans of one pipeline (one list per command) into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import os
import time

# (module, attribute) -> span name. The harness names are the layer entry
# points a command calls; the snapshots/stacking names are the cross-module
# imports the training loop and the ensemble predictor call.
TARGETS = (
    ("snapstack.snapshots", "_grad", "nn.grad"),
    ("snapstack.snapshots", "lr_at", "schedule.lr_at"),
    ("snapstack.snapshots", "ParamVector", "nn.param_wrap"),
    ("snapstack.snapshots", "_make_nll_scorer", "nn.make_scorer"),
    ("snapstack.snapshots", "init_params", "nn.init"),
    ("snapstack.snapshots", "fingerprint", "data.fingerprint"),
    ("snapstack.stacking", "forward_batch", "nn.forward"),
    ("snapstack.harness", "build_datasets", "data.build"),
    ("snapstack.harness", "make_blobs", "data.make_blobs"),
    ("snapstack.harness", "load_idx", "data.load_idx"),
    ("snapstack.harness", "split", "data.split"),
    ("snapstack.harness", "fingerprint", "data.fingerprint"),
    ("snapstack.harness", "train_with_capture", "snapshots.train"),
    ("snapstack.harness", "save_store", "snapshots.save"),
    ("snapstack.harness", "load_store", "snapshots.load"),
    ("snapstack.harness", "build_ensemble", "stacking.build_ensemble"),
    ("snapstack.harness", "evaluate", "stacking.evaluate"),
    ("snapstack.harness", "swa_average", "stacking.swa"),
    ("snapstack.harness", "select_min", "snapshots.select"),
    ("snapstack.harness", "select_mid", "snapshots.select"),
    ("snapstack.harness", "select_window", "snapshots.select"),
    ("snapstack.harness", "select_offset", "snapshots.select"),
)

# spans the training loop makes once per iteration
PER_STEP = ("nn.grad", "schedule.lr_at", "nn.param_wrap")

COMMANDS = ("train", "sweep-temp", "sweep-offset", "compare", "report")


def _matmul_terms(layer_sizes) -> int:
    return sum(i * o for i, o in zip(layer_sizes, layer_sizes[1:]))


def forward_flops(layer_sizes, rows: int) -> int:
    """Computed multiply-add FLOPs of the dense layers (2 per MAC), rows x layers."""
    return 2 * rows * _matmul_terms(layer_sizes)


def grad_flops(layer_sizes, rows: int) -> int:
    """Computed FLOPs of one backprop: forward, weight gradients, input gradients
    of every layer but the first."""
    first = layer_sizes[0] * layer_sizes[1]
    terms = _matmul_terms(layer_sizes)
    return 2 * rows * (2 * terms + terms - first)


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[0]) if shape else 0


class Tracer:
    """In-memory span recorder for one command process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.absent: list[str] = []
        # forwarded parameter vectors, held so their ids stay unique
        self.forwarded: dict[int, object] = {}

    def wrap(self, name: str, fn, quantity=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if quantity is not None:
                try:
                    rec[4] = quantity(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    rec[4] = 0
            return out

        return traced

    def install(self) -> None:
        quantities = {
            "nn.grad": lambda a, k, out: grad_flops(a[0].arch.layer_sizes, _rows(a[1])),
            "nn.forward": self._forward_quantity,
            "snapshots.train": lambda a, k, out: len(out.snapshots),
            "snapshots.save": lambda a, k, out: os.path.getsize(a[1]),
            "snapshots.load": lambda a, k, out: os.path.getsize(a[0]),
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if name == "nn.make_scorer":
                fn = self._scorer_factory(fn)
            setattr(module, attr, self.wrap(name, fn, quantities.get(name)))

    def _forward_quantity(self, args, kwargs, out) -> int:
        params = args[0]
        self.forwarded[id(params)] = params
        return _rows(args[1])

    def _scorer_factory(self, make):
        def make_traced(*args, **kwargs):
            rows = _rows(args[1]) if len(args) > 1 else 0  # (arch, features, labels)
            return self.wrap("nn.score", make(*args, **kwargs), lambda a, k, out: rows)

        return make_traced

    def dump(self, path: str, command: str) -> None:
        payload = {
            "trace_id": self.trace_id,
            "command": command,
            "absent": self.absent,
            "distinct_forwarded": len(self.forwarded),
            "spans": self.spans,
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))


# ---------------------------------------------------------------- roll-up

def _self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children (calls are sequential)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def rollup(traces: list[dict], layer_sizes, total_iters: int):
    """Per-layer metrics of one traced pipeline (one trace dict per command),
    and each command's inclusive time per span name."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    qty: dict[str, float] = {}
    self_s: dict[str, float] = {}
    per_cmd: dict[str, dict[str, float]] = {}
    distinct = 0
    for trace in traces:
        spans = trace["spans"]
        own = _self_times(spans)
        cmd_total: dict[str, float] = {}
        for s, o in zip(spans, own):
            name = s[0]
            dur = s[2] - s[1]
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            qty[name] = qty.get(name, 0) + s[4]
            self_s[name] = self_s.get(name, 0.0) + o
            cmd_total[name] = cmd_total.get(name, 0.0) + dur
        per_cmd[trace["command"]] = cmd_total
        distinct += trace["distinct_forwarded"]

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    trainings = n("snapshots.train")
    steps = trainings * total_iters
    # the per-step loop: training spans minus their once-per-run children
    # (init, scorer, capture scoring, fingerprints)
    loop_s = t("snapshots.train")
    grad_wrap_in_train = 0.0
    for trace in traces:
        spans = trace["spans"]
        for s in spans:
            if s[3] < 0 or spans[s[3]][0] != "snapshots.train":
                continue
            if s[0] not in PER_STEP:
                loop_s -= s[2] - s[1]
            elif s[0] != "schedule.lr_at":
                grad_wrap_in_train += s[2] - s[1]
    fwd_calls = n("nn.forward")
    cmd_spans = {c: per_cmd.get(c, {}).get(f"cmd.{c}", 0.0) for c in COMMANDS}
    config_cmds = [c for c in COMMANDS if c != "report" and c in per_cmd]
    build_shares = [
        per_cmd[c].get("data.build", 0.0) / cmd_spans[c] for c in config_cmds if cmd_spans[c] > 0
    ]
    sweep = per_cmd.get("sweep-temp", {})

    m = {
        "data.build.calls": n("data.build"),
        "data.build.s": t("data.build"),
        # one of the two sources is unused on each workload, so their time is
        # reported together: a time that reads 0 on every run measures nothing
        "data.source.s": t("data.load_idx") + t("data.make_blobs"),
        "data.load_idx.calls": n("data.load_idx"),
        "data.make_blobs.calls": n("data.make_blobs"),
        "data.split.s": t("data.split"),
        "data.fingerprint.calls": n("data.fingerprint"),
        "data.fingerprint.s": t("data.fingerprint"),
        "schedule.lr_at.calls": n("schedule.lr_at"),
        "schedule.lr_at.s": t("schedule.lr_at"),
        "nn.grad.calls": n("nn.grad"),
        "nn.grad.s": t("nn.grad"),
        "nn.grad.flops": qty.get("nn.grad", 0),
        "nn.param_wrap.calls": n("nn.param_wrap"),
        "nn.param_wrap.s": t("nn.param_wrap"),
        "nn.init.s": t("nn.init"),
        "nn.score.calls": n("nn.score"),
        "nn.score.s": t("nn.score"),
        "nn.score.rows": qty.get("nn.score", 0),
        "nn.forward.calls": fwd_calls,
        "nn.forward.s": t("nn.forward"),
        "nn.forward.rows": qty.get("nn.forward", 0),
        "nn.forward.flops": forward_flops(layer_sizes, int(qty.get("nn.forward", 0))),
        "snapshots.train.calls": trainings,
        "snapshots.train.s": t("snapshots.train"),
        "snapshots.train.self_s": self_s.get("snapshots.train", 0.0),
        "snapshots.step_us": 1e6 * loop_s / steps if steps else 0.0,
        "snapshots.captures": qty.get("snapshots.train", 0),
        "snapshots.save.s": t("snapshots.save"),
        "snapshots.save.bytes": qty.get("snapshots.save", 0),
        "snapshots.load.s": t("snapshots.load"),
        "snapshots.load.bytes": qty.get("snapshots.load", 0),
        "snapshots.select.s": t("snapshots.select"),
        "stacking.build_ensemble.calls": n("stacking.build_ensemble"),
        "stacking.build_ensemble.s": t("stacking.build_ensemble"),
        "stacking.evaluate.calls": n("stacking.evaluate"),
        "stacking.evaluate.s": t("stacking.evaluate"),
        "stacking.evaluate.self_s": self_s.get("stacking.evaluate", 0.0),
        "stacking.distinct_members": distinct,
        "stacking.forward_reuse": distinct / fwd_calls if fwd_calls else 0.0,
        "stacking.swa.calls": n("stacking.swa"),
        "stacking.swa.s": t("stacking.swa"),
        "harness.self_s": sum(self_s.get(f"cmd.{c}", 0.0) for c in COMMANDS),
    }
    for c in COMMANDS:
        m[f"cmd.{c}.s"] = cmd_spans[c]
    train_s = t("snapshots.train")
    m["share.grad_wrap_of_train"] = grad_wrap_in_train / train_s if train_s else 0.0
    sweep_s = cmd_spans["sweep-temp"]
    m["share.forward_of_sweep_temp"] = sweep.get("nn.forward", 0.0) / sweep_s if sweep_s else 0.0
    all_cmds = sum(cmd_spans.values())
    m["share.data_build_of_cmds"] = t("data.build") / all_cmds if all_cmds else 0.0
    m["share.data_build_of_cmd.min"] = min(build_shares, default=0.0)
    m["share.data_build_of_cmd.max"] = max(build_shares, default=0.0)
    return m, per_cmd
