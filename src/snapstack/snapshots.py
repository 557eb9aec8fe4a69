"""Capture, tag, select, and serialize snapshot models along one training run."""

from __future__ import annotations

import json
import struct
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import fingerprint
from .errors import (
    ArchMismatchError,
    BadMagicError,
    BadVersionError,
    FormatError,
    InputError,
    SelectionError,
    TrainingError,
    TruncatedFileError,
)
from .nn import (
    Dataset,
    MlpArchitecture,
    ParamVector,
    _grad,
    _per_example_nll,
    init_params,
)
from .schedule import CycleConfig, cycle_midpoints, cycle_minima, lr_at

TAGS = ("min", "mid", "window", "offset")

STORE_MAGIC = b"SNAPSTOR"
STORE_VERSION = 1


@dataclass
class Snapshot:
    """Captured parameters plus the training-time stats used for weighting."""

    params: ParamVector
    iteration: int
    lr_at_capture: float
    train_nll: float
    val_nll: float
    tag: str

    def __post_init__(self):
        if self.iteration < 0:
            raise InputError(f"iteration must be non-negative, got {self.iteration}")
        if self.tag not in TAGS:
            raise InputError(f"unknown snapshot tag {self.tag!r}, expected one of {TAGS}")
        for name in ("lr_at_capture", "train_nll", "val_nll"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise InputError(f"snapshot {name} must be finite, got {v}")
        if self.train_nll < 0.0 or self.val_nll < 0.0:
            raise InputError("snapshot NLLs must be non-negative")


@dataclass
class SnapshotStore:
    """Immutable record of one training run's captured snapshots."""

    run_id: str
    arch: MlpArchitecture
    cfg: CycleConfig
    seed: int
    train_fingerprint: str
    val_fingerprint: str
    snapshots: tuple[Snapshot, ...]

    def __post_init__(self):
        self.snapshots = tuple(self.snapshots)
        prev = -1
        for snap in self.snapshots:
            if snap.iteration <= prev:
                raise InputError("snapshots must be strictly increasing in iteration")
            if snap.iteration >= self.cfg.total_iters:
                raise InputError(
                    f"snapshot iteration {snap.iteration} beyond run length "
                    f"{self.cfg.total_iters}"
                )
            if snap.params.arch != self.arch:
                raise InputError("snapshot architecture differs from store architecture")
            prev = snap.iteration


def plan_captures(
    cfg: CycleConfig, window_halfwidth: int = 0, offsets: Iterable[int] = ()
) -> dict[int, str]:
    """Capture iterations of every policy, with tags: the rate minima, the
    half-amplitude points, the final iterate, and any windows and offsets.

    When an iteration serves several policies it keeps the most specific tag:
    min over mid over offset over window. Out-of-range window/offset targets
    are dropped here; the selections later skip those cycles with a warning.
    """
    minima = cycle_minima(cfg)
    plan: dict[int, str] = {}
    if window_halfwidth:
        if window_halfwidth < 0 or 2 * window_halfwidth >= cfg.cycle_len:
            raise InputError(
                f"window half-width {window_halfwidth} does not fit a cycle of "
                f"{cfg.cycle_len} iterations"
            )
        for m in minima:
            for t in range(m - window_halfwidth, m + window_halfwidth + 1):
                if 0 <= t < cfg.total_iters:
                    plan[t] = "window"
    for steps in offsets:
        if abs(steps) >= cfg.cycle_len:
            raise InputError(f"offset {steps} would cross into the next cycle's capture")
        for m in minima:
            t = m + steps
            if 0 <= t < cfg.total_iters:
                plan[t] = "offset"
    for t in cycle_midpoints(cfg):
        plan[t] = "mid"
    for t in minima:
        plan[t] = "min"
    plan.setdefault(cfg.total_iters - 1, "window")
    return plan


def train_with_capture(
    arch: MlpArchitecture,
    data: Dataset,
    val: Dataset,
    cfg: CycleConfig,
    seed: int,
    capture_plan: Mapping[int, str],
    batch_size: int = 32,
) -> SnapshotStore:
    """One SGD run under the cyclical schedule, snapshotting planned iterations.

    The plan maps iteration -> tag, as `plan_captures` builds it. Snapshots
    record the parameters right after that iteration's update, with mean NLL
    evaluated on the full training and validation sets. Deterministic given
    (arch, data, val, cfg, seed).
    """
    for name, d in (("train", data), ("validation", val)):
        if d.dim != arch.input_dim or d.num_classes != arch.num_classes:
            raise InputError(
                f"{name} set [{d.dim} features, {d.num_classes} classes] does not "
                f"match arch {arch.layer_sizes}"
            )
    if batch_size < 1:
        raise InputError(f"batch_size must be positive, got {batch_size}")
    plan = {int(t): tag for t, tag in capture_plan.items()}
    for t, tag in plan.items():
        if tag not in TAGS:
            raise InputError(f"unknown capture tag {tag!r}")
        if not 0 <= t < cfg.total_iters:
            raise InputError(f"capture iteration {t} outside [0, {cfg.total_iters})")

    # the loop steps a raw array: a ParamVector copies and re-checks its values,
    # which only the planned captures need
    values = init_params(arch, seed).values
    sizes = arch.layer_sizes
    shuffle_rng = np.random.default_rng([seed, 1])  # stream separate from init
    m = data.num_examples
    order = shuffle_rng.permutation(m)
    pos = 0
    pending: list[tuple[int, float, ParamVector]] = []
    for t in range(cfg.total_iters):
        if pos >= m:
            order = shuffle_rng.permutation(m)
            pos = 0
        idx = order[pos : pos + batch_size]
        pos += batch_size
        lr = lr_at(cfg, t)
        with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
            values = values - lr * _grad(values, sizes, data.features[idx], data.labels[idx])
        if not np.all(np.isfinite(values)):
            raise TrainingError(f"training diverged at iteration {t}")
        if t in plan:
            pending.append((t, lr, ParamVector(values, arch)))

    # captured parameters are immutable, so scoring can wait until the loop is
    # done; one forward per snapshot covers both evaluation sets
    features = np.vstack([data.features, val.features])
    labels = np.concatenate([data.labels, val.labels])
    captured = []
    for t, lr, params in pending:
        nlls = _per_example_nll(params, features, labels)
        captured.append(
            Snapshot(
                params=params,
                iteration=t,
                lr_at_capture=lr,
                train_nll=float(nlls[:m].mean()),
                val_nll=float(nlls[m:].mean()),
                tag=plan[t],
            )
        )
    return SnapshotStore(
        run_id=f"run-{seed}",
        arch=arch,
        cfg=cfg,
        seed=seed,
        train_fingerprint=fingerprint(data),
        val_fingerprint=fingerprint(val),
        snapshots=tuple(captured),
    )


def _by_iteration(store: SnapshotStore) -> dict[int, Snapshot]:
    return {s.iteration: s for s in store.snapshots}


def _at_phase(store: SnapshotStore, phase: int) -> list[Snapshot]:
    """Snapshots at one phase of each completed cycle, found by scanning the
    snapshots: the cost does not grow with the run length the store declares."""
    cfg = store.cfg
    return [
        s for s in store.snapshots
        if s.iteration % cfg.cycle_len == phase and s.iteration // cfg.cycle_len < cfg.num_cycles
    ]


def select_min(store: SnapshotStore) -> list[Snapshot]:
    """Snapshots at the learning-rate minima, one per completed cycle."""
    out = _at_phase(store, store.cfg.min_phase)
    if not out:
        raise SelectionError("store holds no snapshots at learning-rate minima")
    return out


def select_mid(store: SnapshotStore) -> list[Snapshot]:
    """Snapshots at the half-amplitude crossings, one per completed cycle."""
    out = _at_phase(store, store.cfg.mid_phase)
    if not out:
        raise SelectionError("store holds no snapshots at half-amplitude crossings")
    return out


def select_window(store: SnapshotStore, s: int) -> list[Snapshot]:
    """Best-validation snapshot among the 2s+1 captures around each minimum.

    Ties break toward the earliest iteration. Cycles whose window was not
    fully captured (typically the final, truncated one) are skipped with a
    warning.
    """
    if s < 0 or 2 * s >= store.cfg.cycle_len:
        raise InputError(
            f"window half-width {s} does not fit a cycle of {store.cfg.cycle_len} iterations"
        )
    idx = _by_iteration(store)
    out = []
    for m in cycle_minima(store.cfg):
        wanted = range(m - s, m + s + 1)
        if m + s >= store.cfg.total_iters or any(t not in idx for t in wanted):
            warnings.warn(
                f"cycle minimum {m}: window [{m - s}, {m + s}] not fully captured, "
                f"cycle skipped"
            )
            continue
        out.append(min((idx[t] for t in wanted), key=lambda sn: (sn.val_nll, sn.iteration)))
    if not out:
        raise SelectionError(f"no complete windows of half-width {s} in store")
    return out


def select_offset(store: SnapshotStore, steps: int) -> list[Snapshot]:
    """Snapshot at (minimum + steps) for each cycle; steps may be negative."""
    if abs(steps) >= store.cfg.cycle_len:
        raise InputError(f"offset {steps} would cross into the next cycle's capture")
    idx = _by_iteration(store)
    out = []
    for m in cycle_minima(store.cfg):
        t = m + steps
        if t >= store.cfg.total_iters:
            warnings.warn(
                f"cycle minimum {m}: offset target {t} beyond run length, cycle skipped"
            )
            continue
        if t not in idx:
            raise SelectionError(f"iteration {t} (minimum {m} {steps:+d}) was not captured")
        out.append(idx[t])
    if not out:
        raise SelectionError(f"no cycles admit offset {steps}")
    return out


def _header_dict(store: SnapshotStore) -> dict:
    return {
        "run_id": store.run_id,
        "seed": store.seed,
        "arch": {
            "layer_sizes": list(store.arch.layer_sizes),
            "hidden_activation": store.arch.hidden_activation,
        },
        "cfg": {
            "alpha_min": store.cfg.alpha_min,
            "alpha_max": store.cfg.alpha_max,
            "cycle_len": store.cfg.cycle_len,
            "total_iters": store.cfg.total_iters,
        },
        "train_fingerprint": store.train_fingerprint,
        "val_fingerprint": store.val_fingerprint,
        "param_count": store.arch.num_params,
        "snapshots": [
            {
                "iteration": s.iteration,
                "lr_at_capture": s.lr_at_capture,
                "train_nll": s.train_nll,
                "val_nll": s.val_nll,
                "tag": s.tag,
            }
            for s in store.snapshots
        ],
    }


def save_store(store: SnapshotStore, path: str | Path) -> None:
    """Write the store: magic, version, JSON header, then raw float64 params.

    The binary carries no timestamps, so identical runs produce identical
    bytes. A `<path>.meta.json` sidecar holds the human-facing run metadata.
    """
    path = Path(path)
    header = json.dumps(_header_dict(store), sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as f:
        f.write(STORE_MAGIC)
        f.write(struct.pack("<H", STORE_VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for snap in store.snapshots:
            f.write(snap.params.values.astype("<f8").tobytes())
    sidecar = {
        "run_id": store.run_id,
        "seed": store.seed,
        "cfg": _header_dict(store)["cfg"],
        "train_fingerprint": store.train_fingerprint,
        "val_fingerprint": store.val_fingerprint,
        "num_snapshots": len(store.snapshots),
        "store_file": path.name,
        # the only timestamp anywhere: the store binary stays byte-reproducible
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_store(path: str | Path) -> SnapshotStore:
    """Read a store written by save_store; round-trips bit-exactly."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < len(STORE_MAGIC):
        raise TruncatedFileError(f"{path}: too short for a store header")
    if buf[: len(STORE_MAGIC)] != STORE_MAGIC:
        raise BadMagicError(f"{path}: not a snapshot store (bad magic bytes)")
    ofs = len(STORE_MAGIC)
    if len(buf) < ofs + 6:
        raise TruncatedFileError(f"{path}: truncated store header")
    (version,) = struct.unpack_from("<H", buf, ofs)
    if version != STORE_VERSION:
        raise BadVersionError(f"{path}: store version {version}, expected {STORE_VERSION}")
    (header_len,) = struct.unpack_from("<I", buf, ofs + 2)
    ofs += 6
    if len(buf) < ofs + header_len:
        raise TruncatedFileError(f"{path}: truncated store header")
    try:
        header = json.loads(buf[ofs : ofs + header_len].decode())
    except ValueError as e:  # also JSONDecodeError, UnicodeDecodeError and over-long integers
        raise FormatError(f"{path}: store header is not valid JSON ({e})") from e
    ofs += header_len

    try:
        arch = MlpArchitecture(
            tuple(header["arch"]["layer_sizes"]), header["arch"]["hidden_activation"]
        )
        cfg = CycleConfig(**header["cfg"])
        snap_meta = list(header["snapshots"])  # a non-iterable fails here, not at len()
        param_count = int(header["param_count"])
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
        raise FormatError(f"{path}: malformed store header ({e})") from e
    if param_count != arch.num_params:
        raise ArchMismatchError(
            f"{path}: header declares {param_count} parameters but architecture "
            f"{arch.layer_sizes} needs {arch.num_params}"
        )
    expected = len(snap_meta) * param_count * 8
    if len(buf) - ofs != expected:
        raise TruncatedFileError(
            f"{path}: parameter payload is {len(buf) - ofs} bytes, expected {expected}"
        )

    snapshots = []
    try:
        for i, meta in enumerate(snap_meta):
            values = np.frombuffer(
                buf, dtype="<f8", count=param_count, offset=ofs + i * param_count * 8
            )
            snapshots.append(
                Snapshot(
                    params=ParamVector(values, arch),
                    iteration=int(meta["iteration"]),
                    lr_at_capture=float(meta["lr_at_capture"]),
                    train_nll=float(meta["train_nll"]),
                    val_nll=float(meta["val_nll"]),
                    tag=meta["tag"],
                )
            )
        return SnapshotStore(
            run_id=header["run_id"],
            arch=arch,
            cfg=cfg,
            seed=int(header["seed"]),
            train_fingerprint=header["train_fingerprint"],
            val_fingerprint=header["val_fingerprint"],
            snapshots=tuple(snapshots),
        )
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
        raise FormatError(f"{path}: malformed store contents ({e})") from e
