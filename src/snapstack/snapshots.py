"""Capture, tag, select, and serialize snapshot models along one training run."""

from __future__ import annotations

import json
import os
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
    Workspace,
    _check_fits,
    _example_nll,
    _grad,
    _layers,
    _read_only,
    forward_each,
    init_params,
)
from .schedule import CycleConfig, cycle_minima, lr_at

TAGS = ("min", "mid", "window", "offset")
POLICIES = ("min", "mid", "min+mid", "window", "offset")

STORE_MAGIC = b"SNAPSTOR"
STORE_VERSION = 1
HIDDEN_ACTIVATION = "relu"  # the MLP's only one; the header names it


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


def _shifts(cfg: CycleConfig, policy: str, arg: int = 0) -> list[int]:
    """A policy's capture targets as ascending shifts from a cycle's rate minimum: min 0,
    mid mid_phase - min_phase, min+mid both (once at cycle_len 2, where they meet),
    window -arg..arg, offset arg. Every shift lies in (-cycle_len, cycle_len), so a
    minimum's targets fall in its cycle or the next."""
    if policy == "window":
        if arg < 0 or 2 * arg >= cfg.cycle_len:
            raise InputError(
                f"window half-width {arg} does not fit a cycle of {cfg.cycle_len} iterations"
            )
        return list(range(-arg, arg + 1))
    if policy == "offset":
        if abs(arg) >= cfg.cycle_len:
            raise InputError(f"offset {arg} would cross into the next cycle's capture")
        return [arg]
    mid = cfg.mid_phase - cfg.min_phase
    shifts = {"min": [0], "mid": [mid], "min+mid": sorted({mid, 0})}
    if policy not in shifts:
        raise InputError(f"unknown policy {policy!r}, expected one of {POLICIES}")
    return shifts[policy]


def plan_captures(
    cfg: CycleConfig, window_halfwidth: int = 0, offsets: Iterable[int] = ()
) -> dict[int, str]:
    """Capture iterations of every policy, with tags: the rate minima, the
    half-amplitude points, the final iterate, and any windows and offsets.

    When an iteration serves several policies it keeps the most specific tag:
    min over mid over offset over window. Out-of-range window/offset targets
    are dropped here; the selections later skip those cycles with a warning.
    """
    targets = [("window", _shifts(cfg, "window", window_halfwidth))]
    targets += [("offset", _shifts(cfg, "offset", steps)) for steps in offsets]
    targets += [("mid", _shifts(cfg, "mid")), ("min", _shifts(cfg, "min"))]
    minima = cycle_minima(cfg)
    plan: dict[int, str] = {}
    for tag, shifts in targets:  # later tags overwrite earlier ones
        for m in minima:
            plan.update((m + d, tag) for d in shifts if m + d < cfg.total_iters)
    plan.setdefault(cfg.total_iters - 1, "window")
    return plan


def train_runs(
    arch: MlpArchitecture, data: Dataset, val: Dataset, cfg: CycleConfig,
    seeds: list[int], capture_plans: list[Mapping[int, str]], batch_size: int,
) -> list[SnapshotStore]:
    """One SGD run under the cyclical schedule per (seed, plan) pair, snapshotting
    the planned iterations; the runs step together, their parameters stacked [R, P].

    Each plan maps iteration -> tag, as `plan_captures` builds it. Snapshots
    record the parameters right after that iteration's update, with mean NLL
    evaluated on the full training and validation sets. Each store is
    deterministic given (arch, data, val, cfg, seed, plan) and equals, bit for
    bit, the store of its pair trained alone.
    """
    if not len(seeds) == len(capture_plans) >= 1:
        raise InputError(
            f"need one capture plan per seed and at least one run, got {len(seeds)} "
            f"seed(s) and {len(capture_plans)} plan(s)"
        )
    _check_fits(data, arch, "train set")
    _check_fits(val, arch, "validation set")
    if batch_size < 1:
        raise InputError(f"batch_size must be positive, got {batch_size}")
    plans = [{int(t): tag for t, tag in plan.items()} for plan in capture_plans]
    for t, tag in (item for plan in plans for item in plan.items()):
        if tag not in TAGS:
            raise InputError(f"unknown capture tag {tag!r}")
        if not 0 <= t < cfg.total_iters:
            raise InputError(f"capture iteration {t} outside [0, {cfg.total_iters})")

    # the loop steps a raw array in place through layer views built once: a
    # ParamVector copies and re-checks its values, which only the captures need.
    # The gradient, the finiteness mask and each minibatch size's workspace (its
    # input rows, one-hot label rows and every array of the step) are allocated
    # here, so a step makes no array that grows with the model or the batch
    values = np.stack([init_params(arch, seed).values for seed in seeds])
    layers = _layers(values, arch.layer_sizes)
    grad = np.empty_like(values)
    grad_layers = _layers(grad, arch.layer_sizes)
    finite = np.empty(values.shape, dtype=bool)
    m = data.num_examples
    minibatch = np.empty((len(seeds), min(batch_size, m), data.dim))
    onehot = np.eye(arch.num_classes)[data.labels]
    spaces: dict[int, Workspace] = {}  # by minibatch size: full, and short at the end of a pass
    rates = [lr_at(cfg, t) for t in range(cfg.cycle_len)]  # the rate depends on the phase only
    planned = set().union(*plans)
    shuffle_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]  # apart from init
    pos = m  # the first step draws each run's first shuffle
    pending: list[list[tuple[int, float, ParamVector]]] = [[] for _ in seeds]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence raises below
        for t in range(cfg.total_iters):
            if pos >= m:
                orders = np.stack([rng.permutation(m) for rng in shuffle_rngs])
                pos = 0
            idx = orders[:, pos : pos + batch_size]
            pos += batch_size
            ws = spaces.get(idx.shape[1])
            if ws is None:
                ws = spaces[idx.shape[1]] = Workspace(layers, minibatch[:, : idx.shape[1]])
            # the indices are a permutation's, so clip never moves one; the default
            # mode="raise" would gather into a temporary and copy that into `out`
            data.features.take(idx, axis=0, out=ws.x, mode="clip")
            onehot.take(idx, axis=0, out=ws.targets, mode="clip")
            lr = rates[t % cfg.cycle_len]
            _grad(layers, ws, grad_layers)
            grad *= lr  # then values -= grad: the bits of values -= lr * grad
            values -= grad
            if not np.isfinite(values, out=finite).all():
                r = int(np.argmin(finite.all(axis=-1)))
                raise TrainingError(f"training diverged at iteration {t} (seed {seeds[r]})")
            if t in planned:
                for r, plan in enumerate(plans):
                    if t in plan:
                        pending[r].append((t, lr, ParamVector(values[r], arch)))

    del grad, grad_layers, finite, minibatch, onehot, spaces, ws
    # captured parameters are immutable, so scoring can wait until the loop is
    # done; one forward per snapshot covers both evaluation sets, and the
    # snapshots of every run share the blocked forward in capture order
    features = _stacked_rows(data.features, val.features)
    labels = np.concatenate([data.labels, val.labels])
    probs = forward_each((params for runs in pending for _, _, params in runs), features)
    prints = fingerprint(data), fingerprint(val)
    stores = []
    for seed, plan, runs in zip(seeds, plans, pending):
        captured = []
        for t, lr, params in runs:
            nlls = _example_nll(next(probs), labels)
            train_nll, val_nll = float(nlls[:m].mean()), float(nlls[m:].mean())
            captured.append(Snapshot(params, t, lr, train_nll, val_nll, plan[t]))
        stores.append(SnapshotStore(f"run-{seed}", arch, cfg, seed, *prints, tuple(captured)))
    return stores


def _stacked_rows(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """[top; bottom]: the array both view when they are its two row blocks in order,
    as `split` leaves a training and a validation set, and otherwise a copy."""
    base = top.base
    if (
        isinstance(base, np.ndarray)
        and base is bottom.base
        and base.dtype == np.float64
        and all(a.flags.c_contiguous for a in (base, top, bottom))
        and base.shape == (len(top) + len(bottom), *top.shape[1:])
        and top.ctypes.data == base.ctypes.data
        and bottom.ctypes.data == top.ctypes.data + top.nbytes
    ):
        return base
    return np.vstack([top, bottom])


def _cycles(store: SnapshotStore, policy: str, arg: int = 0) -> tuple[list, int | None]:
    """(minimum, [snapshot or None at each policy target]) per completed cycle the
    snapshots reach, in order, and the first unreached cycle's minimum or None. Targets
    lie in a minimum's cycle or the next: cost follows the snapshot count, not run length."""
    length, phase, count = store.cfg.cycle_len, store.cfg.min_phase, store.cfg.num_cycles
    shifts = _shifts(store.cfg, policy, arg)
    idx = {s.iteration: s for s in store.snapshots}
    near = {c for t in idx for c in (t // length - 1, t // length)}
    reached = sorted(c for c in near if 0 <= c < count)
    walk = [(m, [idx.get(m + d) for d in shifts]) for m in (c * length + phase for c in reached)]
    gap = next((c for c, r in enumerate(reached) if c != r), len(reached))
    return walk, (gap * length + phase if gap < count else None)


def select(store: SnapshotStore, policy: str, arg: int = 0) -> list[Snapshot]:
    """The snapshots of one policy in POLICIES, in iteration order. arg is the
    half-width for window and the steps (possibly negative) for offset; the others
    ignore it.

    min, mid and min+mid take every captured target: a snapshot at each rate
    minimum, each half-amplitude crossing, or both, and skip a missing one silently.
    window takes the best-validation snapshot among the 2*arg+1 captures around each
    minimum, ties toward the earliest iteration; a cycle whose window was not fully
    captured (typically the final, truncated one) is skipped with a warning, and the
    cycles no snapshot reaches with one warning for all of them. offset takes the
    snapshot at minimum + arg and raises if one is missing, except past the run's end.
    """
    walk, gap = _cycles(store, policy, arg)
    out = []
    if policy == "window":
        for m, snaps in walk:
            if any(sn is None for sn in snaps):
                warnings.warn(
                    f"cycle minimum {m}: window [{m - arg}, {m + arg}] not fully captured, "
                    f"cycle skipped"
                )
                continue
            out.append(min(snaps, key=lambda sn: (sn.val_nll, sn.iteration)))
        if gap is not None:
            warnings.warn(
                f"no snapshot reaches {store.cfg.num_cycles - len(walk)} cycle(s), the first "
                f"with minimum {gap}; cycles skipped"
            )
        if not out:
            raise SelectionError(f"no complete windows of half-width {arg} in store")
        return out
    if policy == "offset":
        if gap is not None:  # the first unreached cycle fails, or is the last and runs past the end
            walk = [(m, snaps) for m, snaps in walk if m < gap] + [(gap, [None])]
        for m, (snap,) in walk:
            t = m + arg
            if t >= store.cfg.total_iters:
                warnings.warn(
                    f"cycle minimum {m}: offset target {t} beyond run length, cycle skipped"
                )
                continue
            if snap is None:
                raise SelectionError(f"iteration {t} (minimum {m} {arg:+d}) was not captured")
            out.append(snap)
        if not out:
            raise SelectionError(f"no cycles admit offset {arg}")
        return out
    out = [snap for _, snaps in walk for snap in snaps if snap is not None]
    if not out:
        names = {"min": "learning-rate minima", "mid": "half-amplitude crossings"}
        where = " or ".join(names[half] for half in policy.split("+"))
        raise SelectionError(f"store holds no snapshots at {where}")
    return out


def _header_dict(store: SnapshotStore) -> dict:
    return {
        "run_id": store.run_id,
        "seed": store.seed,
        "arch": {
            "layer_sizes": list(store.arch.layer_sizes),
            "hidden_activation": HIDDEN_ACTIVATION,
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
        for snap in store.snapshots:  # the array's own buffer, when it is already "<f8"
            f.write(np.ascontiguousarray(snap.params.values, dtype="<f8"))
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
    """Read a store written by save_store; round-trips bit-exactly.

    The header is read first, then each snapshot's parameters in turn, so the
    file is never held whole next to the parameter vectors made from it.
    """
    with open(path, "rb") as f:
        buf = f.read(len(STORE_MAGIC))
        if len(buf) < len(STORE_MAGIC):
            raise TruncatedFileError(f"{path}: too short for a store header")
        if buf != STORE_MAGIC:
            raise BadMagicError(f"{path}: not a snapshot store (bad magic bytes)")
        buf = f.read(6)
        if len(buf) < 6:
            raise TruncatedFileError(f"{path}: truncated store header")
        version, header_len = struct.unpack("<HI", buf)
        if version != STORE_VERSION:
            raise BadVersionError(f"{path}: store version {version}, expected {STORE_VERSION}")
        ofs = len(STORE_MAGIC) + 6
        size = os.fstat(f.fileno()).st_size
        if size < ofs + header_len:
            raise TruncatedFileError(f"{path}: truncated store header")
        try:
            header = json.loads(f.read(header_len).decode())
        except ValueError as e:  # also JSONDecodeError, UnicodeDecodeError and over-long integers
            raise FormatError(f"{path}: store header is not valid JSON ({e})") from e
        ofs += header_len

        try:
            arch = MlpArchitecture(tuple(header["arch"]["layer_sizes"]))
            activation = header["arch"]["hidden_activation"]
            if activation != HIDDEN_ACTIVATION:
                raise InputError(f"unsupported hidden activation: {activation!r}")
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
        if size - ofs != expected:
            raise TruncatedFileError(
                f"{path}: parameter payload is {size - ofs} bytes, expected {expected}"
            )

        snapshots = []
        try:
            for meta in snap_meta:
                values = np.empty(param_count, dtype="<f8")
                if f.readinto(values) != values.nbytes:
                    raise TruncatedFileError(f"{path}: parameter payload ended early")
                snapshots.append(
                    Snapshot(
                        # kept as it is where "<f8" is the native float64
                        params=ParamVector(_read_only(values), arch),
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
