"""Capture, select, and serialize snapshot models along one training run."""

from __future__ import annotations

import json
import os
import struct
import warnings
import zlib
from collections.abc import Iterable
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .data import fingerprint
from .errors import (
    POLICIES,
    ArchMismatchError,
    BadMagicError,
    BadVersionError,
    FormatError,
    InputError,
    SelectionError,
    TrainingError,
    TruncatedFileError,
    json_kind,
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

STORE_MAGIC = b"SNAPSTOR"
STORE_VERSION = 2


@dataclass
class Snapshot:
    """Captured parameters plus the training-time stats used for weighting."""

    params: ParamVector
    iteration: int
    train_nll: float
    val_nll: float

    def __post_init__(self):
        # the store header holds each number as the plain one JSON writes
        self.iteration = json_kind(int, self.iteration, "iteration")
        if self.iteration < 0:
            raise InputError(f"iteration must be non-negative, got {self.iteration}")
        for name in ("train_nll", "val_nll"):
            setattr(self, name, json_kind(float, getattr(self, name), f"snapshot {name}"))
        if self.train_nll < 0.0 or self.val_nll < 0.0:
            raise InputError("snapshot NLLs must be non-negative")


@dataclass
class SnapshotStore:
    """Immutable record of one training run's captured snapshots."""

    arch: MlpArchitecture
    cfg: CycleConfig
    seed: int
    train_fingerprint: str
    val_fingerprint: str
    snapshots: tuple[Snapshot, ...]

    def __post_init__(self):
        for name, hint in (("seed", int), ("train_fingerprint", str), ("val_fingerprint", str)):
            setattr(self, name, json_kind(hint, getattr(self, name), name))
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")
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
) -> set[int]:
    """Capture iterations of every policy: each policy's targets around each rate
    minimum (`_shifts`: the minima, the half-amplitude points, the window and each
    offset), and the final iterate. Targets past the run's end are dropped here; the
    selections later skip those cycles with a warning."""
    shifts = {*_shifts(cfg, "window", window_halfwidth), *_shifts(cfg, "min+mid")}
    shifts.update(d for steps in offsets for d in _shifts(cfg, "offset", steps))
    plan = {m + d for m in cycle_minima(cfg) for d in shifts if m + d < cfg.total_iters}
    plan.add(cfg.total_iters - 1)
    return plan


def train_runs(
    arch: MlpArchitecture, data: Dataset, val: Dataset, cfg: CycleConfig,
    seeds: list[int], capture_plans: list[Iterable[int]], batch_size: int,
) -> list[SnapshotStore]:
    """One SGD run under the cyclical schedule per (seed, plan) pair, snapshotting
    the planned iterations; the runs step together, their parameters stacked [R, P].

    Each plan is an iterable of iterations, as `plan_captures` builds it. Snapshots
    record the parameters right after that iteration's update, with mean NLL
    evaluated on the full training and validation sets. Each store is
    deterministic given (arch, data, val, cfg, seed, plan) and equals, bit for
    bit, the store of its pair trained alone.

    A run whose parameters go non-finite raises TrainingError naming the first
    such iteration and its seed (the first diverged run's, when several diverge
    there). The loop checks the parameters only at checkpoints (see `_descend`);
    when one fails, the runs are stepped again from the start with the check after
    every step, which finds that iteration. A finite run pays for no replay.
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
    plans = [{json_kind(int, t, "capture iteration") for t in plan} for plan in capture_plans]
    for t in (t for plan in plans for t in plan):
        if not 0 <= t < cfg.total_iters:
            raise InputError(f"capture iteration {t} outside [0, {cfg.total_iters})")

    pending = _descend(arch, data, cfg, seeds, plans, batch_size, every_step=False)
    if pending is None:  # a checkpoint saw a non-finite parameter; this replay raises
        pending = _descend(arch, data, cfg, seeds, plans, batch_size, every_step=True)
    # captured parameters are immutable, so scoring can wait until the loop is
    # done; one forward per snapshot covers both evaluation sets, and the
    # snapshots of every run share the blocked forward in capture order
    m = data.num_examples
    features = _stacked_rows(data.features, val.features)
    labels = np.concatenate([data.labels, val.labels])
    probs = forward_each((params for runs in pending for _, params in runs), features)
    prints = fingerprint(data), fingerprint(val)
    stores = []
    for seed, runs in zip(seeds, pending):
        captured = []
        for t, params in runs:
            nlls = _example_nll(next(probs), labels)
            captured.append(Snapshot(params, t, float(nlls[:m].mean()), float(nlls[m:].mean())))
        stores.append(SnapshotStore(arch, cfg, seed, *prints, tuple(captured)))
    return stores


def _descend(
    arch: MlpArchitecture, data: Dataset, cfg: CycleConfig, seeds: list[int],
    plans: list[set[int]], batch_size: int, every_step: bool,
) -> list[list[tuple[int, ParamVector]]] | None:
    """The SGD loop of `train_runs`: each run's captures as (iteration, parameters)
    in iteration order, or None when a checkpoint finds a non-finite parameter.

    The checkpoints are the last step of each pass over the data, each planned
    capture (before its parameters are copied) and the last iteration. Inf and NaN
    minus anything stay non-finite, so `values -= grad` keeps every divergence
    until the next checkpoint sees it. With `every_step`, the check runs after
    every step instead and raises TrainingError at the first iteration that left
    a non-finite value.
    """
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
    checkpoints = planned | {cfg.total_iters - 1}
    shuffle_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]  # apart from init
    pos = m  # the first step draws each run's first shuffle
    pending: list[list[tuple[int, ParamVector]]] = [[] for _ in seeds]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
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
            if (every_step or pos >= m or t in checkpoints) and not np.isfinite(
                values, out=finite
            ).all():
                if not every_step:
                    return None
                r = int(np.argmin(finite.all(axis=-1)))
                raise TrainingError(f"training diverged at iteration {t} (seed {seeds[r]})")
            if t in planned:
                for r, plan in enumerate(plans):
                    if t in plan:
                        pending[r].append((t, ParamVector(values[r], arch)))
    return pending


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
    """The store's JSON header: each field of the store and of its snapshots but their
    parameters, which follow as raw bytes, and the parameter count."""
    header = {f.name: getattr(store, f.name) for f in fields(SnapshotStore)}
    header["arch"] = asdict(store.arch)
    header["cfg"] = asdict(store.cfg)
    header["param_count"] = store.arch.num_params
    # asdict would deep-copy each snapshot's payload through params
    meta = [f.name for f in fields(Snapshot) if f.name != "params"]
    header["snapshots"] = [{name: getattr(s, name) for name in meta} for s in store.snapshots]
    return header


def save_store(store: SnapshotStore, path: str | Path) -> None:
    """Write the store: magic, version, JSON header, then raw float64 params.

    The binary carries no timestamps, so identical runs produce identical
    bytes. A `<path>.meta.json` sidecar holds the human-facing run metadata.
    """
    path = Path(path)
    header = _header_dict(store)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    # written beside path, then renamed over it: a store loaded from path reads its
    # payload from that file while this runs, so it must not be truncated in place
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.write(STORE_MAGIC)
            f.write(struct.pack("<H", STORE_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for snap in store.snapshots:  # the array's own buffer, when it is already "<f8"
                f.write(np.ascontiguousarray(snap.params.values, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    sidecar = {
        "seed": store.seed,
        "cfg": header["cfg"],
        "train_fingerprint": store.train_fingerprint,
        "val_fingerprint": store.val_fingerprint,
        "num_snapshots": len(store.snapshots),
        "store_file": path.name,
        # the only timestamp anywhere: the store binary stays byte-reproducible
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


class _Payload:
    """The parameter payload of a loaded store file, read one snapshot at a time.

    `load_store` records the file's identity and size and a CRC-32 of each snapshot's
    bytes; each read checks all three, so a file replaced, truncated or rewritten
    since the load raises FormatError instead of giving other parameters.
    """

    def __init__(self, path, stat: os.stat_result, offset: int, arch: MlpArchitecture):
        self.path, self.offset, self.arch = path, offset, arch
        self.file = os.path.abspath(path)  # the same file after a change of directory
        self.identity = (stat.st_dev, stat.st_ino, stat.st_size)
        self.crcs: list[int] = []  # one per snapshot, appended by load_store

    def read(self, i: int) -> np.ndarray:
        values = np.empty(self.arch.num_params, dtype="<f8")
        with open(self.file, "rb", buffering=0) as f:
            stat = os.fstat(f.fileno())
            if (stat.st_dev, stat.st_ino, stat.st_size) != self.identity:
                raise FormatError(f"{self.path}: store file changed since it was loaded")
            f.seek(self.offset + i * values.nbytes)
            if f.readinto(values) != values.nbytes:
                raise TruncatedFileError(f"{self.path}: parameter payload ended early")
        if zlib.crc32(values) != self.crcs[i]:
            raise FormatError(f"{self.path}: store file changed since it was loaded")
        # the bytes load_store checked; kept as they are where "<f8" is the native float64
        return _read_only(values.astype(np.float64, copy=False))


class _StoredParams(ParamVector):
    """A loaded snapshot's parameters, left in the store file: `values` reads them on
    each use and nothing keeps them, so a loaded store holds no payload."""

    def __init__(self, payload: _Payload, index: int):
        self._payload, self._index, self.arch = payload, index, payload.arch

    @property
    def values(self) -> np.ndarray:
        return self._payload.read(self._index)


def load_store(path: str | Path) -> SnapshotStore:
    """Read a store written by save_store; round-trips bit-exactly.

    Every check runs here: the header, then each snapshot's parameters in turn,
    streamed through one reused buffer. The store keeps none of them: a snapshot's
    `params.values` reads its payload from the file on each use, and the file must
    not change while the store is in use.
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
            raise BadVersionError(
                f"{path}: store version {version}, expected {STORE_VERSION}; "
                f"rerun train to rebuild it"
            )
        ofs = len(STORE_MAGIC) + 6
        stat = os.fstat(f.fileno())
        size = stat.st_size
        if size < ofs + header_len:
            raise TruncatedFileError(f"{path}: truncated store header")
        try:
            header = json.loads(f.read(header_len).decode())
        except ValueError as e:  # also JSONDecodeError, UnicodeDecodeError and over-long integers
            raise FormatError(f"{path}: store header is not valid JSON ({e})") from e
        ofs += header_len

        # the dataclasses are the header's schema: each refuses a missing or unknown key
        # and a value of another JSON kind. ** and {**} take only a JSON object
        try:
            header = {**header}
            arch = MlpArchitecture(**header.pop("arch"))
            cfg = CycleConfig(**header.pop("cfg"))
            snap_meta = list(header.pop("snapshots"))  # a non-iterable fails here, not at len()
            param_count = json_kind(int, header.pop("param_count"), "param_count")
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

        payload = _Payload(path, stat, ofs, arch)
        values = np.empty(param_count, dtype="<f8")
        snapshots = []
        try:
            for i, meta in enumerate(snap_meta):
                if f.readinto(values) != values.nbytes:
                    raise TruncatedFileError(f"{path}: parameter payload ended early")
                if not np.isfinite(values).all():  # ParamVector's check and message
                    raise InputError("parameter vector contains non-finite values")
                payload.crcs.append(zlib.crc32(values))
                snapshots.append(Snapshot(_StoredParams(payload, i), **meta))
            return SnapshotStore(arch=arch, cfg=cfg, snapshots=tuple(snapshots), **header)
        except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
            raise FormatError(f"{path}: malformed store contents ({e})") from e
