"""Capture, tag, select, and serialize snapshot models along one training run."""

from __future__ import annotations

import json
import math
import numbers
import os
import struct
import warnings
import zlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import get_type_hints

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

TAGS = ("min", "mid", "window", "offset")

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
        json_kind(int, self.iteration, "iteration")  # the store holds it as a JSON integer
        if self.iteration < 0:
            raise InputError(f"iteration must be non-negative, got {self.iteration}")
        if self.tag not in TAGS:
            raise InputError(f"unknown snapshot tag {self.tag!r}, expected one of {TAGS}")
        for name in ("lr_at_capture", "train_nll", "val_nll"):
            v = getattr(self, name)
            # the store holds it as a JSON number, which a bool is not; a numpy number
            # is kept as the float it equals, which JSON can write
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise InputError(f"snapshot {name} must be a number, got {v!r}")
            try:
                v = float(v)
            except OverflowError:  # an integer too large for a float
                v = math.inf
            if not math.isfinite(v):
                raise InputError(f"snapshot {name} must be finite, got {v}")
            setattr(self, name, v)
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
        "run_id": store.run_id,
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


# the JSON kind of each cfg key: the type of its CycleConfig field
_CFG_KINDS = get_type_hints(CycleConfig)


def _field(obj, key: str, hint: type):
    """obj[key] of a store header, which must be of the JSON kind hint takes (json_kind)."""
    return json_kind(hint, obj[key], repr(key))


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
            raise BadVersionError(f"{path}: store version {version}, expected {STORE_VERSION}")
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

        try:
            sizes = header["arch"]["layer_sizes"]
            arch = MlpArchitecture(tuple(json_kind(int, s, "a layer size") for s in sizes))
            activation = header["arch"]["hidden_activation"]
            if activation != HIDDEN_ACTIVATION:
                raise InputError(f"unsupported hidden activation: {activation!r}")
            cfg = CycleConfig(**header["cfg"])
            for key, hint in _CFG_KINDS.items():  # CycleConfig takes a bool as a number
                json_kind(hint, getattr(cfg, key), f"cfg.{key}")
            snap_meta = list(header["snapshots"])  # a non-iterable fails here, not at len()
            param_count = _field(header, "param_count", int)
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
                snapshots.append(
                    Snapshot(
                        params=_StoredParams(payload, i),
                        iteration=_field(meta, "iteration", int),
                        lr_at_capture=float(_field(meta, "lr_at_capture", float)),
                        train_nll=float(_field(meta, "train_nll", float)),
                        val_nll=float(_field(meta, "val_nll", float)),
                        tag=_field(meta, "tag", str),
                    )
                )
            return SnapshotStore(
                run_id=_field(header, "run_id", str),
                arch=arch,
                cfg=cfg,
                seed=_field(header, "seed", int),
                train_fingerprint=_field(header, "train_fingerprint", str),
                val_fingerprint=_field(header, "val_fingerprint", str),
                snapshots=tuple(snapshots),
            )
        except (KeyError, TypeError, ValueError, OverflowError, InputError) as e:
            raise FormatError(f"{path}: malformed store contents ({e})") from e
