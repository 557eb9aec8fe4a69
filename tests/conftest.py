"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from snapstack import (
    CycleConfig,
    Dataset,
    MlpArchitecture,
    ParamVector,
    Snapshot,
    SnapshotStore,
    SplitSpec,
    evaluate_rows,
    lr_at,
    make_blobs,
    member_probs,
    split,
    weighted_mean,
)


@pytest.fixture
def tiny_arch() -> MlpArchitecture:
    return MlpArchitecture((2, 4, 3))


@pytest.fixture
def toy_data() -> Dataset:
    return make_blobs(num_classes=3, per_class=40, dim=2, spread=0.5, seed=7)


def random_params(arch: MlpArchitecture, rng: np.random.Generator, scale: float = 0.8) -> ParamVector:
    return ParamVector(rng.normal(0.0, scale, arch.num_params), arch)


def random_dataset(
    arch: MlpArchitecture, rng: np.random.Generator, m: int = 6
) -> Dataset:
    feats = rng.normal(0.0, 1.0, (m, arch.input_dim))
    labels = rng.integers(0, arch.num_classes, m)
    return Dataset(feats, labels, arch.num_classes)


def ensemble_metrics(snaps: list[Snapshot], weights, data: Dataset):
    """One ensemble's metrics on data: the weighted mean of the members' class
    probabilities under one weight row [K], then evaluate_rows."""
    probs = weighted_mean(member_probs(snaps, data.features), np.asarray(weights)[None])
    return evaluate_rows(probs, data)[0]


def swa_params(snaps: list[Snapshot], weights) -> ParamVector:
    """The snapshots' weighted mean parameter vector under one weight row [K]."""
    values = [s.params.values for s in snaps]
    return ParamVector(weighted_mean(values, weights), snaps[0].params.arch)


def store_from_nlls(
    cfg: CycleConfig,
    arch: MlpArchitecture,
    val_nlls: dict[int, float],
    train_nlls: dict[int, float] | None = None,
) -> SnapshotStore:
    """Synthetic store with prescribed per-iteration validation NLLs."""
    zeros = ParamVector(np.zeros(arch.num_params), arch)
    snaps = [
        Snapshot(params=zeros, iteration=t, train_nll=(train_nlls or val_nlls)[t],
                 val_nll=val_nlls[t])
        for t in sorted(val_nlls)
    ]
    return SnapshotStore(
        arch=arch,
        cfg=cfg,
        seed=0,
        train_fingerprint="",
        val_fingerprint="",
        snapshots=tuple(snaps),
    )


def version_1_store(raw: bytes) -> bytes:
    """The bytes of the store file raw in version 1 of the format: its header also held
    a run id, the hidden activation, and each snapshot's learning rate and capture tag
    (here "window" for each, a tag version 1 accepted at any iteration)."""
    (header_len,) = struct.unpack_from("<I", raw, 10)
    header = json.loads(raw[14 : 14 + header_len])
    header["run_id"] = f"run-{header['seed']}"
    header["arch"]["hidden_activation"] = "relu"
    cfg = CycleConfig(**header["cfg"])
    for meta in header["snapshots"]:
        meta.update(lr_at_capture=lr_at(cfg, meta["iteration"]), tag="window")
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:8] + struct.pack("<HI", 1, len(blob)) + blob + raw[14 + header_len :]


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray):
    """IDX writer fixture: big-endian headers, raw uint8 payloads."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, labels.size) + labels.tobytes())
    return img_path, lbl_path


def quick_split(seed: int = 7):
    data = make_blobs(num_classes=3, per_class=40, dim=2, spread=0.5, seed=seed)
    return split(data, SplitSpec(0.2, seed))
