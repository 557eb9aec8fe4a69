"""Desk-scale datasets: synthetic Gaussian blobs, IDX image loading, splitting."""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    CountMismatchError,
    FormatError,
    InputError,
    TruncatedFileError,
)
from .nn import Dataset

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class SplitSpec:
    val_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise InputError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Mark a fresh array read-only so Dataset keeps it instead of copying it."""
    arr.setflags(write=False)
    return arr


def make_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    spread: float,
    seed: int,
    centers_seed: int | None = None,
) -> Dataset:
    """Balanced k-class Gaussian clusters with seed-deterministic geometry.

    Centers are standard-normal and drawn from `centers_seed` (defaults to
    `seed`), noise from `seed` on an independent stream. Passing the same
    centers_seed with a different seed yields a fresh sample from the same
    cluster geometry, which is how held-out test partitions are generated.
    """
    if num_classes < 2:
        raise InputError(f"need at least 2 classes, got {num_classes}")
    if per_class < 1:
        raise InputError(f"per_class must be positive, got {per_class}")
    if dim < 2:
        raise InputError(f"dim must be at least 2, got {dim}")
    if spread <= 0.0:
        raise InputError(f"spread must be positive, got {spread}")
    if centers_seed is None:
        centers_seed = seed
    centers = np.random.default_rng([centers_seed, 0]).normal(0.0, 1.0, (num_classes, dim))
    noise_rng = np.random.default_rng([seed, 1])
    feats = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        rows = slice(c * per_class, (c + 1) * per_class)
        feats[rows] = centers[c] + spread * noise_rng.normal(0.0, 1.0, (per_class, dim))
        labels[rows] = c
    return Dataset(_read_only(feats), labels, num_classes)


def _read_idx_header(buf: bytes, path: str, magic: int, n_dims: int) -> tuple[int, ...]:
    header_len = 4 * (1 + n_dims)
    if len(buf) < 4:
        raise TruncatedFileError(f"{path}: too short for an IDX magic number")
    (got,) = struct.unpack(">I", buf[:4])
    if got != magic:
        raise BadMagicError(f"{path}: magic 0x{got:08x}, expected 0x{magic:08x}")
    if len(buf) < header_len:
        raise TruncatedFileError(f"{path}: truncated IDX header")
    return struct.unpack(f">{n_dims}I", buf[4:header_len])


def load_idx(
    images_path: str,
    labels_path: str,
    limit: int | None = None,
    num_classes: int | None = None,
) -> Dataset:
    """Load an IDX image/label file pair into a flat-feature dataset.

    Pixels are scaled to [0, 1] by division by 255; images are flattened
    row-wise. `limit` truncates to the first `limit` examples.
    """
    if limit is not None and limit < 1:
        raise InputError(f"limit must be positive, got {limit}")

    with open(images_path, "rb") as f:
        img_buf = f.read()
    count, rows, cols = _read_idx_header(img_buf, str(images_path), IDX_IMAGE_MAGIC, 3)
    if count == 0:
        raise FormatError(f"{images_path}: declares 0 images")
    if rows == 0 or cols == 0:
        raise FormatError(f"{images_path}: declares {rows}x{cols}-pixel images")
    payload = memoryview(img_buf)[16:]
    if len(payload) < count * rows * cols:
        raise TruncatedFileError(
            f"{images_path}: payload holds {len(payload)} bytes, "
            f"header declares {count * rows * cols}"
        )

    with open(labels_path, "rb") as f:
        lbl_buf = f.read()
    (lbl_count,) = _read_idx_header(lbl_buf, str(labels_path), IDX_LABEL_MAGIC, 1)
    lbl_payload = memoryview(lbl_buf)[8:]
    if len(lbl_payload) < lbl_count:
        raise TruncatedFileError(
            f"{labels_path}: payload holds {len(lbl_payload)} bytes, "
            f"header declares {lbl_count}"
        )

    if count != lbl_count:
        raise CountMismatchError(
            f"{images_path} declares {count} images but {labels_path} declares "
            f"{lbl_count} labels"
        )

    take = count if limit is None else min(limit, count)
    pixels = np.frombuffer(payload, dtype=np.uint8, count=take * rows * cols)
    feats = pixels.reshape(take, rows * cols).astype(np.float64)
    feats /= 255.0
    labels = np.frombuffer(lbl_payload, dtype=np.uint8, count=take).astype(np.int64)
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return Dataset(_read_only(feats), labels, k)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seed-deterministic disjoint train/validation partition.

    Training gets ceil(m * (1 - val_fraction)) rows, validation the rest.
    """
    m = data.num_examples
    # snap the ceil so 100 * (1 - 0.2) style float noise cannot shift a row
    n_train = math.ceil(m * (1.0 - spec.val_fraction) - 1e-9)
    n_val = m - n_train
    if n_val < 1 or n_val >= n_train:
        raise InputError(
            f"split of {m} rows at fraction {spec.val_fraction} gives "
            f"{n_train} train / {n_val} val; validation must be nonempty and smaller"
        )
    perm = np.random.default_rng(spec.seed).permutation(m)
    tr, va = perm[:n_train], perm[n_train:]
    return (
        Dataset(_read_only(data.features[tr]), data.labels[tr], data.num_classes),
        Dataset(_read_only(data.features[va]), data.labels[va], data.num_classes),
    )


def fingerprint(data: Dataset) -> str:
    """Content hash of a dataset, for store metadata."""
    h = hashlib.sha256()
    h.update(str(data.num_classes).encode())
    # hash the C-ordered buffers in place; the bytes are those of tobytes()
    h.update(np.ascontiguousarray(data.features))
    h.update(np.ascontiguousarray(data.labels))
    return h.hexdigest()
