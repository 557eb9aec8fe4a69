"""Desk-scale datasets: synthetic Gaussian blobs, IDX image loading, splitting."""

from __future__ import annotations

import hashlib
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    CountMismatchError,
    FormatError,
    InputError,
    TruncatedFileError,
)
from .nn import Dataset, _check_labels, _read_only

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class SplitSpec:
    val_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise InputError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


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


def _read_idx(
    images_path: str, labels_path: str, limit: int | None, num_classes: int | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Checked IDX image/label pair: uint8 pixel rows [n, rows * cols], flattened
    row-wise and viewing the file's bytes, int64 labels [n] and the class count."""
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
    labels = np.frombuffer(lbl_payload, dtype=np.uint8, count=take).astype(np.int64)
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return pixels.reshape(take, rows * cols), labels, k


def _scaled(pixels: np.ndarray, parts: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """uint8 pixel rows as a fresh read-only float64 matrix, divided by 255: all of
    them, or the rows of each index array in `parts` one part after another, each
    part gathered on its own."""
    if parts is None:
        feats = pixels.astype(np.float64)
    else:
        feats = np.empty((sum(len(rows) for rows in parts), pixels.shape[1]))
        start = 0
        for rows in parts:
            feats[start : start + len(rows)] = pixels[rows]
            start += len(rows)
    feats /= 255.0
    return _read_only(feats)


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
    pixels, labels, k = _read_idx(images_path, labels_path, limit, num_classes)
    return Dataset(_scaled(pixels), labels, k)


def load_idx_split(
    images_path: str,
    labels_path: str,
    spec: SplitSpec,
    limit: int | None = None,
    num_classes: int | None = None,
) -> tuple[Dataset, Dataset]:
    """`split(load_idx(images_path, labels_path, limit, num_classes), spec)`.

    The same datasets and errors, without the scaled pool in its file order: each
    part's uint8 pixel rows are scaled into the joined matrix in split order.
    """
    pixels, labels, k = _read_idx(images_path, labels_path, limit, num_classes)
    _check_labels(labels, k)  # the pool's label error comes before the split's
    parts = _split_rows(labels.size, spec)
    return _parts(_scaled(pixels, parts), labels, parts, k)


def _split_rows(m: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the (train, validation) parts that `split` takes of m rows."""
    # snap the ceil so 100 * (1 - 0.2) style float noise cannot shift a row
    n_train = math.ceil(m * (1.0 - spec.val_fraction) - 1e-9)
    n_val = m - n_train
    if n_val < 1 or n_val >= n_train:
        raise InputError(
            f"split of {m} rows at fraction {spec.val_fraction} gives "
            f"{n_train} train / {n_val} val; validation must be nonempty and smaller"
        )
    perm = np.random.default_rng(spec.seed).permutation(m)
    return perm[:n_train], perm[n_train:]


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seed-deterministic disjoint train/validation partition.

    Training gets ceil(m * (1 - val_fraction)) rows, validation the rest. Both
    feature matrices are row blocks of one read-only [train; val] matrix.
    """
    parts = _split_rows(data.num_examples, spec)
    joined = _read_only(data.features[np.concatenate(parts)])
    return _parts(joined, data.labels, parts, data.num_classes)


def _parts(
    joined: np.ndarray, labels: np.ndarray, parts: tuple[np.ndarray, np.ndarray], k: int
) -> tuple[Dataset, Dataset]:
    """The (train, validation) datasets over the read-only matrix `joined` of their
    rows in that order: each keeps its block of rows as a view, so a caller that
    scores both sets reads them as one matrix without a copy."""
    n_train = len(parts[0])
    return (
        Dataset(joined[:n_train], labels[parts[0]], k),
        Dataset(joined[n_train:], labels[parts[1]], k),
    )


# the bytes of float64 rows that split_fingerprints scales and hashes at a time
_CHUNK_BYTES = 1 << 20


def split_fingerprints(
    rows: np.ndarray, labels: np.ndarray, num_classes: int, spec: SplitSpec
) -> tuple[str, str]:
    """(fingerprint(train), fingerprint(val)) of `split` of the pool (rows, labels), with
    the same errors, without the pool's float matrix. rows are float64 features, or
    uint8 pixel rows, which are scaled as `load_idx` scales them.

    Each part's rows are gathered in split order, a chunk at a time, into one reused
    float64 buffer whose bytes feed the part's digest.
    """
    _check_labels(labels, num_classes)  # the pool's label error comes before the split's
    parts = _split_rows(labels.size, spec)
    chunk = np.empty((max(1, _CHUNK_BYTES // (8 * rows.shape[1])), rows.shape[1]))

    def scaled_chunks(part):
        for start in range(0, len(part), len(chunk)):
            idx = part[start : start + len(chunk)]
            buf = chunk[: len(idx)]
            buf[...] = rows[idx]
            if rows.dtype == np.uint8:
                buf /= 255.0
            yield buf

    prints = [_digest(num_classes, scaled_chunks(part), labels[part]) for part in parts]
    return prints[0], prints[1]


def _digest(num_classes: int, feature_chunks: Iterable[np.ndarray], labels: np.ndarray) -> str:
    """SHA-256 of the class count, the float64 feature rows chunk by chunk in row order,
    then the int64 labels: the bytes of a dataset's fingerprint."""
    h = hashlib.sha256(str(num_classes).encode())
    for chunk in feature_chunks:
        # hash the C-ordered buffers in place; the bytes are those of tobytes()
        h.update(np.ascontiguousarray(chunk, dtype=np.float64))
    h.update(np.ascontiguousarray(labels, dtype=np.int64))
    return h.hexdigest()


def fingerprint(data: Dataset) -> str:
    """Content hash of a dataset, for store metadata."""
    return _digest(data.num_classes, [data.features], data.labels)
