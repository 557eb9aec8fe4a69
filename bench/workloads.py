"""Seeded workload generator: one config per workload, plus IDX files for idx784.

Every input the program sees is written here from the workload seed, so the
same seed gives the same bytes. The seed becomes the config `seed` and, for
idx784, the seed of the image generator.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# The tau grid the README config inherits from the program's default; written
# out explicitly so the expected row counts do not depend on a program default.
DEFAULT_TAUS = (0.1, 0.3, 0.5, 0.9, 1.0, 2.0, 5.0, 10.0, 1000.0)
GRID_TAUS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0)

WORKLOADS = ("readme", "idx784", "grid")

WHY = {
    "readme": "README config: per-step Python and numpy-call overhead in training dominates",
    "idx784": "MNIST-shaped IDX data, d=784: dense math, IDX load, capture scoring and store I/O dominate",
    "grid": "README data, 20 short cycles, 15 taus: thousands of cheap sweep cells, call-bound",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    idx_rows: tuple[int, int] | None = None  # (pool rows, test rows) for IDX inputs

    @property
    def num_cycles(self) -> int:
        c = self.config["cycle"]
        return c["total_iters"] // c["cycle_len"]

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        ds = self.config["dataset"]
        dim = 28 * 28 if self.idx_rows is not None else ds["dim"]
        return (dim, *self.config["hidden"], ds["num_classes"])


def _blobs(per_class: int, test_per_class: int) -> dict:
    return {"kind": "blobs", "num_classes": 3, "per_class": per_class, "dim": 6,
            "spread": 1.0, "test_per_class": test_per_class}


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload's config and sizes; `small` is the reduced smoke-test size."""
    if name == "readme":
        cycle_len, cycles = (40, 5) if small else (200, 5)
        return Workload(name, {
            "dataset": _blobs(50, 40) if small else _blobs(250, 200),
            "hidden": [32],
            "cycle": {"alpha_min": 0.05, "alpha_max": 0.5,
                      "cycle_len": cycle_len, "total_iters": cycle_len * cycles},
            "seed": seed,
            "batch_size": 8,
            "window_halfwidth": 2,
            "offsets": [-20, -10, -5, 5, 10, 20],
            "offset_steps": 10,
            "tau_grid": list(DEFAULT_TAUS),
            "num_independent": 2 if small else 5,
        })
    if name == "idx784":
        cycle_len = 40 if small else 100
        rows = (200, 400) if small else (1000, 1000)
        return Workload(name, {
            "dataset": {"kind": "idx", "num_classes": 10,
                        "train_images": "inputs/train-images-idx3-ubyte",
                        "train_labels": "inputs/train-labels-idx1-ubyte",
                        "test_images": "inputs/t10k-images-idx3-ubyte",
                        "test_labels": "inputs/t10k-labels-idx1-ubyte"},
            "hidden": [32],
            "cycle": {"alpha_min": 0.01, "alpha_max": 0.1,
                      "cycle_len": cycle_len, "total_iters": cycle_len * 5},
            "seed": seed,
            "batch_size": 32,
            "window_halfwidth": 2,
            "offsets": [-20, -10, -5, 5, 10, 20],
            "offset_steps": 10,
            "tau_grid": list(DEFAULT_TAUS),
            "num_independent": 2 if small else 5,
        }, idx_rows=rows)
    if name == "grid":
        cycle_len, cycles = (20, 10) if small else (50, 20)
        return Workload(name, {
            "dataset": _blobs(50, 40) if small else _blobs(250, 200),
            "hidden": [32],
            "cycle": {"alpha_min": 0.05, "alpha_max": 0.5,
                      "cycle_len": cycle_len, "total_iters": cycle_len * cycles},
            "seed": seed,
            "batch_size": 8,
            "window_halfwidth": 2,
            "offsets": [-10, -5, -2, 2, 5, 10],
            "offset_steps": 5,
            "tau_grid": list(GRID_TAUS),
            "num_independent": 2 if small else 5,
        })
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def _write_idx_pair(images: np.ndarray, labels: np.ndarray, img_path: Path, lbl_path: Path) -> None:
    """Big-endian IDX headers followed by raw uint8 payloads."""
    n, rows, cols = images.shape
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes())


def _idx_images(rng: np.random.Generator, prototypes: np.ndarray, n: int):
    """Class-structured 28x28 uint8 images: a class prototype plus pixel noise."""
    labels = rng.integers(0, len(prototypes), n).astype(np.uint8)
    noise = rng.normal(0.0, 120.0, (n, 28, 28))
    pixels = np.clip(prototypes[labels] + noise, 0.0, 255.0)
    return pixels.astype(np.uint8), labels


def write_inputs(wl: Workload, work_dir: Path) -> Path:
    """Write the config (and IDX pairs) under work_dir; return the config path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if wl.idx_rows is not None:
        inputs = work_dir / "inputs"
        inputs.mkdir(exist_ok=True)
        rng = np.random.default_rng([wl.config["seed"], 784])
        k = wl.config["dataset"]["num_classes"]
        # one shared stroke pattern; each class flips 1% of its pixels, so the
        # heavy pixel noise keeps test accuracy well below 1 (about 0.87)
        shared = rng.random((28, 28)) < 0.15
        prototypes = np.where(shared ^ (rng.random((k, 28, 28)) < 0.01), 200.0, 20.0)
        ds = wl.config["dataset"]
        pool, test = wl.idx_rows
        for n, img, lbl in ((pool, "train_images", "train_labels"), (test, "test_images", "test_labels")):
            images, labels = _idx_images(rng, prototypes, n)
            _write_idx_pair(images, labels, work_dir / ds[img], work_dir / ds[lbl])
    path = work_dir / "config.json"
    path.write_text(json.dumps(wl.config, indent=2) + "\n")
    return path
