"""Property tests: any outside input ends in a value or a SnapstackError, never a traceback.

Outside inputs are config dicts, report CSVs, snapshot stores and IDX file pairs.
"""

import json
import struct
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from conftest import store_from_nlls, write_idx_pair
from snapstack import (
    CycleConfig,
    MlpArchitecture,
    SnapstackError,
    load_idx,
    load_store,
    save_store,
    select,
)
from snapstack.experiment import config_from_dict
from snapstack.harness import cmd_report
from snapstack.snapshots import STORE_MAGIC

# derandomized and bounded, so the suite stays deterministic and quick
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def outcome(fn, *args):
    try:
        return fn(*args)
    except SnapstackError as e:
        return e


BASE_CONFIG = {
    "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 10, "dim": 2, "spread": 0.5},
    "hidden": [4],
    "cycle": {"alpha_min": 0.01, "alpha_max": 0.1, "cycle_len": 10, "total_iters": 30},
    "seed": 0,
}
IDX_DATASET = {"kind": "idx", "train_images": "a", "train_labels": "b", "test_images": "c",
               "test_labels": "d"}
CONFIG_KEYS = (
    "dataset", "dataset.kind", "dataset.num_classes", "dataset.per_class", "dataset.dim",
    "dataset.spread", "dataset.test_per_class", "dataset.limit", "dataset.test_limit",
    "dataset.train_images", "dataset.test_images", "hidden", "cycle",
    "cycle.alpha_min", "cycle.alpha_max", "cycle.cycle_len", "cycle.total_iters", "seed",
    "val_fraction", "batch_size", "window_halfwidth", "offsets", "offset_steps", "tau_grid",
    "n_models_grid", "num_independent", "weighting_source", "tau_gird", "cycle.typo",
    "dataset.bogus",
)
DELETE = object()

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e999, -1e999, float("nan"), -1, 0, 10**400]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def with_overrides(overrides: dict) -> dict:
    raw = {k: dict(v) if isinstance(v, dict) else v for k, v in BASE_CONFIG.items()}
    for key, value in overrides.items():
        *parent, name = key.split(".")
        target = raw.get(parent[0]) if parent else raw
        if not isinstance(target, dict):
            continue  # the parent was deleted or replaced by a non-object
        if value is DELETE:
            target.pop(name, None)
        else:
            target[name] = value
    return raw


@PROPERTY
@given(
    st.sampled_from([BASE_CONFIG["dataset"], IDX_DATASET]),
    st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES | st.just(DELETE), max_size=4),
)
def test_config_from_dict_value_or_error(dataset, overrides):
    # either dataset kind as the base, so the overrides reach each kind's keys
    outcome(config_from_dict, with_overrides({"dataset": dict(dataset), **overrides}))


CSV_COLUMNS = ["model", "tau", "accuracy", "mean_nll"]
CSV_CELLS = st.sampled_from(["0.5", "1", "nan", "-inf", "", "x", '"a,b"', '"', "min, eq"])


@st.composite
def csv_bytes(draw):
    columns = draw(st.permutations(CSV_COLUMNS))
    header = columns[draw(st.integers(0, len(columns))):]
    rows = draw(st.lists(st.lists(CSV_CELLS, max_size=6), max_size=4))
    text = "\n".join(",".join(line) for line in [header, *rows]).encode()
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.binary(max_size=3)) + text[at:]


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report")


@PROPERTY
@given(payload=csv_bytes())
def test_report_value_or_error(report_dir, payload):
    path = report_dir / "in.csv"
    path.write_bytes(payload)
    outcome(cmd_report, [path], report_dir / "report.md")


# byte edits: (kind, position, bytes); a position wraps to the buffer length, and
# half of them land in the first 24 bytes, where the binary headers are
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["set", "insert", "delete", "truncate"]),
        st.integers(min_value=0, max_value=23) | st.integers(min_value=0, max_value=10**6),
        st.binary(min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=4,
)


def edited(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, pos, chunk in edits:
        at = pos % (len(buf) + 1)
        if kind == "set":
            buf[at : at + len(chunk)] = chunk
        elif kind == "insert":
            buf[at:at] = chunk
        elif kind == "delete":
            del buf[at : at + len(chunk)]
        else:
            del buf[at:]
    return bytes(buf)


@pytest.fixture(scope="module")
def store_file(tmp_path_factory):
    """A valid two-snapshot store: its path, bytes, and where its JSON header ends."""
    cfg = CycleConfig(0.01, 0.1, 5, 10)
    store = store_from_nlls(cfg, MlpArchitecture((2, 3, 2)), {4: 0.5, 9: 0.4})
    path = tmp_path_factory.mktemp("store") / "store.snap"
    save_store(store, path)
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, len(STORE_MAGIC) + 2)
    return path, data, len(STORE_MAGIC) + 6 + header_len


@PROPERTY
@given(edits=EDITS)
def test_load_store_bytes_value_or_error(store_file, edits):
    path, data, _ = store_file
    mutant = path.with_name("mutant.snap")
    mutant.write_bytes(edited(data, edits))
    outcome(load_store, mutant)


HEADER_PATHS = (
    "seed", "arch", "arch.layer_sizes", "arch.layer_sizes.0", "arch.layer_sizes.2", "cfg",
    "cfg.alpha_min", "cfg.alpha_max", "cfg.cycle_len", "cfg.total_iters", "train_fingerprint",
    "param_count", "snapshots", "snapshots.0", "snapshots.0.iteration",
    "snapshots.1.iteration", "snapshots.0.train_nll", "snapshots.1.val_nll",
)
HEADER_VALUES = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-2, max_value=4) | st.none(), max_size=3),
    st.sampled_from([float("nan"), float("inf"), 2**70, -(2**70), -1, 0, 1.5, 10.0]),
    st.builds(dict),  # a fresh object per draw: a shared one would be nested into itself
)


def substituted(header: dict, path: str, value):
    *parents, name = path.split(".")
    target = header
    for part in parents:
        target = target[int(part)] if isinstance(target, list) else target[part]
    target[int(name) if isinstance(target, list) else name] = value


@PROPERTY
@given(st.dictionaries(st.sampled_from(HEADER_PATHS), HEADER_VALUES, min_size=1, max_size=3))
@example(overrides={"cfg.total_iters": 2**70})
def test_load_store_header_value_or_error(store_file, overrides):
    path, data, header_end = store_file
    start = len(STORE_MAGIC) + 6
    header = json.loads(data[start:header_end])
    for key, value in overrides.items():
        try:
            substituted(header, key, value)
        except (KeyError, IndexError, TypeError, ValueError):
            pass  # an earlier override replaced a parent of this path
    encoded = json.dumps(header).encode()
    mutant = path.with_name("header.snap")
    mutant.write_bytes(
        data[: len(STORE_MAGIC) + 2] + struct.pack("<I", len(encoded)) + encoded + data[header_end:]
    )
    store = outcome(load_store, mutant)
    if not isinstance(store, SnapstackError):
        outcome(select, store, "min")
        outcome(select, store, "mid")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # skipped cycles warn
            outcome(select, store, "window", 1)
            outcome(select, store, "offset", 1)
            outcome(select, store, "offset", -1)


@pytest.fixture(scope="module")
def idx_pair(tmp_path_factory):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (6, 2, 3), dtype=np.uint8)
    labels = rng.integers(0, 3, 6, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path_factory.mktemp("idx"), images, labels)
    return img, lbl, img.read_bytes(), lbl.read_bytes()


LIMITS = st.none() | st.integers(min_value=-2, max_value=8) | st.just(2**70)


@PROPERTY
@given(
    image_edits=st.none() | EDITS,
    label_edits=st.none() | EDITS,
    limit=LIMITS,
    num_classes=LIMITS,
)
def test_load_idx_value_or_error(idx_pair, image_edits, label_edits, limit, num_classes):
    img, lbl, img_bytes, lbl_bytes = idx_pair
    img_mutant, lbl_mutant = img.with_name("img.mutant"), lbl.with_name("lbl.mutant")
    img_mutant.write_bytes(img_bytes if image_edits is None else edited(img_bytes, image_edits))
    lbl_mutant.write_bytes(lbl_bytes if label_edits is None else edited(lbl_bytes, label_edits))
    outcome(load_idx, str(img_mutant), str(lbl_mutant), limit, num_classes)
