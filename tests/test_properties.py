"""Property tests: any outside input ends in a value or a SnapstackError, never a traceback."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from snapstack import SnapstackError
from snapstack.harness import cmd_report, config_from_dict

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
CONFIG_KEYS = (
    "dataset", "dataset.kind", "dataset.per_class", "dataset.train_images", "hidden", "cycle",
    "cycle.alpha_min", "cycle.alpha_max", "cycle.cycle_len", "cycle.total_iters", "seed",
    "val_fraction", "batch_size", "window_halfwidth", "offsets", "offset_steps", "tau_grid",
    "n_models_grid", "num_independent", "weighting_source",
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
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), JSON_VALUES | st.just(DELETE), max_size=4))
def test_config_from_dict_value_or_error(overrides):
    outcome(config_from_dict, with_overrides(overrides))


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
