"""Snapshot ensembles with training-time likelihood stacking, at desk scale.

The exports are loaded on first use (PEP 562), so `import snapstack` and the
CLI's parser load no numpy until a name that needs it is read.
"""

import importlib

__version__ = "0.1.0"

# the exports of each submodule
_MODULES = {
    "data": ("SplitSpec", "fingerprint", "load_idx", "make_blobs", "split"),
    "errors": (
        "ArchMismatchError",
        "BadMagicError",
        "BadVersionError",
        "CountMismatchError",
        "FormatError",
        "InputError",
        "SelectionError",
        "SnapstackError",
        "TrainingError",
        "TruncatedFileError",
    ),
    "nn": ("Dataset", "MlpArchitecture", "ParamVector", "forward_batch", "init_params"),
    "schedule": ("CycleConfig", "cycle_minima", "lr_at"),
    "snapshots": (
        "Snapshot",
        "SnapshotStore",
        "load_store",
        "plan_captures",
        "save_store",
        "select",
        "train_runs",
    ),
    "stacking": (
        "EvalMetrics",
        "evaluate_rows",
        "log_likelihoods",
        "member_probs",
        "swa_probs",
        "weighted_mean",
        "weights_temperature",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # an unknown name raises AttributeError, so `from snapstack import harness`
    # falls through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
