"""Snapshot ensembles with training-time likelihood stacking, at desk scale."""

from .data import SplitSpec, fingerprint, load_idx, make_blobs, split
from .errors import (
    ArchMismatchError,
    BadMagicError,
    BadVersionError,
    CountMismatchError,
    FormatError,
    InputError,
    SelectionError,
    SnapstackError,
    TrainingError,
    TruncatedFileError,
)
from .nn import (
    Dataset,
    MlpArchitecture,
    ParamVector,
    backward,
    forward,
    forward_batch,
    init_params,
    nll_loss,
    sgd_step,
)
from .schedule import CycleConfig, cycle_midpoints, cycle_minima, lr_at
from .snapshots import (
    Snapshot,
    SnapshotStore,
    load_store,
    plan_captures,
    save_store,
    select_mid,
    select_min,
    select_offset,
    select_window,
    train_with_capture,
)
from .stacking import (
    EnsembleModel,
    EvalMetrics,
    WeightingSpec,
    build_ensemble,
    ensemble_predict_batch,
    evaluate,
    swa_average,
    weights_equal,
    weights_inverse_loss,
    weights_temperature,
)

__version__ = "0.1.0"
