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
    forward_batch,
    init_params,
)
from .schedule import CycleConfig, cycle_minima, lr_at
from .snapshots import (
    Snapshot,
    SnapshotStore,
    load_store,
    plan_captures,
    save_store,
    select,
    train_runs,
)
from .stacking import (
    EvalMetrics,
    evaluate_rows,
    log_likelihoods,
    member_probs,
    swa_probs,
    weighted_mean,
    weights_temperature,
)

__version__ = "0.1.0"
