"""Desk-scale simulator of memory-budgeted federated adapter fine-tuning.

Adapters are trained in a sliding window along the frozen backbone
(train-and-freeze chain), each stage optimizing a local head plus a
lambda-weighted global branch; the start layer comes from aggregated
CKA profiles and the window size from device memory budgets.
"""

from .chain import ParamDelta, StageLossConfig, WindowSchedule, local_update, stage_loss
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import (
    ChainConfig,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    FederationConfig,
    ModelConfig,
    OutConfig,
    config_to_dict,
    load_config,
    parse_config,
)
from .data import (
    Dataset,
    DataFormatError,
    deep_readout_dataset,
    load_jsonl_dataset,
    synth_dataset,
    train_eval_split,
)
from .federation import (
    ClientProfile,
    MemReport,
    RoundRecord,
    RunResult,
    aggregate,
    aggregation_weights,
    determine_Q,
    dirichlet_partition,
    estimate_peak_memory,
    iid_partition,
    run,
    sample_clients,
)
from .model import (
    AdapterParams,
    ModelStack,
    StackDims,
    aux_branch_forward,
    backbone_fingerprint,
    build_stack,
    evaluate_accuracy,
    forward_through,
    init_adapter,
    local_loss,
    mark_trainable,
    named_parameters,
)
from .similarity import (
    CKAProfile,
    DegenerateSimilarity,
    aggregate_profiles,
    cka,
    hsic_linear,
    profile_layers,
    select_start_layer,
)
from .tensor import NumericError, ShapeMismatch, Tape, Tensor, backward, no_grad

__version__ = "0.1.0"
