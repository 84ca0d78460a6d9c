"""Deterministic simulator of decentralized federated learning.

Clients train a shared-architecture model on private data and fuse
models peer-to-peer without a central server, using either mutual
knowledge transfer or one of two model-averaging baselines.
"""

from .data import (
    ClientData,
    Dataset,
    load_idx,
    minibatches,
    partition,
    partition_iid,
    partition_noniid,
    synth_dataset,
    train_val_split,
)
from .errors import ConfigurationError, DefktError, LoadError, NumericalError
from .federation import (
    ClientState,
    CommLog,
    FusionStrategy,
    HyperParams,
    Message,
    RoundPlan,
    build_client_states,
    fuse_combo,
    fuse_defkt,
    fuse_fullavg,
    local_update,
    run_experiment,
    run_round,
    select_round,
)
from .losses import (
    cross_entropy,
    cross_entropy_grad_logits,
    kl_divergence,
    mutual_loss_1,
    mutual_loss_grad_logits,
    softmax,
)
from .metrics import MetricsRecord, emit_csv, evaluate, global_accuracy, local_accuracy, read_csv
from .nn import (
    Batch,
    ModelSpec,
    forward,
    init_params,
    param_count,
    sgd_step,
    split_segments,
)

__version__ = "0.1.0"
