"""Decentralized training protocol: round scheduling, local updates, model fusion.

A round draws two disjoint client sets of size Q. Senders run local
SGD over their private data and transmit; each paired receiver fuses the
received model with its own using the configured strategy. Fusion is one
of: mutual knowledge transfer (the received and local models teach each
other on the receiver's data before the received one is kept), weighted
full-vector averaging, or complementary segment exchange with weighted
segment averaging.

The whole state trajectory is a pure function of (config, master seed):
RNG streams are derived per (seed, purpose, round, client), so results do
not depend on evaluation order or parallel scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import ClientData, Dataset, minibatches, train_val_split
from .errors import ConfigurationError, NumericalError
from .losses import cross_entropy_grad_logits, mutual_loss_grad_logits, softmax
from .metrics import MetricsRecord, global_accuracy, local_accuracy
from .nn import (
    ModelSpec,
    MomentumState,
    backward_from_cache,
    forward_cached,
    init_params,
    join_segments,
    sgd_step,
    split_segments,
)
from .seeding import derive_rng, derive_seed

# RNG stream purpose tags; fixed so trajectories are stable across versions.
SELECT_STREAM = "round-select"
LOCAL_STREAM = "local-update"
MKT_STREAM = "mutual-knowledge-transfer"
SPLIT_STREAM = "train-val-split"
INIT_STREAM = "model-init"


class FusionStrategy(str, Enum):
    DEFKT = "defkt"
    FULLAVG = "fullavg"
    COMBO = "combo"


@dataclass
class HyperParams:
    """Protocol settings for one run.

    senders_per_round is the number of transmitting clients per round;
    2 * senders_per_round clients participate in total. The default
    participation rate of 20% corresponds to senders_per_round =
    ceil(num_clients / 10).
    """

    num_clients: int
    senders_per_round: int
    rounds: int
    local_batch_size: int = 200
    local_passes: int = 1
    local_lr: float = 0.01
    mkt_batch_size: int = 200
    mkt_passes: int = 1
    mkt_lr_received: float = 0.01
    mkt_lr_local: float = 0.01
    momentum: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_clients < 2:
            raise ConfigurationError("need at least 2 clients")
        if self.senders_per_round < 0 or 2 * self.senders_per_round > self.num_clients:
            raise ConfigurationError(
                f"2 * senders_per_round must not exceed num_clients "
                f"({2 * self.senders_per_round} > {self.num_clients})"
            )
        if self.rounds < 0:
            raise ConfigurationError("rounds must be nonnegative")
        if self.local_batch_size < 1 or self.mkt_batch_size < 1:
            raise ConfigurationError("batch sizes must be at least 1")
        if self.local_passes < 1 or self.mkt_passes < 0:
            raise ConfigurationError("local_passes must be >= 1 and mkt_passes >= 0")
        for name in ("local_lr", "mkt_lr_received", "mkt_lr_local"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError("momentum must lie in [0, 1)")


@dataclass
class ClientState:
    """One client: id, current model parameters, private data."""

    client_id: int
    params: np.ndarray
    data: ClientData


@dataclass(frozen=True)
class RoundPlan:
    """Disjoint sender/receiver id sets for one round, paired positionally."""

    round_index: int
    senders: tuple[int, ...]
    receivers: tuple[int, ...]

    def __post_init__(self):
        if len(self.senders) != len(self.receivers):
            raise ConfigurationError("sender and receiver sets must have equal size")
        if set(self.senders) & set(self.receivers):
            raise ConfigurationError("sender and receiver sets must be disjoint")
        if len(set(self.senders)) != len(self.senders) or len(set(self.receivers)) != len(self.receivers):
            raise ConfigurationError("client ids within a round must be distinct")

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.senders, self.receivers))


@dataclass(frozen=True)
class Message:
    """A delivered peer-to-peer message carrying model parameters or a segment."""

    sender: int
    receiver: int
    kind: str  # "params", "leading-segment" or "trailing-segment"
    payload: np.ndarray


class CommLog:
    """Per-run count of transmitted scalars.

    Delivered messages, payloads included, are kept in delivery order only
    when keep_messages is set (used by tests that inspect the message
    layer); long runs keep the count only.
    """

    def __init__(self, keep_messages: bool = False):
        self.keep_messages = keep_messages
        self.messages: list[Message] = []
        self.total_scalars = 0

    def record(self, message: Message) -> None:
        self.total_scalars += int(message.payload.size)
        if self.keep_messages:
            self.messages.append(message)


def select_round(num_clients: int, senders_per_round: int, round_index: int, master_seed: int) -> RoundPlan:
    """Draw 2Q distinct client ids without replacement; first Q send, next Q receive."""
    if 2 * senders_per_round > num_clients:
        raise ConfigurationError(
            f"cannot draw {2 * senders_per_round} distinct clients from {num_clients}"
        )
    rng = derive_rng(master_seed, SELECT_STREAM, round_index)
    drawn = rng.permutation(num_clients)[: 2 * senders_per_round] + 1
    return RoundPlan(
        round_index=round_index,
        senders=tuple(int(c) for c in drawn[:senders_per_round]),
        receivers=tuple(int(c) for c in drawn[senders_per_round:]),
    )


def local_update(
    client: ClientState,
    spec: ModelSpec,
    batch_size: int,
    passes: int,
    lr: float,
    momentum: float,
    rng: np.random.Generator,
    reduction: str = "mean",
) -> ClientState:
    """`passes` full passes of minibatch momentum SGD on plain cross-entropy.

    The velocity starts at zero and is carried through all passes; the
    client's stored model is replaced by the fine-tuned one.
    """
    params = client.params
    state = MomentumState.zeros(params.size, momentum)
    for _ in range(passes):
        for batch in minibatches(client.data.train, batch_size, rng):
            logits, cache = forward_cached(spec, params, batch)
            grad_logits = cross_entropy_grad_logits(softmax(logits), batch.labels, reduction)
            grad = backward_from_cache(spec, params, cache, grad_logits)
            params, state = sgd_step(params, grad, state, lr)
    return replace(client, params=params)


def fuse_defkt(
    received: np.ndarray,
    local: np.ndarray,
    receiver_data: ClientData,
    spec: ModelSpec,
    batch_size: int,
    passes: int,
    lr_received: float,
    lr_local: float,
    momentum: float,
    rng: np.random.Generator,
    reduction: str = "mean",
) -> np.ndarray:
    """Mutual knowledge transfer on the receiver's training set.

    For each minibatch both models' soft predictions are computed from
    their pre-step parameters; then each model takes one momentum-SGD step
    on its own loss (cross-entropy plus KL toward the other's predictions,
    the other's treated as a constant target). The updates are therefore
    simultaneous, not alternating. Returns the final received-model
    parameters, which the receiver stores in place of its own. The local
    model is discarded, so its step on the last minibatch of the last pass
    is not taken.
    """
    w_received = received
    w_local = local
    state_received = MomentumState.zeros(w_received.size, momentum)
    state_local = MomentumState.zeros(w_local.size, momentum)
    n_train = len(receiver_data.train)
    for pass_index in range(passes):
        last_pass = pass_index == passes - 1
        for count, batch in enumerate(minibatches(receiver_data.train, batch_size, rng), start=1):
            logits_r, cache_r = forward_cached(spec, w_received, batch)
            logits_l, cache_l = forward_cached(spec, w_local, batch)
            probs_r = softmax(logits_r)
            probs_l = softmax(logits_l)
            grad_r = backward_from_cache(
                spec, w_received, cache_r,
                mutual_loss_grad_logits(probs_r, probs_l, batch.labels, reduction),
            )
            w_received, state_received = sgd_step(w_received, grad_r, state_received, lr_received)
            if last_pass and count * batch_size >= n_train:
                break
            grad_l = backward_from_cache(
                spec, w_local, cache_l,
                mutual_loss_grad_logits(probs_l, probs_r, batch.labels, reduction),
            )
            w_local, state_local = sgd_step(w_local, grad_l, state_local, lr_local)
    return w_received


def fuse_fullavg(received: np.ndarray, local: np.ndarray, n_sender: int, n_receiver: int) -> np.ndarray:
    """Sample-count-weighted average of two full parameter vectors."""
    if received.shape != local.shape:
        raise ConfigurationError("cannot average parameter vectors of different lengths")
    return (n_sender * received + n_receiver * local) / (n_sender + n_receiver)


def fuse_combo(
    sender_params: np.ndarray, receiver_params: np.ndarray, n_sender: int, n_receiver: int
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary segment exchange with weighted segment averaging.

    Both vectors are split at the midpoint. The sender keeps its trailing
    segment and stores the weighted average of the leading segments; the
    receiver keeps its leading segment and stores the weighted average of
    the trailing segments. Returns (new_sender_params, new_receiver_params).
    """
    if sender_params.shape != receiver_params.shape:
        raise ConfigurationError("cannot fuse parameter vectors of different lengths")
    lead_s, trail_s = split_segments(sender_params)
    lead_r, trail_r = split_segments(receiver_params)
    total = n_sender + n_receiver
    avg_lead = (n_sender * lead_s + n_receiver * lead_r) / total
    avg_trail = (n_sender * trail_s + n_receiver * trail_r) / total
    return join_segments(avg_lead, trail_s), join_segments(lead_r, avg_trail)


def _wrap_numerical(round_index: int, client_id: int, exc: NumericalError) -> NumericalError:
    return NumericalError(f"round {round_index}, client {client_id}: {exc}")


def run_round(
    states: dict[int, ClientState],
    plan: RoundPlan,
    strategy: FusionStrategy,
    hyper: HyperParams,
    spec: ModelSpec,
    comm: CommLog | None = None,
    reduction: str = "mean",
) -> dict[int, ClientState]:
    """Execute one round and return the updated client states.

    Phase 1: every sender runs its local update and stores the fine-tuned
    model, then transmits (the full vector, or its trailing segment under
    segment exchange). Phase 2: every receiver applies the fusion
    strategy; under segment exchange the sender's model is updated too.
    Non-participating clients are untouched.
    """
    new_states = dict(states)
    deliveries: list[Message] = []
    for sender_id, receiver_id in plan.pairs():
        rng = derive_rng(hyper.seed, LOCAL_STREAM, plan.round_index, sender_id)
        try:
            updated = local_update(
                new_states[sender_id], spec, hyper.local_batch_size, hyper.local_passes,
                hyper.local_lr, hyper.momentum, rng, reduction,
            )
        except NumericalError as exc:
            raise _wrap_numerical(plan.round_index, sender_id, exc) from exc
        new_states[sender_id] = updated
        if strategy is FusionStrategy.COMBO:
            _, trailing = split_segments(updated.params)
            deliveries.append(Message(sender_id, receiver_id, "trailing-segment", trailing))
        else:
            deliveries.append(Message(sender_id, receiver_id, "params", updated.params))
    for message in deliveries:
        if comm is not None:
            comm.record(message)
        sender_id, receiver_id = message.sender, message.receiver
        receiver = new_states[receiver_id]
        n_sender = len(new_states[sender_id].data.train)
        n_receiver = len(receiver.data.train)
        if strategy is FusionStrategy.DEFKT:
            rng = derive_rng(hyper.seed, MKT_STREAM, plan.round_index, receiver_id)
            try:
                fused = fuse_defkt(
                    message.payload, receiver.params, receiver.data, spec,
                    hyper.mkt_batch_size, hyper.mkt_passes,
                    hyper.mkt_lr_received, hyper.mkt_lr_local, hyper.momentum, rng, reduction,
                )
            except NumericalError as exc:
                raise _wrap_numerical(plan.round_index, receiver_id, exc) from exc
            new_states[receiver_id] = replace(receiver, params=fused)
        elif strategy is FusionStrategy.FULLAVG:
            fused = fuse_fullavg(message.payload, receiver.params, n_sender, n_receiver)
            new_states[receiver_id] = replace(receiver, params=fused)
        else:
            reply = Message(receiver_id, sender_id, "leading-segment", split_segments(receiver.params)[0])
            if comm is not None:
                comm.record(reply)
            sender_params, receiver_params = fuse_combo(
                new_states[sender_id].params, receiver.params, n_sender, n_receiver
            )
            new_states[sender_id] = replace(new_states[sender_id], params=sender_params)
            new_states[receiver_id] = replace(receiver, params=receiver_params)
    return new_states


def build_client_states(
    spec: ModelSpec, shards: list[Dataset], hyper: HyperParams, split_fraction: float = 0.8
) -> dict[int, ClientState]:
    """Split each shard 80/20 and initialize every client with one shared model."""
    if len(shards) != hyper.num_clients:
        raise ConfigurationError(
            f"got {len(shards)} shards for {hyper.num_clients} clients"
        )
    shared = init_params(spec, derive_seed(hyper.seed, INIT_STREAM))
    states: dict[int, ClientState] = {}
    for k, shard in enumerate(shards, start=1):
        split = train_val_split(shard, split_fraction, derive_seed(hyper.seed, SPLIT_STREAM, k))
        states[k] = ClientState(client_id=k, params=shared.copy(), data=split)
    return states


def run_experiment(
    spec: ModelSpec,
    hyper: HyperParams,
    strategy: FusionStrategy,
    clients: dict[int, ClientState],
    test_data: Dataset,
    eval_every: int = 10,
    reduction: str = "mean",
    comm: CommLog | None = None,
) -> tuple[list[MetricsRecord], dict[int, ClientState]]:
    """Run `hyper.rounds` rounds, evaluating on a schedule.

    Metrics are recorded at round 0 (the shared initial model), every
    eval_every rounds, and at the final round. Returns the metrics
    timeline and the final client states.
    """
    if eval_every < 1:
        raise ConfigurationError("eval_every must be at least 1")
    states = dict(clients)
    if comm is None:
        comm = CommLog()

    def record(round_index: int) -> MetricsRecord:
        return MetricsRecord(
            round=round_index,
            strategy=strategy.value,
            seed=hyper.seed,
            global_acc=global_accuracy(states, spec, test_data),
            local_acc=local_accuracy(states, spec),
            scalars_transmitted=comm.total_scalars,
        )

    timeline = [record(0)]
    for round_index in range(1, hyper.rounds + 1):
        plan = select_round(hyper.num_clients, hyper.senders_per_round, round_index, hyper.seed)
        states = run_round(states, plan, strategy, hyper, spec, comm=comm, reduction=reduction)
        if round_index % eval_every == 0 or round_index == hyper.rounds:
            timeline.append(record(round_index))
    return timeline, states
