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
not depend on evaluation order or parallel scheduling. A sender's update
reads only its own latest state and its own stream, so run_experiment
submits it as soon as that state is final, at most a round early: on the
run's pool it trains beside the pairs before it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .data import ClientData, Dataset, Rows, minibatches, train_val_split
from .errors import NONNEGATIVE_FINITE, SEED, UNIT_INTERVAL, ConfigurationError, NumericalError, Rule, at_least, check
from .losses import cross_entropy_grad_logits, mutual_loss_grad_logits, softmax
from .metrics import MetricsRecord, Record, Task, evaluation_pool
from .nn import (
    ModelSpec,
    backward_from_cache,
    forward,
    forward_cached,
    init_params,
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
    2 * senders_per_round clients participate in total. Every setting but
    the seed must be given; the reference defaults live in the CLI's key
    table (`defkt.cli._KEYS`), and `RULES` holds each setting's only rule.
    """

    num_clients: int
    senders_per_round: int
    rounds: int
    local_batch_size: int
    local_passes: int
    local_lr: float
    mkt_batch_size: int
    mkt_passes: int
    mkt_lr_received: float
    mkt_lr_local: float
    momentum: float
    seed: int = 0

    RULES = {
        "num_clients": at_least(2, "need at least 2 clients"),
        "senders_per_round": at_least(0, "must be nonnegative"),
        **dict.fromkeys(("rounds", "mkt_passes"), at_least(0)),
        **dict.fromkeys(("local_batch_size", "mkt_batch_size", "local_passes"), at_least(1)),
        **dict.fromkeys(("local_lr", "mkt_lr_received", "mkt_lr_local"), NONNEGATIVE_FINITE),
        "momentum": UNIT_INTERVAL,
        "seed": SEED,
    }

    def __post_init__(self):
        for field_name, rule in self.RULES.items():
            check(self._setting_name(field_name), getattr(self, field_name), rule)
        clients = f"{self._setting_name('num_clients')} ({self.num_clients})"
        check(self._setting_name("senders_per_round"), self.senders_per_round,
              Rule(lambda senders: 2 * senders <= self.num_clients, f"twice its value must not exceed {clients}"))

    def _setting_name(self, field_name: str) -> str:
        """How a check's message names a setting: its field here, its config key in RunConfig."""
        return field_name


@dataclass
class ClientState:
    """One client's current model parameters and private data; its id is its key in a run's states."""

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
    """Per-run count of transmitted scalars."""

    def __init__(self):
        self.total_scalars = 0

    def record(self, message: Message) -> None:
        self.total_scalars += int(message.payload.size)


def select_round(num_clients: int, senders_per_round: int, round_index: int, master_seed: int) -> RoundPlan:
    """Draw 2Q distinct client ids without replacement; first Q send, next Q receive."""
    check("senders_per_round", senders_per_round, Rule(
        lambda senders: 2 * senders <= num_clients, f"twice its value must not exceed num_clients ({num_clients})"))
    rng = derive_rng(master_seed, SELECT_STREAM, round_index)
    drawn = rng.permutation(num_clients)[: 2 * senders_per_round] + 1
    return RoundPlan(
        round_index=round_index,
        senders=tuple(int(c) for c in drawn[:senders_per_round]),
        receivers=tuple(int(c) for c in drawn[senders_per_round:]),
    )


class _Trainee:
    """A model in training, on vectors its update owns: a gradient, a velocity and a result vector.

    The update allocates them once, on its calling thread: the gradient and
    velocity as rows of one scratch block (which also holds the dropped local
    model's result in fuse_defkt), any other result at the first step. The
    first step reads the given vector and writes the result, and later steps
    update the result in place, so the given vector is never written.

    Both placements keep glibc from trimming the heap's top between calls,
    which made each call fault its vectors afresh: separate vectors freed
    together, or a result allocated before the first forward.

    forward keeps a cache only for a step that follows. Without keep
    (fuse_defkt's skipped local step) it runs nn.forward, whose logits are
    bitwise forward_cached's.
    """

    def __init__(self, params: np.ndarray, lr: float, momentum: float, scratch: np.ndarray, result=None):
        self.params, self._lr, self._momentum, self._cache = params, lr, momentum, None
        self._grad, self._velocity = scratch
        self._velocity.fill(0.0)
        self._result = result

    def forward(self, spec: ModelSpec, batch, keep: bool = True) -> np.ndarray:
        """The batch's soft predictions; with keep, the forward cache is kept for step."""
        if not keep:
            return softmax(forward(spec, self.params, batch))
        logits, self._cache = forward_cached(spec, self.params, batch)
        return softmax(logits)

    def step(self, spec: ModelSpec, grad_logits: np.ndarray) -> None:
        """One momentum-SGD step back through the last forward."""
        cache, self._cache = self._cache, None
        backward_from_cache(spec, self.params, cache, grad_logits, self._grad)
        if self._result is None:
            self._result = np.empty(self.params.size)
        self.params = sgd_step(self.params, self._grad, self._velocity, self._lr, self._momentum, self._result)


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
    client's stored model is replaced by the fine-tuned one, a fresh vector.
    """
    model = _Trainee(client.params, lr, momentum, np.empty((2, client.params.size)))
    for _ in range(passes):
        for batch in minibatches(client.data.train, batch_size, rng):
            model.step(spec, cross_entropy_grad_logits(model.forward(spec, batch), batch.labels, reduction))
    return replace(client, params=model.params)


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
    pool=None,
) -> np.ndarray:
    """Mutual knowledge transfer on the receiver's training set.

    For each minibatch both models' soft predictions are computed from
    their pre-step parameters; then each model takes one momentum-SGD step
    on its own loss (cross-entropy plus KL toward the other's predictions,
    the other's treated as a constant target). The updates are therefore
    simultaneous, not alternating. Returns the final received-model
    parameters, which the receiver stores in place of its own. The local
    model is discarded, so its step on the last minibatch of the last pass
    is not taken. Its prediction on that minibatch goes through nn.forward
    and keeps no forward cache, so a one-batch call (each of cnn-pairs'
    fusions) never holds two caches.

    Because the steps are simultaneous, the two models' halves of a
    minibatch are independent once both predictions are in. The local
    model's half is two tasks (metrics.Task) of rows x spec.macs_per_row
    each, its forward and then its backward and step, while this thread
    runs the received model's half; on `pool` when they reach the gate.
    This thread makes a task no pool thread has started, and no task
    outlives the call. The bits are those of the serial loop.
    """
    scratch = np.empty((5, received.size))
    receiving = _Trainee(received, lr_received, momentum, scratch[:2])
    teaching = _Trainee(local, lr_local, momentum, scratch[2:4], scratch[4])
    n_train = len(receiver_data.train)
    half = None
    try:
        for pass_index in range(passes):
            last_pass = pass_index == passes - 1
            for count, batch in enumerate(minibatches(receiver_data.train, batch_size, rng), start=1):
                local_steps = not (last_pass and count * batch_size >= n_train)
                work = len(batch) * spec.macs_per_row
                half = Task(pool, work, teaching.forward, spec, batch, local_steps)
                probs_r = receiving.forward(spec, batch)
                probs_l = half.result()
                if local_steps:
                    grad_l = mutual_loss_grad_logits(probs_l, probs_r, batch.labels, reduction)
                    half = Task(pool, work, teaching.step, spec, grad_l)
                receiving.step(spec, mutual_loss_grad_logits(probs_r, probs_l, batch.labels, reduction))
                half.result()  # the local step, or the forward again when the step is skipped
    finally:
        if half is not None:
            half.discard()
    return receiving.params


def _weighted_average(a: np.ndarray, b: np.ndarray, n_a: int, n_b: int, out: np.ndarray) -> np.ndarray:
    """Write (n_a * a + n_b * b) / (n_a + n_b) into `out`, by the same IEEE operations in the same order."""
    np.multiply(a, n_a, out=out)
    out += n_b * b
    out /= n_a + n_b
    return out


def fuse_fullavg(received: np.ndarray, local: np.ndarray, n_sender: int, n_receiver: int) -> np.ndarray:
    """Sample-count-weighted average of two full parameter vectors."""
    if received.shape != local.shape:
        raise ConfigurationError("cannot average parameter vectors of different lengths")
    return _weighted_average(received, local, n_sender, n_receiver, np.empty(received.shape))


def fuse_combo(
    sender_params: np.ndarray, receiver_params: np.ndarray, n_sender: int, n_receiver: int
) -> tuple[np.ndarray, np.ndarray]:
    """Complementary segment exchange with weighted segment averaging.

    Both vectors are split at the midpoint. The sender keeps its trailing
    segment and stores the weighted average of the leading segments; the
    receiver keeps its leading segment and stores the weighted average of
    the trailing segments. Returns (new_sender_params, new_receiver_params),
    two fresh vectors; neither input is written.
    """
    if sender_params.shape != receiver_params.shape:
        raise ConfigurationError("cannot fuse parameter vectors of different lengths")
    lead_s, trail_s = split_segments(sender_params)
    lead_r, trail_r = split_segments(receiver_params)
    cut = lead_s.size
    new_sender, new_receiver = np.empty(sender_params.shape), np.empty(sender_params.shape)
    _weighted_average(lead_s, lead_r, n_sender, n_receiver, new_sender[:cut])
    new_sender[cut:] = trail_s
    new_receiver[:cut] = lead_r
    _weighted_average(trail_s, trail_r, n_sender, n_receiver, new_receiver[cut:])
    return new_sender, new_receiver


def _wrap_numerical(round_index: int, client_id: int, exc: NumericalError) -> NumericalError:
    return NumericalError(f"round {round_index}, client {client_id}: {exc}")


def _sender_update(
    state: ClientState, sender_id: int, round_index: int, hyper: HyperParams, spec: ModelSpec, reduction: str
) -> ClientState:
    """The sender's local update for the round, on its own RNG stream; a NumericalError names the round and client."""
    rng = derive_rng(hyper.seed, LOCAL_STREAM, round_index, sender_id)
    try:
        return local_update(
            state, spec, hyper.local_batch_size, hyper.local_passes, hyper.local_lr, hyper.momentum, rng, reduction,
        )
    except NumericalError as exc:
        raise _wrap_numerical(round_index, sender_id, exc) from exc


def _fuse_pair(
    states: dict[int, ClientState], sender_id: int, receiver_id: int, sender: ClientState, round_index: int,
    strategy: FusionStrategy, hyper: HyperParams, spec: ModelSpec, comm: CommLog, reduction: str, pool,
) -> None:
    """A pair's turn once `sender` holds the sender's updated state: it transmits, the receiver fuses, and both
    clients' new states are stored in `states`."""
    receiver = states[receiver_id]
    n_sender, n_receiver = len(sender.data.train), len(receiver.data.train)
    if strategy is FusionStrategy.COMBO:
        _, trailing = split_segments(sender.params)
        leading, _ = split_segments(receiver.params)
        comm.record(Message(sender_id, receiver_id, "trailing-segment", trailing))
        comm.record(Message(receiver_id, sender_id, "leading-segment", leading))
        sender_params, fused = fuse_combo(sender.params, receiver.params, n_sender, n_receiver)
        sender = replace(sender, params=sender_params)
    elif strategy is FusionStrategy.FULLAVG:
        comm.record(Message(sender_id, receiver_id, "params", sender.params))
        fused = fuse_fullavg(sender.params, receiver.params, n_sender, n_receiver)
    else:
        comm.record(Message(sender_id, receiver_id, "params", sender.params))
        rng = derive_rng(hyper.seed, MKT_STREAM, round_index, receiver_id)
        try:
            fused = fuse_defkt(
                sender.params, receiver.params, receiver.data, spec,
                hyper.mkt_batch_size, hyper.mkt_passes,
                hyper.mkt_lr_received, hyper.mkt_lr_local, hyper.momentum, rng, reduction, pool,
            )
        except NumericalError as exc:
            raise _wrap_numerical(round_index, receiver_id, exc) from exc
    states[sender_id] = sender
    states[receiver_id] = replace(receiver, params=fused)


def run_round(
    states: dict[int, ClientState],
    plan: RoundPlan,
    strategy: FusionStrategy,
    hyper: HyperParams,
    spec: ModelSpec,
    comm: CommLog | None = None,
    reduction: str = "mean",
) -> dict[int, ClientState]:
    """Execute one round and return the updated client states: the serial one-round reference.

    Each pair in turn: the sender runs its local update (_sender_update)
    and stores the fine-tuned model, transmits it (only its trailing
    segment under segment exchange, answered by the receiver's leading
    segment), and the receiver applies the fusion strategy; under segment
    exchange the sender's model is updated too (_fuse_pair). Pairs are
    disjoint and RNG streams are keyed by client, so the pair order changes
    no result. Other clients are untouched. Pairs run one after another,
    all on the calling thread. run_experiment runs the same two steps pair
    by pair, with its sender updates started early.
    """
    new_states = dict(states)
    comm = CommLog() if comm is None else comm
    for sender_id, receiver_id in plan.pairs():
        sender = _sender_update(new_states[sender_id], sender_id, plan.round_index, hyper, spec, reduction)
        _fuse_pair(new_states, sender_id, receiver_id, sender, plan.round_index, strategy, hyper, spec, comm,
                   reduction, None)
    return new_states


def build_client_states(
    spec: ModelSpec, shards: list[Rows], hyper: HyperParams
) -> dict[int, ClientState]:
    """Split each shard 80/20 and give every client the one initial vector (nothing writes it)."""
    if len(shards) != hyper.num_clients:
        raise ConfigurationError(
            f"got {len(shards)} shards for {hyper.num_clients} clients"
        )
    shared = init_params(spec, derive_seed(hyper.seed, INIT_STREAM))
    states: dict[int, ClientState] = {}
    for k, shard in enumerate(shards, start=1):
        split = train_val_split(shard, derive_seed(hyper.seed, SPLIT_STREAM, k))
        states[k] = ClientState(params=shared, data=split)
    return states


def run_experiment(
    spec: ModelSpec,
    hyper: HyperParams,
    strategy: FusionStrategy,
    clients: dict[int, ClientState],
    test_data: Dataset,
    eval_every: int = 10,
    reduction: str = "mean",
) -> tuple[list[MetricsRecord], dict[int, ClientState]]:
    """Run `hyper.rounds` rounds, evaluating on a schedule.

    Metrics are recorded at round 0 (the shared initial model), every
    eval_every rounds, and at the final round. Returns the metrics
    timeline and the final client states.

    Every round's plan is drawn first, once and in round order, and each
    round's pairs run in turn as in run_round. A record's evaluations
    (metrics.Record), fuse_defkt's local-model halves and the senders'
    updates are tasks (metrics.Task), each on the run's pool (if
    evaluation_pool opens one) when its own work reaches the gate. A task
    reads a client's state only once it is final, by one rule: round 0 is
    the run's start and touches no one; when round t opens, the record
    whose window (rounds t to the next record point) starts there adds the
    clients that window leaves untouched, then the round-(t+1) updates of
    senders that round t leaves free are submitted; after each pair of
    round t, its clients' round-(t+1) updates are submitted, then the
    record adds those of its clients whose last touch in the window is
    round t. So an update runs at most a round ahead (at most 2Q are
    outstanding), and a record is collected once the next window has run,
    or after the final round.

    A sender's update is taken in its turn; while a pool thread still makes
    it, the trainer takes over queued tasks rather than wait: the other
    updates, oldest first, then records' evaluations. The timeline is
    bitwise that of evaluating each record in place. Input errors a record
    would raise are raised before round 1; any task's error is raised when
    its result is taken, so errors come in round and pair order; no task
    outlives the call.
    """
    check("eval_every", eval_every, at_least(1))
    states, comm = dict(clients), CommLog()
    points = [*range(0, hyper.rounds, eval_every), hyper.rounds]
    plans = [RoundPlan(0, (), ())]  # plans[t] is round t's plan; round 0 is the run's start and touches no one
    plans += [select_round(hyper.num_clients, hyper.senders_per_round, t, hyper.seed)
              for t in range(1, hyper.rounds + 1)]
    timeline, pending = [], []  # pending: (round, record, scalars) of each record not yet collected
    updates = {}  # sender -> the task making its next update, in submission order
    with evaluation_pool(spec, states, test_data) as pool:

        def submit_update(s: int) -> None:
            """Submit sender s's update for round t + 1 (t is the round that runs)."""
            work = min(hyper.local_batch_size, len(states[s].data.train)) * spec.train_macs_per_row
            updates[s] = Task(pool, work, _sender_update, states[s], s, t + 1, hyper, spec, reduction)

        for t, plan in enumerate(plans):
            if t == 0 or t - 1 in points:  # a record's window, rounds t to the next record point, opens
                window = plans[t:next(p for p in points if p >= t) + 1]
                last_touch = {k: r.round_index for r in window for k in r.senders + r.receivers}
                record = Record(pool, spec, test_data, len(states))
                for k in sorted(states.keys() - last_touch.keys()):
                    record.add(k, states[k])
            following = plans[t + 1].senders if t < hyper.rounds else ()
            for s in following:
                if s not in plan.senders + plan.receivers:
                    submit_update(s)
            for pair in plan.pairs():
                sender_id, receiver_id = pair
                helping = [task for _, before, _ in pending for task in before.tasks]
                sender = updates.pop(sender_id).result([*helping, *record.tasks, *reversed(updates.values())])
                _fuse_pair(states, sender_id, receiver_id, sender, t, strategy, hyper, spec, comm, reduction, pool)
                for s in following:
                    if s in pair:
                        submit_update(s)
                for k in sorted(k for k in pair if last_touch[k] == t):
                    record.add(k, states[k])
            if t in points:  # the record is complete: the one before it is collected, and at the end this one too
                pending.append((t, record, comm.total_scalars))
                while len(pending) > (t < hyper.rounds):
                    r, done, scalars = pending.pop(0)
                    timeline.append(MetricsRecord(r, strategy.value, hyper.seed, *done.collect(), scalars))
    return timeline, states
