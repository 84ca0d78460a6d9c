"""Protocol tests: round selection, local updates, the three fusions, full runs."""

import numpy as np
import pytest

from defkt.data import ClientData, synth_dataset, train_val_split
from defkt.errors import ConfigurationError, NumericalError
from defkt.federation import (
    LOCAL_STREAM,
    ClientState,
    CommLog,
    FusionStrategy,
    HyperParams,
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
from defkt.losses import cross_entropy, cross_entropy_grad_logits, mutual_loss_grad_logits, softmax
from defkt.metrics import evaluate
from defkt.nn import Batch, ModelSpec, MomentumState, backward, forward, init_params, param_count, sgd_step
from defkt.seeding import derive_rng


SPEC = ModelSpec.mlp(6, (5,), 3)


def tiny_client(client_id: int, seed: int, per_class: int = 12) -> ClientState:
    data = synth_dataset(3, per_class, 6, seed=seed)
    split = train_val_split(data, seed=seed + 1000)
    return ClientState(client_id=client_id, params=init_params(SPEC, seed), data=split)


def tiny_hyper(**overrides) -> HyperParams:
    base = dict(
        num_clients=4,
        senders_per_round=1,
        rounds=3,
        local_batch_size=8,
        local_passes=1,
        local_lr=0.05,
        mkt_batch_size=8,
        mkt_passes=1,
        mkt_lr_received=0.05,
        mkt_lr_local=0.05,
        momentum=0.5,
        seed=77,
    )
    base.update(overrides)
    return HyperParams(**base)


class TestHyperParams:
    def test_participation_constraint(self):
        with pytest.raises(ConfigurationError):
            tiny_hyper(num_clients=10, senders_per_round=6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            tiny_hyper(local_lr=-0.1)

    def test_momentum_range(self):
        with pytest.raises(ConfigurationError):
            tiny_hyper(momentum=1.0)


class TestSelectRound:
    def test_sender_differs_from_receiver(self):
        plan = select_round(10, 1, round_index=1, master_seed=0)
        assert len(plan.senders) == len(plan.receivers) == 1
        assert plan.senders[0] != plan.receivers[0]

    def test_two_clients_exhaustive(self):
        plan = select_round(2, 1, round_index=5, master_seed=3)
        assert sorted(plan.senders + plan.receivers) == [1, 2]

    def test_ids_in_range_and_disjoint_over_many_rounds(self):
        for t in range(1, 501):
            plan = select_round(10, 2, t, master_seed=9)
            ids = plan.senders + plan.receivers
            assert len(set(ids)) == 4
            assert all(1 <= c <= 10 for c in ids)

    def test_deterministic(self):
        a = select_round(20, 3, 17, master_seed=5)
        b = select_round(20, 3, 17, master_seed=5)
        assert a == b

    def test_ordered_pair_frequencies_uniform(self):
        # chi-square style bound: each of the 90 ordered pairs within 3 sigma
        draws = 10_000
        counts = np.zeros((10, 10))
        for t in range(draws):
            plan = select_round(10, 1, t, master_seed=12345)
            counts[plan.senders[0] - 1, plan.receivers[0] - 1] += 1
        p = 1.0 / 90.0
        sigma = np.sqrt(draws * p * (1 - p))
        off_diag = counts[~np.eye(10, dtype=bool)]
        assert np.all(np.abs(off_diag - draws * p) <= 3 * sigma)
        assert counts.trace() == 0  # sender never equals receiver

    def test_oversubscription_rejected(self):
        with pytest.raises(ConfigurationError):
            select_round(5, 3, 0, master_seed=0)


class TestRoundPlan:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundPlan(round_index=0, senders=(1, 2), receivers=(2, 3))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            RoundPlan(round_index=0, senders=(1,), receivers=(2, 3))


class TestLocalUpdate:
    def test_zero_learning_rate_is_identity(self):
        client = tiny_client(1, seed=10)
        out = local_update(client, SPEC, 8, 3, 0.0, 0.5, derive_rng(0))
        np.testing.assert_array_equal(out.params, client.params)

    def test_full_batch_no_momentum_matches_single_sgd_step(self):
        client = tiny_client(1, seed=20)
        n = len(client.data.train)
        out = local_update(client, SPEC, n, 1, 0.1, 0.0, derive_rng(1))
        batch = Batch(client.data.train.inputs, client.data.train.labels)
        probs = softmax(forward(SPEC, client.params, batch))
        grad = backward(SPEC, client.params, batch, cross_entropy_grad_logits(probs, batch.labels))
        expected, _ = sgd_step(client.params, grad, MomentumState.zeros(grad.size, 0.0), 0.1)
        np.testing.assert_allclose(out.params, expected, rtol=0, atol=1e-12)

    def test_training_reduces_loss_on_easy_problem(self):
        client = tiny_client(1, seed=30, per_class=34)  # ~100 samples
        out = local_update(client, SPEC, 16, 10, 0.05, 0.5, derive_rng(2))
        batch = Batch(client.data.train.inputs, client.data.train.labels)
        before = cross_entropy(softmax(forward(SPEC, client.params, batch)), batch.labels)
        after = cross_entropy(softmax(forward(SPEC, out.params, batch)), batch.labels)
        assert after < before

    def test_does_not_mutate_input_state(self):
        client = tiny_client(1, seed=40)
        snapshot = client.params.copy()
        local_update(client, SPEC, 8, 2, 0.05, 0.5, derive_rng(3))
        np.testing.assert_array_equal(client.params, snapshot)

    def test_sum_reduction_is_mean_with_scaled_rate(self):
        # full-batch, no momentum: sum-reduced gradient is B times the mean one
        client = tiny_client(1, seed=50)
        n = len(client.data.train)
        by_sum = local_update(client, SPEC, n, 1, 0.002, 0.0, derive_rng(4), reduction="sum")
        by_mean = local_update(client, SPEC, n, 1, 0.002 * n, 0.0, derive_rng(4), reduction="mean")
        np.testing.assert_allclose(by_sum.params, by_mean.params, rtol=1e-12)


class TestFuseFullavg:
    def test_equal_counts_elementwise_mean(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 6.0])
        np.testing.assert_array_equal(fuse_fullavg(a, b, 5, 5), [2.0, 4.0])

    def test_idempotent_on_identical_vectors(self):
        # literal weighted average rounds independently per term: one-ulp slack
        w = np.random.default_rng(0).standard_normal(11)
        np.testing.assert_allclose(fuse_fullavg(w, w, 3, 7), w, rtol=1e-15)

    def test_hand_arithmetic(self):
        out = fuse_fullavg(np.array([1.0, 3.0]), np.array([5.0, 7.0]), 1, 3)
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            na = int(rng.integers(1, 1000))
            nb = int(rng.integers(1, 1000))
            out = fuse_fullavg(a, b, na, nb)
            for i in range(n):
                assert out[i] == (na * a[i] + nb * b[i]) / (na + nb)

    def test_affine_in_inputs(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        np.testing.assert_allclose(
            fuse_fullavg(2.5 * a, 2.5 * b, 4, 6), 2.5 * fuse_fullavg(a, b, 4, 6), rtol=1e-15
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_fullavg(np.zeros(3), np.zeros(4), 1, 1)


class TestFuseCombo:
    def test_idempotent_on_identical_vectors(self):
        w = np.random.default_rng(3).standard_normal(13)
        s, r = fuse_combo(w, w, 2, 9)
        np.testing.assert_allclose(s, w, rtol=1e-15)
        np.testing.assert_allclose(r, w, rtol=1e-15)

    def test_hand_arithmetic_midpoint_split(self):
        sender, receiver = fuse_combo(
            np.array([2.0, 2.0, 10.0, 10.0]), np.array([6.0, 6.0, 20.0, 20.0]), 1, 1
        )
        np.testing.assert_array_equal(sender, [4.0, 4.0, 10.0, 10.0])
        np.testing.assert_array_equal(receiver, [6.0, 6.0, 15.0, 15.0])

    def test_lengths_preserved_odd_vector(self):
        w = np.arange(7.0)
        s, r = fuse_combo(w, w + 1.0, 1, 2)
        assert s.shape == r.shape == (7,)


class TestFuseDefkt:
    def receiver_data(self, seed=50, per_class=8) -> ClientData:
        data = synth_dataset(3, per_class, 6, seed=seed)
        return train_val_split(data, seed=seed + 1)

    def test_zero_learning_rates_return_received_unchanged(self):
        data = self.receiver_data()
        received = init_params(SPEC, 1)
        local = init_params(SPEC, 2)
        out = fuse_defkt(received, local, data, SPEC, 8, 1, 0.0, 0.0, 0.5, derive_rng(4))
        np.testing.assert_array_equal(out, received)

    def test_zero_passes_return_received_unchanged(self):
        data = self.receiver_data()
        received = init_params(SPEC, 1)
        local = init_params(SPEC, 2)
        received_bytes, local_bytes = received.tobytes(), local.tobytes()
        out = fuse_defkt(received, local, data, SPEC, 8, 0, 0.1, 0.1, 0.5, derive_rng(5))
        assert out.tobytes() == received_bytes
        assert received.tobytes() == received_bytes and local.tobytes() == local_bytes

    def test_identical_models_stay_identical(self):
        # equal start, equal rates: both trajectories coincide step by step
        data = self.receiver_data(seed=60)
        start = init_params(SPEC, 3)
        out = fuse_defkt(start.copy(), start.copy(), data, SPEC, 8, 2, 0.05, 0.05, 0.5, derive_rng(6))
        expected = _mkt_oracle(start.copy(), start.copy(), data, SPEC, 8, 2, 0.05, 0.05, 0.5, derive_rng(6))
        np.testing.assert_array_equal(out, expected[0])
        np.testing.assert_array_equal(expected[0], expected[1])

    def test_single_sample_single_pass_matches_hand_composition(self):
        inputs = np.random.default_rng(7).random((1, 6))
        labels = np.array([2])
        train = synth_dataset(3, 1, 6, seed=0).subset(np.array([0]))
        train.inputs[:] = inputs
        train.labels[:] = labels
        data = ClientData(train=train, validation=train)
        received = init_params(SPEC, 4)
        local = init_params(SPEC, 5)
        out = fuse_defkt(received, local, data, SPEC, 1, 1, 0.2, 0.3, 0.5, derive_rng(8))
        batch = Batch(inputs, labels)
        p_received = softmax(forward(SPEC, received, batch))
        p_local = softmax(forward(SPEC, local, batch))
        grad = backward(SPEC, received, batch, mutual_loss_grad_logits(p_received, p_local, labels))
        np.testing.assert_allclose(out, received - 0.2 * grad, rtol=0, atol=1e-12)

    def test_matches_reference_reimplementation(self):
        data = self.receiver_data(seed=70, per_class=10)
        received = init_params(SPEC, 8)
        local = init_params(SPEC, 9)
        out = fuse_defkt(received, local, data, SPEC, 8, 2, 0.04, 0.02, 0.5, derive_rng(10))
        expected, _ = _mkt_oracle(received, local, data, SPEC, 8, 2, 0.04, 0.02, 0.5, derive_rng(10))
        np.testing.assert_array_equal(out, expected)


def _mkt_oracle(w_received, w_local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng):
    """Step-by-step mutual-knowledge-transfer reference tracking both trajectories."""
    from defkt.data import minibatches

    state_r = MomentumState.zeros(w_received.size, momentum)
    state_l = MomentumState.zeros(w_local.size, momentum)
    for _ in range(passes):
        for batch in minibatches(data.train, batch_size, rng):
            p_r = softmax(forward(spec, w_received, batch))
            p_l = softmax(forward(spec, w_local, batch))
            g_r = backward(spec, w_received, batch, mutual_loss_grad_logits(p_r, p_l, batch.labels))
            g_l = backward(spec, w_local, batch, mutual_loss_grad_logits(p_l, p_r, batch.labels))
            w_received, state_r = sgd_step(w_received, g_r, state_r, lr_r)
            w_local, state_l = sgd_step(w_local, g_l, state_l, lr_l)
    return w_received, w_local


def make_states(n: int, shared_init: bool = False) -> dict[int, ClientState]:
    states = {}
    for k in range(1, n + 1):
        client = tiny_client(k, seed=100 + (0 if shared_init else k))
        if shared_init:
            client = ClientState(k, init_params(SPEC, 500), client.data)
        states[k] = client
    return states


class TestRunRound:
    def test_empty_round_is_noop(self):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(), receivers=())
        out = run_round(states, plan, FusionStrategy.DEFKT, tiny_hyper(senders_per_round=0), SPEC)
        for k in states:
            np.testing.assert_array_equal(out[k].params, states[k].params)

    def test_fullavg_matches_composed_ops(self):
        states = make_states(2)
        hyper = tiny_hyper(num_clients=2)
        plan = RoundPlan(round_index=3, senders=(1,), receivers=(2,))
        out = run_round(states, plan, FusionStrategy.FULLAVG, hyper, SPEC)
        rng = derive_rng(hyper.seed, LOCAL_STREAM, 3, 1)
        sender = local_update(
            states[1], SPEC, hyper.local_batch_size, hyper.local_passes,
            hyper.local_lr, hyper.momentum, rng,
        )
        fused = fuse_fullavg(
            sender.params, states[2].params, len(states[1].data.train), len(states[2].data.train)
        )
        np.testing.assert_array_equal(out[1].params, sender.params)
        np.testing.assert_array_equal(out[2].params, fused)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_only_participants_change(self, strategy):
        states = make_states(6)
        hyper = tiny_hyper(num_clients=6, senders_per_round=2)
        plan = RoundPlan(round_index=1, senders=(2, 5), receivers=(1, 4))
        out = run_round(states, plan, strategy, hyper, SPEC)
        for k in (3, 6):
            np.testing.assert_array_equal(out[k].params, states[k].params)
        for k in (1, 2, 4, 5):
            assert np.any(out[k].params != states[k].params)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_param_lengths_invariant(self, strategy):
        states = make_states(4)
        plan = RoundPlan(round_index=2, senders=(1,), receivers=(3,))
        out = run_round(states, plan, strategy, tiny_hyper(), SPEC)
        for k in out:
            assert out[k].params.shape == (param_count(SPEC),)

    def test_sender_keeps_fine_tuned_model_under_defkt(self):
        states = make_states(4)
        hyper = tiny_hyper()
        plan = RoundPlan(round_index=1, senders=(2,), receivers=(3,))
        before = {k: states[k].params.tobytes() for k in states}
        comm = CommLog(keep_messages=True)
        out = run_round(states, plan, FusionStrategy.DEFKT, hyper, SPEC, comm=comm)
        rng = derive_rng(hyper.seed, LOCAL_STREAM, 1, 2)
        expected = local_update(
            states[2], SPEC, hyper.local_batch_size, hyper.local_passes,
            hyper.local_lr, hyper.momentum, rng,
        )
        # the receiver fuses the sender's stored array itself, and must not write to it
        (message,) = comm.messages
        assert message.payload is out[2].params
        assert out[2].params.tobytes() == expected.params.tobytes()
        assert {k: states[k].params.tobytes() for k in states} == before

    def test_pair_processing_order_does_not_matter(self):
        states = make_states(6)
        hyper = tiny_hyper(num_clients=6, senders_per_round=2)
        forward_plan = RoundPlan(round_index=4, senders=(1, 2), receivers=(3, 4))
        reversed_plan = RoundPlan(round_index=4, senders=(2, 1), receivers=(4, 3))
        out_a = run_round(states, forward_plan, FusionStrategy.DEFKT, hyper, SPEC)
        out_b = run_round(states, reversed_plan, FusionStrategy.DEFKT, hyper, SPEC)
        for k in out_a:
            np.testing.assert_array_equal(out_a[k].params, out_b[k].params)

    def test_numerical_failure_names_round_and_client(self):
        states = make_states(2)
        states[1] = ClientState(1, np.full(param_count(SPEC), np.inf), states[1].data)
        plan = RoundPlan(round_index=9, senders=(1,), receivers=(2,))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="round 9, client 1"):
            run_round(states, plan, FusionStrategy.DEFKT, tiny_hyper(num_clients=2), SPEC)


class TestMessageLayer:
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_per_pair_payload_is_param_count(self, strategy):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = CommLog(keep_messages=True)
        run_round(states, plan, strategy, tiny_hyper(), SPEC, comm=comm)
        assert comm.total_scalars == param_count(SPEC)
        assert sum(m.payload.size for m in comm.messages) == param_count(SPEC)

    def test_combo_exchanges_complementary_segments(self):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = CommLog(keep_messages=True)
        run_round(states, plan, FusionStrategy.COMBO, tiny_hyper(), SPEC, comm=comm)
        kinds = {(m.sender, m.receiver): m.kind for m in comm.messages}
        assert kinds == {(1, 2): "trailing-segment", (2, 1): "leading-segment"}
        total = param_count(SPEC)
        sizes = {m.kind: m.payload.size for m in comm.messages}
        assert sizes["leading-segment"] == (total + 1) // 2
        assert sizes["trailing-segment"] == total - (total + 1) // 2

    def test_full_vector_kind_for_averaging_strategies(self):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = CommLog(keep_messages=True)
        run_round(states, plan, FusionStrategy.FULLAVG, tiny_hyper(), SPEC, comm=comm)
        (message,) = comm.messages
        assert message.kind == "params"
        assert message.payload.shape == (param_count(SPEC),)


class TestBuildClientStates:
    def test_shared_initialization(self):
        data = synth_dataset(3, 40, 6, seed=1)
        shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(4)]
        states = build_client_states(SPEC, shards, tiny_hyper())
        for k in range(2, 5):
            np.testing.assert_array_equal(states[k].params, states[1].params)

    def test_split_ratio(self):
        data = synth_dataset(3, 40, 6, seed=2)
        shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(4)]
        states = build_client_states(SPEC, shards, tiny_hyper())
        for state in states.values():
            assert len(state.data.train) == 24
            assert len(state.data.validation) == 6

    def test_shard_count_mismatch_rejected(self):
        data = synth_dataset(3, 40, 6, seed=3)
        with pytest.raises(ConfigurationError):
            build_client_states(SPEC, [data], tiny_hyper())


class TestRunExperiment:
    def experiment_states(self, hyper):
        data = synth_dataset(3, 40, 6, seed=1)
        shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(hyper.num_clients)]
        return build_client_states(SPEC, shards, hyper)

    def test_zero_rounds_single_shared_evaluation(self):
        hyper = tiny_hyper(rounds=0)
        states = self.experiment_states(hyper)
        test_data = synth_dataset(3, 20, 6, seed=2)
        timeline, final = run_experiment(SPEC, hyper, FusionStrategy.DEFKT, states, test_data)
        assert len(timeline) == 1
        assert timeline[0].round == 0
        assert timeline[0].scalars_transmitted == 0
        accs = [evaluate(SPEC, final[k].params, test_data) for k in final]
        assert len(set(accs)) == 1

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_deterministic_timeline(self, strategy):
        hyper = tiny_hyper(rounds=6)
        test_data = synth_dataset(3, 20, 6, seed=2)
        a, _ = run_experiment(SPEC, hyper, strategy, self.experiment_states(hyper), test_data, eval_every=2)
        b, _ = run_experiment(SPEC, hyper, strategy, self.experiment_states(hyper), test_data, eval_every=2)
        assert a == b

    def test_evaluation_schedule(self):
        hyper = tiny_hyper(rounds=7)
        test_data = synth_dataset(3, 20, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.FULLAVG, self.experiment_states(hyper), test_data, eval_every=3
        )
        assert [r.round for r in timeline] == [0, 3, 6, 7]

    def test_scalars_accumulate(self):
        hyper = tiny_hyper(rounds=4)
        test_data = synth_dataset(3, 20, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.COMBO, self.experiment_states(hyper), test_data, eval_every=1
        )
        expected = [t * param_count(SPEC) for t in range(5)]
        assert [r.scalars_transmitted for r in timeline] == expected

    def test_training_beats_the_initial_model(self):
        hyper = tiny_hyper(num_clients=4, rounds=60, seed=5)
        test_data = synth_dataset(3, 50, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.DEFKT, self.experiment_states(hyper), test_data, eval_every=60
        )
        assert timeline[-1].global_acc > timeline[0].global_acc
        assert timeline[-1].global_acc > 1.0 / 3.0  # clearly above the random baseline
