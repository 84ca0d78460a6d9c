"""Protocol tests: round selection, local updates, the three fusions, full runs."""

import functools
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from defkt import federation, metrics, nn
from defkt.data import ClientData, Dataset, synth_dataset, train_val_split
from defkt.errors import ConfigurationError, NumericalError
from defkt.federation import (
    LOCAL_STREAM,
    MKT_STREAM,
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
from defkt.metrics import MetricsRecord, evaluate, global_accuracy, local_accuracy
from defkt.nn import Batch, ModelSpec, forward, init_params, param_count, sgd_step
from defkt.seeding import derive_rng

import schedules
from oracles import (
    ComputeProbe,
    RecordingLog,
    backward,
    combo_by_formula,
    count_thread_starts,
    fullavg_by_formula,
    whole_record,
)


SPEC = ModelSpec.mlp(6, (5,), 3)


def fusion_inputs(seed: int):
    """Two vectors of odd length holding signed zeros and infinities, and two sample counts."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 300)) | 1
    a, b = rng.standard_normal(size), rng.standard_normal(size)
    a[::5], b[1::5] = -0.0, 0.0
    a[2::9], b[2::13], b[3::11] = np.inf, -np.inf, -0.0
    return a, b, int(rng.integers(1, 1000)), int(rng.integers(1, 1000))


def assert_fresh_and_inputs_unwritten(outputs, inputs, before):
    assert [x.tobytes() for x in inputs] == before
    assert not any(np.shares_memory(out, x) for out in outputs for x in inputs)


def tiny_client(seed: int, per_class: int = 12) -> ClientState:
    data = synth_dataset(3, per_class, 6, seed=seed)
    split = train_val_split(data, seed=seed + 1000)
    return ClientState(params=init_params(SPEC, seed), data=split)


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
        for rate in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                tiny_hyper(local_lr=rate)

    def test_momentum_range(self):
        with pytest.raises(ConfigurationError):
            tiny_hyper(momentum=1.0)

    # derive_seed reduces keys mod 2**64: -1 would run as 2**64 - 1, and 2**64 as 0
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2-to-the-64"])
    def test_seed_outside_the_derivation_range_rejected(self, seed):
        with pytest.raises(ConfigurationError, match=rf"^seed: must lie in \[0, 2\*\*64\), got {seed}$"):
            tiny_hyper(seed=seed)

    def test_seeds_at_the_ends_of_the_range_accepted(self):
        assert [tiny_hyper(seed=seed).seed for seed in (0, 2**64 - 1)] == [0, 2**64 - 1]


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
        client = tiny_client(seed=10)
        out = local_update(client, SPEC, 8, 3, 0.0, 0.5, derive_rng(0))
        np.testing.assert_array_equal(out.params, client.params)

    def test_full_batch_no_momentum_matches_single_sgd_step(self):
        client = tiny_client(seed=20)
        n = len(client.data.train)
        out = local_update(client, SPEC, n, 1, 0.1, 0.0, derive_rng(1))
        batch = client.data.train.batch(slice(None))
        probs = softmax(forward(SPEC, client.params, batch))
        grad = backward(SPEC, client.params, batch, cross_entropy_grad_logits(probs, batch.labels))
        expected = sgd_step(client.params, grad, np.zeros(grad.size), 0.1, 0.0, out=np.empty(grad.size))
        np.testing.assert_allclose(out.params, expected, rtol=0, atol=1e-12)

    def test_training_reduces_loss_on_easy_problem(self):
        client = tiny_client(seed=30, per_class=34)  # ~100 samples
        out = local_update(client, SPEC, 16, 10, 0.05, 0.5, derive_rng(2))
        batch = client.data.train.batch(slice(None))
        before = cross_entropy(softmax(forward(SPEC, client.params, batch)), batch.labels)
        after = cross_entropy(softmax(forward(SPEC, out.params, batch)), batch.labels)
        assert after < before

    def test_does_not_mutate_input_state(self):
        client = tiny_client(seed=40)
        rows = client.data.train.batch(slice(None))
        before = [a.tobytes() for a in (client.params, rows.inputs, rows.labels)]
        out = local_update(client, SPEC, 8, 2, 0.05, 0.5, derive_rng(3))
        after = client.data.train.batch(slice(None))
        assert [a.tobytes() for a in (client.params, after.inputs, after.labels)] == before
        assert not any(np.shares_memory(out.params, a) for a in (client.params, client.data.train.source.inputs))

    def test_sum_reduction_is_mean_with_scaled_rate(self):
        # full-batch, no momentum: sum-reduced gradient is B times the mean one
        client = tiny_client(seed=50)
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

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equals_formula_and_writes_no_input(self, seed):
        a, b, na, nb = fusion_inputs(seed)
        before = [a.tobytes(), b.tobytes()]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN on both sides
            out, want = fuse_fullavg(a, b, na, nb), fullavg_by_formula(a, b, na, nb)
        assert out.tobytes() == want.tobytes()
        assert_fresh_and_inputs_unwritten([out], [a, b], before)


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
        # ceil(7/2) = 4: the sender averages entries 0..3, the receiver entries 4..6
        avg = (1 * w + 2 * (w + 1.0)) / 3
        assert np.array_equal(s, [*avg[:4], *w[4:]])
        assert np.array_equal(r, [*(w + 1.0)[:4], *avg[4:]])

    @pytest.mark.parametrize("seed", range(5))
    def test_bitwise_equals_formula_and_writes_no_input(self, seed):
        a, b, na, nb = fusion_inputs(seed)
        before = [a.tobytes(), b.tobytes()]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN on both sides
            got, want = fuse_combo(a, b, na, nb), combo_by_formula(a, b, na, nb)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
        assert_fresh_and_inputs_unwritten(got, [a, b], before)
        assert not np.shares_memory(*got)


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
        train = Dataset(inputs, labels, 3)
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


    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Every fusion half reaches the gate (0) of a pool on a host with two usable CPUs."""
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def pooled(data: ClientData):
        return metrics.evaluation_pool(SPEC, {}, data.train.source)

    @staticmethod
    def slow_trainer(monkeypatch, pause: float = 0.005) -> list:
        """The trainer's forward and step sleep first, so a pool thread starts the other half's task
        before the trainer would take it over; returns the (name, thread) of every forward and step."""
        calls = []

        def slowed(fn):
            def call(*args):
                calls.append((fn.__name__, threading.current_thread()))
                if threading.current_thread() is threading.main_thread():
                    time.sleep(pause)
                return fn(*args)
            return call

        for name in ("forward_cached", "sgd_step"):
            monkeypatch.setattr(federation, name, slowed(getattr(federation, name)))
        return calls

    @pytest.mark.parametrize("passes", [1, 2])
    @pytest.mark.parametrize("short", [False, True], ids=["full-last-batch", "short-last-batch"])
    def test_pooled_halves_give_the_serial_bits(self, two_cpus, monkeypatch, passes, short):
        """Each pass's last local step is taken but in the last pass, where it is skipped."""
        data = self.receiver_data(seed=80, per_class=10)
        n = len(data.train)
        assert n % 2 == 0
        batch_size = n // 2 + short
        received, local = init_params(SPEC, 14), init_params(SPEC, 15)
        args = (data, SPEC, batch_size, passes, 0.04, 0.02, 0.5)
        serial = fuse_defkt(received, local, *args, derive_rng(16))
        oracle, _ = _mkt_oracle(received, local, *args, derive_rng(16))
        calls = self.slow_trainer(monkeypatch)
        with self.pooled(data) as pool:
            assert pool is not None
            out = fuse_defkt(received, local, *args, derive_rng(16), pool=pool)
        assert out.tobytes() == serial.tobytes() == oracle.tobytes()
        steps = [thread for name, thread in calls if name == "sgd_step"]
        assert len(steps) == 2 * 2 * passes - 1
        pooled = {name for name, thread in calls if thread is not threading.main_thread()}
        assert pooled == {"forward_cached", "sgd_step"}  # both of the local model's tasks ran on the pool

    def test_a_wide_pool_under_a_short_switch_interval_gives_the_serial_bits(self, two_cpus):
        """More pool threads than cores, and thread switches every microsecond: the halves still hand over in order."""
        data = self.receiver_data(seed=85, per_class=10)
        received, local = init_params(SPEC, 26), init_params(SPEC, 27)
        args = (data, SPEC, 3, 3, 0.04, 0.02, 0.5)
        serial = fuse_defkt(received, local, *args, derive_rng(28))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2 * len(os.sched_getaffinity(0)) + 2) as pool:
                runs = [fuse_defkt(received, local, *args, derive_rng(28), pool=pool) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(out.tobytes() == serial.tobytes() for out in runs)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_writes_no_input_and_returns_a_fresh_vector(self, two_cpus, pooled):
        data = self.receiver_data(seed=90)
        received, local = init_params(SPEC, 17), init_params(SPEC, 18)
        rows = data.train.batch(slice(None))
        before = [a.tobytes() for a in (received, local, rows.inputs, rows.labels)]
        with self.pooled(data) if pooled else nullcontext() as pool:
            out = fuse_defkt(received, local, data, SPEC, 8, 2, 0.04, 0.02, 0.5, derive_rng(19), pool=pool)
        after = data.train.batch(slice(None))
        assert [a.tobytes() for a in (received, local, after.inputs, after.labels)] == before
        assert not any(np.shares_memory(out, a) for a in (received, local, data.train.source.inputs))

    def test_no_half_outlives_a_call_whose_other_half_raised(self, two_cpus, monkeypatch):
        """The trainer's step raises while the local model's step runs on the pool; the call waits for it."""
        started, running = threading.Event(), []

        def slow_there_failing_here(*args):
            if threading.current_thread() is threading.main_thread():
                assert started.wait(10)
                raise NumericalError("the received model's step failed")
            started.set()
            running.append(True)
            time.sleep(0.05)
            running.pop()
            return sgd_step(*args)

        monkeypatch.setattr(federation, "sgd_step", slow_there_failing_here)
        data = self.receiver_data(seed=100)
        with self.pooled(data) as pool:
            with pytest.raises(NumericalError, match="received model's step failed"):
                fuse_defkt(init_params(SPEC, 20), init_params(SPEC, 21), data, SPEC, 8, 1, 0.1, 0.1, 0.5,
                           derive_rng(22), pool=pool)
            assert running == []

    def test_a_pooled_half_raises_in_the_call(self, two_cpus, monkeypatch):
        def failing_there(*args):
            if threading.current_thread() is not threading.main_thread():
                raise NumericalError("the local model's step failed")
            return sgd_step(*args)

        monkeypatch.setattr(federation, "sgd_step", failing_there)
        self.slow_trainer(monkeypatch)
        data = self.receiver_data(seed=110)
        with self.pooled(data) as pool:
            with pytest.raises(NumericalError, match="local model's step failed"):
                fuse_defkt(init_params(SPEC, 23), init_params(SPEC, 24), data, SPEC, 8, 1, 0.1, 0.1, 0.5,
                           derive_rng(25), pool=pool)


class TestConvWorkingSet:
    """At cnn-pairs' 40 training rows, a cnn-small update holds one step's working set at a time."""

    SPEC = ModelSpec.cnn_small()
    DATA = train_val_split(synth_dataset(10, 5, SPEC.input_dim, seed=1), 2)  # 40 training rows
    # Traced peaks at 40 rows (numpy 2.4): a local update 5.3 MB and a one-batch fusion 5.5 MB; 6.7 and
    # 7.8 MB while the conv weight gradient copied dz and the skipped local step's forward kept its cache.
    PEAK_BYTES = 6_000_000

    @staticmethod
    def traced_peak(call) -> int:
        """Bytes `call` allocates at its peak beyond what was live before it, on a second call."""
        call()  # the patch indices are derived before the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_a_local_update_peaks_under_6_mb(self):
        client = ClientState(init_params(self.SPEC, 1), self.DATA)
        assert len(self.DATA.train) == 40
        peak = self.traced_peak(lambda: local_update(client, self.SPEC, 40, 1, 0.05, 0.5, derive_rng(3)))
        assert peak < self.PEAK_BYTES

    def test_a_one_batch_fusion_peaks_under_6_mb(self):
        received, local = init_params(self.SPEC, 1), init_params(self.SPEC, 2)
        peak = self.traced_peak(lambda: fuse_defkt(received, local, self.DATA, self.SPEC, 40, 1, 0.05, 0.05, 0.5,
                                                   derive_rng(4)))
        assert peak < self.PEAK_BYTES

    @pytest.mark.parametrize("batch_size, passes", [(40, 1), (16, 2)], ids=["one-batch", "three-batches-two-passes"])
    def test_only_a_forward_that_a_step_follows_is_cached(self, monkeypatch, batch_size, passes):
        """forward_cached runs twice per minibatch, but once on the last, whose local step is skipped;
        the result's bytes are those of caching every forward."""
        received, local = init_params(self.SPEC, 5), init_params(self.SPEC, 6)

        def fuse():
            return fuse_defkt(received, local, self.DATA, self.SPEC, batch_size, passes, 0.05, 0.02, 0.5,
                              derive_rng(7))

        with monkeypatch.context() as patched:
            patched.setattr(federation, "forward", lambda *args: nn.forward_cached(*args)[0])
            caching_every_forward = fuse()
        calls = []
        monkeypatch.setattr(federation, "forward_cached", lambda *args: calls.append(1) or nn.forward_cached(*args))
        out = fuse()
        batches = passes * -(-len(self.DATA.train) // batch_size)
        assert len(calls) == 2 * batches - 1
        assert out.tobytes() == caching_every_forward.tobytes()


def _mkt_oracle(w_received, w_local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng):
    """Step-by-step mutual-knowledge-transfer reference tracking both trajectories."""
    from defkt.data import minibatches

    v_r = np.zeros(w_received.size)
    v_l = np.zeros(w_local.size)
    for _ in range(passes):
        for batch in minibatches(data.train, batch_size, rng):
            p_r = softmax(forward(spec, w_received, batch))
            p_l = softmax(forward(spec, w_local, batch))
            g_r = backward(spec, w_received, batch, mutual_loss_grad_logits(p_r, p_l, batch.labels))
            g_l = backward(spec, w_local, batch, mutual_loss_grad_logits(p_l, p_r, batch.labels))
            v_r, v_l = momentum * v_r + g_r, momentum * v_l + g_l
            w_received, w_local = w_received - lr_r * v_r, w_local - lr_l * v_l
    return w_received, w_local


def make_states(n: int, shared_init: bool = False) -> dict[int, ClientState]:
    states = {}
    for k in range(1, n + 1):
        client = tiny_client(seed=100 + (0 if shared_init else k))
        if shared_init:
            client = ClientState(init_params(SPEC, 500), client.data)
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
        comm = RecordingLog()
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
        states[1] = ClientState(np.full(param_count(SPEC), np.inf), states[1].data)
        plan = RoundPlan(round_index=9, senders=(1,), receivers=(2,))
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="round 9, client 1"):
            run_round(states, plan, FusionStrategy.DEFKT, tiny_hyper(num_clients=2), SPEC)


class TestMessageLayer:
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_per_pair_payload_is_param_count(self, strategy):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = RecordingLog()
        run_round(states, plan, strategy, tiny_hyper(), SPEC, comm=comm)
        assert comm.total_scalars == param_count(SPEC)
        assert sum(m.payload.size for m in comm.messages) == param_count(SPEC)

    def test_combo_exchanges_complementary_segments(self):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = RecordingLog()
        run_round(states, plan, FusionStrategy.COMBO, tiny_hyper(), SPEC, comm=comm)
        kinds = {(m.sender, m.receiver): m.kind for m in comm.messages}
        assert kinds == {(1, 2): "trailing-segment", (2, 1): "leading-segment"}
        total = param_count(SPEC)
        sizes = {m.kind: m.payload.size for m in comm.messages}
        assert sizes["leading-segment"] == (total + 1) // 2
        assert sizes["trailing-segment"] == total - (total + 1) // 2

    def test_combo_payloads_are_views_of_the_sent_vectors(self):
        # nothing writes a parameter vector, so a segment goes out without a copy
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = RecordingLog()
        run_round(states, plan, FusionStrategy.COMBO, tiny_hyper(), SPEC, comm=comm)
        trailing, leading = (m.payload for m in comm.messages)
        assert np.shares_memory(leading, states[2].params)
        assert trailing.base is not None and trailing.base.size == param_count(SPEC)

    def test_combo_round_records_each_pair_in_turn(self):
        # Q=2: each pair's segment goes out and its reply comes back before the next pair starts
        states = make_states(6)
        plan = RoundPlan(round_index=1, senders=(5, 2), receivers=(1, 4))
        comm = RecordingLog()
        hyper = tiny_hyper(num_clients=6, senders_per_round=2)
        run_round(states, plan, FusionStrategy.COMBO, hyper, SPEC, comm=comm)
        assert [(m.sender, m.receiver, m.kind) for m in comm.messages] == [
            (5, 1, "trailing-segment"),
            (1, 5, "leading-segment"),
            (2, 4, "trailing-segment"),
            (4, 2, "leading-segment"),
        ]

    def test_full_vector_kind_for_averaging_strategies(self):
        states = make_states(4)
        plan = RoundPlan(round_index=1, senders=(1,), receivers=(2,))
        comm = RecordingLog()
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


def experiment_states(hyper: HyperParams) -> dict[int, ClientState]:
    data = synth_dataset(3, 10 * hyper.num_clients, 6, seed=1)
    shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(hyper.num_clients)]
    return build_client_states(SPEC, shards, hyper)


class TestRunExperiment:
    def test_zero_rounds_single_shared_evaluation(self):
        hyper = tiny_hyper(rounds=0)
        states = experiment_states(hyper)
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
        a, _ = run_experiment(SPEC, hyper, strategy, experiment_states(hyper), test_data, eval_every=2)
        b, _ = run_experiment(SPEC, hyper, strategy, experiment_states(hyper), test_data, eval_every=2)
        assert a == b

    def test_evaluation_schedule(self):
        hyper = tiny_hyper(rounds=7)
        test_data = synth_dataset(3, 20, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.FULLAVG, experiment_states(hyper), test_data, eval_every=3
        )
        assert [r.round for r in timeline] == [0, 3, 6, 7]

    def test_scalars_accumulate(self):
        hyper = tiny_hyper(rounds=4)
        test_data = synth_dataset(3, 20, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.COMBO, experiment_states(hyper), test_data, eval_every=1
        )
        expected = [t * param_count(SPEC) for t in range(5)]
        assert [r.scalars_transmitted for r in timeline] == expected

    @pytest.mark.parametrize("pooled", [False, True], ids=["inline", "pooled"])
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_leaves_its_clients_as_it_found_them(self, strategy, pooled, monkeypatch):
        """The same keys, state objects and fields, and bitwise the same params: why cli.runs may share them."""
        if pooled:  # every update, half and evaluation reaches the gate of a pool on two usable CPUs
            monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
            monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        hyper = tiny_hyper(rounds=6)
        clients = experiment_states(hyper)
        fields = {k: (state, state.params, state.data) for k, state in clients.items()}
        before = {k: state.params.tobytes() for k, state in clients.items()}
        _, final = run_experiment(SPEC, hyper, strategy, clients, synth_dataset(3, 20, 6, seed=2), eval_every=2)
        assert list(clients) == list(fields)
        assert all(a is b for k, s in clients.items() for a, b in zip((s, s.params, s.data), fields[k]))
        assert {k: state.params.tobytes() for k, state in clients.items()} == before
        assert any(final[k].params.tobytes() != before[k] for k in final)  # the run trained

    def test_training_beats_the_initial_model(self):
        hyper = tiny_hyper(num_clients=4, rounds=60, seed=5)
        test_data = synth_dataset(3, 50, 6, seed=2)
        timeline, _ = run_experiment(
            SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper), test_data, eval_every=60
        )
        assert timeline[-1].global_acc > timeline[0].global_acc
        assert timeline[-1].global_acc > 1.0 / 3.0  # clearly above the random baseline


def eventually(condition, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


class TestOverlappedRecords:
    """Records evaluated on the run's pool while the next rounds train."""

    TEST_DATA = synth_dataset(3, 20, 6, seed=2)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sends every record to the evaluation pool of a host with the given CPU count."""
        def use(count: int) -> None:
            monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
            monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        return use

    def run(self, strategy=FusionStrategy.DEFKT, eval_every=1, rounds=7, **overrides):
        hyper = tiny_hyper(rounds=rounds, **overrides)
        return run_experiment(SPEC, hyper, strategy, experiment_states(hyper), self.TEST_DATA, eval_every=eval_every)

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_timeline_and_states_equal_the_serial_run(self, cpus, strategy, eval_every):
        serial, serial_states = self.run(strategy, eval_every)
        cpus(2)
        overlapped, states = self.run(strategy, eval_every)
        assert overlapped == serial
        assert [r.round for r in overlapped] == ([0, 1, 2, 3, 4, 5, 6, 7] if eval_every == 1 else [0, 3, 6, 7])
        assert all(states[k].params.tobytes() == serial_states[k].params.tobytes() for k in states)

    def test_at_most_one_computing_thread_per_cpu(self, cpus, monkeypatch):
        """Evaluations and the training primitives compute, on the trainer or on a pool thread.

        Fusion halves compute through the same primitives, so they are
        counted; a trainer blocked on a half's result is in none of them.
        """
        cpus(2)
        probe = ComputeProbe(pause=0.002)
        monkeypatch.setattr(metrics, "evaluate", probe.wrap(evaluate))
        training = {"forward_cached", "backward_from_cache", "sgd_step"}
        for name in training:
            monkeypatch.setattr(federation, name, probe.wrap(getattr(federation, name)))
        updates = []  # the thread of every local update
        monkeypatch.setattr(federation, "local_update",
                            lambda *args: updates.append(threading.current_thread()) or local_update(*args))
        self.run(eval_every=2)
        assert probe.peak <= 2
        assert any("evaluate" in running and running & training for running in probe.together)  # a record overlapped training
        assert any(name in training and thread is not threading.main_thread() for name, thread in probe.calls)  # a half ran on the pool
        assert any(thread is not threading.main_thread() for thread in updates)  # a look-ahead update ran on the pool

    def test_one_cpu_evaluates_everything_on_the_calling_thread(self, cpus, monkeypatch):
        serial, _ = self.run()
        cpus(1)
        probe = ComputeProbe()
        monkeypatch.setattr(metrics, "evaluate", probe.wrap(evaluate))
        before = threading.active_count()
        assert self.run()[0] == serial
        assert set(probe.threads) == {threading.main_thread()}
        assert threading.active_count() == before

    def test_no_thread_starts_when_every_evaluation_is_below_the_gate(self, cpus, monkeypatch):
        """The test set is the largest evaluation; one multiply-add short of the gate, no thread starts."""
        serial, _ = self.run()
        cpus(2)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", len(self.TEST_DATA) * SPEC.macs_per_row + 1)
        assert max(len(s.data.validation) for s in experiment_states(tiny_hyper()).values()) < len(self.TEST_DATA)
        started = count_thread_starts(monkeypatch)
        assert self.run()[0] == serial
        assert started == []

    def test_with_the_pool_open_each_task_runs_where_its_own_work_puts_it(self, cpus, monkeypatch):
        """Only the test set reaches the gate: its task runs on a pool thread, the validation tasks inline."""
        states = experiment_states(tiny_hyper())
        expected = global_accuracy(states, SPEC, self.TEST_DATA), local_accuracy(states, SPEC)
        cpus(2)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", len(self.TEST_DATA) * SPEC.macs_per_row)
        assert max(len(s.data.validation) for s in states.values()) < len(self.TEST_DATA)
        calls = []  # (rows, on the calling thread) per evaluation

        def recording(spec, params, data):
            calls.append((len(data), threading.current_thread() is threading.main_thread()))
            return evaluate(spec, params, data)

        monkeypatch.setattr(metrics, "evaluate", recording)
        with metrics.evaluation_pool(SPEC, states, self.TEST_DATA) as pool:
            record = whole_record(pool, SPEC, states, self.TEST_DATA)
            pool.shutdown(wait=True)  # a pooled task has run by now, so collecting takes none over
            assert record.collect() == expected
        assert sorted(calls) == sorted(
            [(len(self.TEST_DATA), False)] + [(len(states[k].data.validation), True) for k in states]
        )

    def test_a_conv_test_set_opens_the_pool_by_multiply_adds(self, cpus, monkeypatch):
        """Rows x parameters undercounts a conv layer's work by its output positions; the gate counts multiply-adds."""
        spec = ModelSpec.cnn_small((1, 10, 10), 3, channels=(2, 3))
        hyper = tiny_hyper(rounds=2)
        data = synth_dataset(3, 40, spec.input_dim, seed=1)
        shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(hyper.num_clients)]
        test = synth_dataset(3, 20, spec.input_dim, seed=2)

        def run():
            states = build_client_states(spec, shards, hyper)
            return run_experiment(spec, hyper, FusionStrategy.DEFKT, states, test, eval_every=1)[0]

        serial = run()
        cpus(2)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", len(test) * spec.macs_per_row)
        assert len(test) * spec.param_count < metrics.PARALLEL_EVAL_WORK
        started = count_thread_starts(monkeypatch)
        assert run() == serial
        assert started

    def test_serial_reference_evaluates_on_the_calling_thread(self, cpus, monkeypatch):
        cpus(2)
        probe = ComputeProbe(pause=0.002)
        monkeypatch.setattr(metrics, "evaluate", probe.wrap(evaluate))
        states = {k: tiny_client(seed=k) for k in (1, 2, 3, 4)}
        global_accuracy(states, SPEC, self.TEST_DATA), local_accuracy(states, SPEC)
        assert probe.threads == [threading.main_thread()] * 8

    def test_inline_run_imports_no_executor(self):
        """Below the gate no pool is opened, so a fresh interpreter never imports concurrent.futures."""
        code = (
            "import sys, numpy as np\n"
            "from defkt.data import synth_dataset\n"
            "from defkt.federation import FusionStrategy, HyperParams, build_client_states, run_experiment\n"
            "from defkt.nn import ModelSpec\n"
            "spec = ModelSpec.mlp(6, (5,), 3)\n"
            "hyper = HyperParams(4, 1, 3, 8, 1, 0.05, 8, 1, 0.05, 0.05, 0.5)\n"
            "data = synth_dataset(3, 40, 6, seed=1)\n"
            "shards = [data.subset(np.arange(i * 30, (i + 1) * 30)) for i in range(4)]\n"
            "states = build_client_states(spec, shards, hyper)\n"
            "run_experiment(spec, hyper, FusionStrategy.DEFKT, states, synth_dataset(3, 20, 6, seed=2))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        src = str(Path(federation.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_no_thread_outlives_the_run(self, cpus, monkeypatch):
        cpus(2)
        before = threading.active_count()
        self.run()
        assert threading.active_count() == before

        class EvaluationFailed(Exception):
            pass

        def failing(spec, params, data):
            if threading.current_thread() is not threading.main_thread():
                raise EvaluationFailed("failed on a pool thread")
            return evaluate(spec, params, data)

        monkeypatch.setattr(metrics, "evaluate", failing)
        with pytest.raises(EvaluationFailed, match="failed on a pool thread"):
            self.run()
        assert threading.active_count() == before

    def test_a_vector_is_freed_once_evaluated_while_its_record_is_pending(self, cpus, monkeypatch):
        """Record 3 is collected after round 6; the vectors it holds that round 4 replaces die before round 5."""
        cpus(2)
        hyper = tiny_hyper(rounds=7)
        clients = experiment_states(hyper)
        initial = {id(c.params) for c in clients.values()}  # kept alive by `clients`
        replaced = []  # (round, weakref) of each non-initial vector a pair replaced
        checked = []
        fuse_pair = federation._fuse_pair

        def tracking(states, sender_id, receiver_id, sender, round_index, *args):
            for replaced_in, ref in replaced:
                if replaced_in < round_index:
                    assert eventually(lambda: ref() is None), f"vector replaced in round {replaced_in} still alive"
                    checked.append(replaced_in)
            before = {k: states[k].params for k in (sender_id, receiver_id)}
            fuse_pair(states, sender_id, receiver_id, sender, round_index, *args)
            replaced.extend(
                (round_index, weakref.ref(params))
                for k, params in before.items() if states[k].params is not params and id(params) not in initial
            )

        monkeypatch.setattr(federation, "_fuse_pair", tracking)
        run_experiment(SPEC, hyper, FusionStrategy.FULLAVG, clients, self.TEST_DATA, eval_every=3)
        assert 4 in checked  # a vector of pending record 3, replaced in round 4, was seen dead

    def test_bad_evaluation_input_fails_before_round_one(self, cpus, monkeypatch):
        cpus(2)
        probe = ComputeProbe()
        monkeypatch.setattr(metrics, "evaluate", probe.wrap(evaluate))
        for name in ("_sender_update", "_fuse_pair"):
            monkeypatch.setattr(federation, name, probe.wrap(getattr(federation, name)))
        hyper = tiny_hyper()
        wide = synth_dataset(3, 20, 7, seed=2)
        with pytest.raises(ConfigurationError, match="batch has 7 input features, model expects 6"):
            run_experiment(SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper), wide)
        states = experiment_states(hyper)
        for k in (4, 2):  # a subset refuses zero rows, so empty them after construction
            states[k].data.validation.index = np.empty(0, dtype=np.intp)
        with pytest.raises(ConfigurationError, match="client 2 has an empty validation set"):
            run_experiment(SPEC, hyper, FusionStrategy.DEFKT, states, self.TEST_DATA)
        assert probe.threads == []


class TestRecordSchedule:
    """A client is added to a record as soon as its state for that record is final."""

    TEST_DATA = synth_dataset(3, 20, 6, seed=2)
    # (rounds, eval_every, overrides): Q=1 of K=4 with records every round, every third round
    # and only at the ends; a run of no rounds; 2Q = K, where every round touches every client;
    # and Q=2 of K=6, where a round leaves some of the next round's senders free
    CASES = [(7, 1, {}), (7, 3, {}), (7, 10, {}), (0, 3, {}), (7, 3, {"senders_per_round": 2}),
             (7, 2, {"num_clients": 6, "senders_per_round": 2})]
    IDS = ["every-1", "every-3", "above-rounds", "no-rounds", "2q-is-k", "k6-q2"]

    @pytest.fixture(params=["inline", "pooled"])
    def where(self, request, monkeypatch):
        """Evaluates every record inline, or on the pool of a host with two usable CPUs."""
        if request.param == "pooled":
            monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
            monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return request.param

    @staticmethod
    def record_points(rounds: int, eval_every: int) -> list[int]:
        return sorted({0, rounds, *range(eval_every, rounds + 1, eval_every)})

    @classmethod
    def replayed(cls, hyper: HyperParams, strategy: FusionStrategy, eval_every: int):
        """The serial reference: round after round, every record evaluated in place at its record point."""
        states, comm, expected = experiment_states(hyper), CommLog(), []
        for r in range(hyper.rounds + 1):
            if r:
                plan = select_round(hyper.num_clients, hyper.senders_per_round, r, hyper.seed)
                states = run_round(states, plan, strategy, hyper, SPEC, comm=comm)
            if r in cls.record_points(hyper.rounds, eval_every):
                accuracies = global_accuracy(states, SPEC, cls.TEST_DATA), local_accuracy(states, SPEC)
                expected.append(MetricsRecord(r, strategy.value, hyper.seed, *accuracies, comm.total_scalars))
        return expected, states

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_timeline_equals_the_serial_reference_replayed_round_by_round(self, where, case, strategy):
        rounds, eval_every, overrides = case
        hyper = tiny_hyper(rounds=rounds, **overrides)
        timeline, final = run_experiment(
            SPEC, hyper, strategy, experiment_states(hyper), self.TEST_DATA, eval_every=eval_every
        )
        expected, states = self.replayed(hyper, strategy, eval_every)
        assert timeline == expected
        assert all(final[k].params.tobytes() == states[k].params.tobytes() for k in states)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_each_client_is_evaluated_right_after_the_last_pair_of_the_window_that_touches_it(self, case, monkeypatch):
        rounds, eval_every, overrides = case
        hyper = tiny_hyper(rounds=rounds, **overrides)
        clients = experiment_states(hyper)
        owner = {id(c.data.validation): k for k, c in clients.items()}
        # ("pair", (r, sender, receiver)) per pair; ("client", k) per validation evaluation; ("test", None) per test one
        log = []
        fuse_pair = federation._fuse_pair

        def logged_pair(states, sender_id, receiver_id, sender, round_index, *args):
            log.append(("pair", (round_index, sender_id, receiver_id)))
            fuse_pair(states, sender_id, receiver_id, sender, round_index, *args)

        def logged_evaluate(spec, params, data):
            log.append(("client", owner[id(data)]) if id(data) in owner else ("test", None))
            return evaluate(spec, params, data)

        monkeypatch.setattr(federation, "_fuse_pair", logged_pair)
        monkeypatch.setattr(metrics, "evaluate", logged_evaluate)
        run_experiment(SPEC, hyper, FusionStrategy.FULLAVG, clients, self.TEST_DATA, eval_every=eval_every)

        plans = {
            r: select_round(hyper.num_clients, hyper.senders_per_round, r, hyper.seed) for r in range(1, rounds + 1)
        }
        assert [value for kind, value in log if kind == "pair"] == [
            (r, *pair) for r in range(1, rounds + 1) for pair in plans[r].pairs()
        ]
        points = self.record_points(rounds, eval_every)
        records = {k: 0 for k in clients}  # records each client was evaluated for so far
        last = None  # the last pair run so far
        for kind, value in log:
            if kind == "pair":
                last = value
            elif kind == "client":
                i = records[value]
                opened = points[i - 1] if i else 0  # the record's window is (opened, points[i]]
                window = range(opened + 1, points[i] + 1)
                touches = [(r, *pair) for r in window for pair in plans[r].pairs() if value in pair]
                if touches:
                    assert last == touches[-1], f"client {value} for record {points[i]}"
                else:  # evaluated when the window opens, after the last pair before it
                    assert (last[0] if last else 0) == opened, f"client {value} for record {points[i]}"
                records[value] += 1
        assert records == {k: len(points) for k in clients}
        if rounds:
            first_pair = (rounds, *plans[rounds].pairs()[0])
            tail = log[log.index(("pair", first_pair)) + 1:]
            touched = plans[rounds].senders + plans[rounds].receivers
            assert sorted(k for kind, k in tail if kind == "client") == sorted(touched)
            assert 1 <= sum(kind == "test" for kind, _ in tail) <= len(touched)

    @pytest.mark.parametrize("eval_every", [1, 3, 10])
    def test_select_round_is_called_once_per_round_in_round_order(self, where, eval_every, monkeypatch):
        hyper = tiny_hyper(rounds=7)
        drawn = []

        def counted(num_clients, senders_per_round, round_index, master_seed):
            drawn.append(round_index)
            return select_round(num_clients, senders_per_round, round_index, master_seed)

        monkeypatch.setattr(federation, "select_round", counted)
        run_experiment(SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper), self.TEST_DATA,
                       eval_every=eval_every)
        assert drawn == list(range(1, hyper.rounds + 1))


class TestSenderLookahead:
    """A sender's update goes to the pool once its state for its round is final and the round before has started."""

    CASES, IDS = TestRecordSchedule.CASES, TestRecordSchedule.IDS

    @pytest.fixture
    def forced_pool(self, monkeypatch):
        """Every update, half and evaluation reaches the gate (0) of a pool on a host with two usable CPUs."""
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def plans(hyper: HyperParams) -> list[RoundPlan]:
        """Each round's plan, indexed by round; round 0 is the run's start and touches no one."""
        return [RoundPlan(0, (), ())] + [
            select_round(hyper.num_clients, hyper.senders_per_round, r, hyper.seed) for r in range(1, hyper.rounds + 1)
        ]

    @classmethod
    def look_aheads(cls, hyper: HyperParams) -> list[tuple[int, int]]:
        """(round, sender) of each update in submission order. Round r+1's sender updates at the start of
        round r if round r does not touch it, else right after its pair in round r; the order within a
        batch is round r+1's. Record windows do not matter."""
        plans, expected = cls.plans(hyper), []
        for plan, following in zip(plans, plans[1:]):
            r = following.round_index
            expected += [(r, s) for s in following.senders if s not in plan.senders + plan.receivers]
            for pair in plan.pairs():
                expected += [(r, s) for s in following.senders if s in pair]
        return expected

    @classmethod
    def task_order(cls, hyper: HyperParams, strategy: FusionStrategy, eval_every: int) -> list[tuple]:
        """(kind, round, client) of each task in submission order, with every task pooled, from the plans alone.

        When round t opens, the record whose window starts there (rounds t to the next record point;
        round 0 is the run's start and touches no one) adds the clients that window leaves untouched,
        then the round-(t + 1) updates of senders that round t leaves free go. After each pair of
        round t (whose defkt fusion submits its halves, "half", t, receiver), its clients' round-(t + 1)
        updates go, then the record adds those of its clients whose last touch in the window is round t.
        Adding client k for the record of round p submits ("test", p, k), unless k still holds the
        initial vector and a client added before it to that record does too, then ("validation", p, k)."""
        plans, points = cls.plans(hyper), TestRecordSchedule.record_points(hyper.rounds, eval_every)
        order, touched = [], set()  # the clients some pair has touched so far

        def add(k: int) -> None:
            if k in touched or not initial_tested:
                order.append(("test", point, k))
            order.append(("validation", point, k))

        for t, plan in enumerate(plans):
            if t == 0 or t - 1 in points:
                point = min(p for p in points if p >= t)
                last_touch = {k: r for r in range(t, point + 1) for k in plans[r].senders + plans[r].receivers}
                initial_tested = False
                for k in sorted(set(range(1, hyper.num_clients + 1)) - last_touch.keys()):
                    add(k)
                    initial_tested = initial_tested or k not in touched
            following = plans[t + 1].senders if t < hyper.rounds else ()
            order += [("update", t + 1, s) for s in following if s not in plan.senders + plan.receivers]
            for pair in plan.pairs():
                order += [("half", t, pair[1])] if strategy is FusionStrategy.DEFKT else []
                touched.update(pair)
                order += [("update", t + 1, s) for s in following if s in pair]
                for k in sorted(k for k in pair if last_touch[k] == t):
                    add(k)
        return order

    @staticmethod
    def logged_run(monkeypatch, hyper: HyperParams, strategy: FusionStrategy, eval_every: int):
        """The run's timeline and final states, the (round, sender) of each update submitted as a task, and the
        (kind, round, client) of each task in submission order.

        Each evaluation's record is the client's next record point; a test-set task's client is that of the
        validation task submitted right after it; a fusion's halves are one entry."""
        submitted = []  # (round, sender) of each update submitted as a task
        log = []  # (kind, round, client) of each task; evaluations' rounds are filled in below
        clients = experiment_states(hyper)
        owner = {id(c.data.validation): k for k, c in clients.items()}
        fusing = [None]  # (round, receiver) of the pair whose fusion runs
        fuse_pair = federation._fuse_pair

        def logged_pair(states, sender_id, receiver_id, sender, round_index, *args):
            fusing[0] = round_index, receiver_id
            fuse_pair(states, sender_id, receiver_id, sender, round_index, *args)

        class Recording(metrics.Task):
            def __init__(self, pool, work, fn, *args):
                if fn is federation._sender_update:
                    submitted.append((args[2], args[1]))
                    log.append(("update", args[2], args[1]))
                elif fn is metrics.evaluate:
                    data = id(args[2])
                    log.append(("validation", None, owner[data]) if data in owner else ("test", None, None))
                else:
                    log.append(("half", *fusing[0]))
                super().__init__(pool, work, fn, *args)

        with monkeypatch.context() as patch:
            patch.setattr(federation, "Task", Recording)
            patch.setattr(metrics, "Task", Recording)
            patch.setattr(federation, "_fuse_pair", logged_pair)
            timeline, final = run_experiment(SPEC, hyper, strategy, clients, TestRecordSchedule.TEST_DATA,
                                             eval_every=eval_every)
        points, records, tasks = TestRecordSchedule.record_points(hyper.rounds, eval_every), Counter(), []
        for i, (kind, r, k) in enumerate(log):
            if kind == "validation":
                r, records[k] = points[records[k]], records[k] + 1
            elif kind == "test":
                _, _, k = log[i + 1]
                r = points[records[k]]
            tasks += [] if tasks and kind == "half" and tasks[-1] == (kind, r, k) else [(kind, r, k)]
        return timeline, final, submitted, log, tasks

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_pooled_look_ahead_equals_the_inline_run_and_the_replay(self, case, strategy, monkeypatch):
        rounds, eval_every, overrides = case
        hyper = tiny_hyper(rounds=rounds, **overrides)
        inline, inline_final = run_experiment(SPEC, hyper, strategy, experiment_states(hyper),
                                              TestRecordSchedule.TEST_DATA, eval_every=eval_every)
        replay, replay_final = TestRecordSchedule.replayed(hyper, strategy, eval_every)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pooled, pooled_final, submitted, log, tasks = self.logged_run(monkeypatch, hyper, strategy, eval_every)
        assert pooled == inline == replay
        for k in replay_final:
            assert pooled_final[k].params.tobytes() == inline_final[k].params.tobytes() == replay_final[k].params.tobytes()
        expected = self.look_aheads(hyper)
        assert submitted == expected
        assert sorted(expected) == sorted((r, s) for r in range(1, rounds + 1) for s in self.plans(hyper)[r].senders)
        assert bool(expected) == (rounds > 0)
        kinds = ["evaluation" if kind in ("test", "validation") else kind for kind, _, _ in log]
        if rounds:  # round 1's updates go behind the initial record's evaluations, one a client at least
            first = kinds.index("update")
            assert set(kinds[:first]) == {"evaluation"} and first >= hyper.num_clients
        assert tasks == self.task_order(hyper, strategy, eval_every)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_one_usable_cpu_makes_the_pooled_runs_tasks_in_its_order(self, case, strategy, monkeypatch):
        """With no pool every update is a task too, submitted as soon as its state is final and made then,
        on the trainer: the one-CPU run's task log is the pooled run's."""
        rounds, eval_every, overrides = case
        hyper = tiny_hyper(rounds=rounds, **overrides)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        threads = []
        monkeypatch.setattr(federation, "local_update",
                            lambda *args: threads.append(threading.current_thread()) or local_update(*args))
        _, _, submitted, _, tasks = self.logged_run(monkeypatch, hyper, strategy, eval_every)
        assert submitted == self.look_aheads(hyper)
        assert tasks == self.task_order(hyper, strategy, eval_every)
        assert threads == [threading.main_thread()] * len(submitted)

    def test_the_k6_q2_case_has_free_and_busy_next_round_senders_in_a_round(self):
        """Some round leaves one of the next round's senders free (started at its start) and holds the other
        in a pair (started after that pair), and some such pair is a round's first pair."""
        (rounds, _, overrides), = [case for case, name in zip(self.CASES, self.IDS) if name == "k6-q2"]
        plans = self.plans(tiny_hyper(rounds=rounds, **overrides))
        busy = [[s in plan.senders + plan.receivers for s in following.senders]
                for plan, following in zip(plans[1:], plans[2:])]
        assert [True, False] in busy or [False, True] in busy
        assert any(set(following.senders) & set(plan.pairs()[0]) for plan, following in zip(plans[1:], plans[2:]))

    def test_a_wide_pool_under_a_short_switch_interval_gives_the_inline_bits(self, monkeypatch):
        """Five pool threads on this host's cores and thread switches every microsecond; seven look-aheads."""
        hyper = tiny_hyper(rounds=7)
        assert len(self.look_aheads(hyper)) == 7

        def run():
            return run_experiment(SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper),
                                  TestRecordSchedule.TEST_DATA, eval_every=10)

        inline, inline_final = run()
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run() for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for timeline, final in runs:
            assert timeline == inline
            assert all(final[k].params.tobytes() == inline_final[k].params.tobytes() for k in inline_final)

    @staticmethod
    def fail_in_order(monkeypatch, hyper: HyperParams, fusion: tuple[int, int], update: tuple[int, int]) -> None:
        """In a defkt run, the update (round, client) `update`, started early on a pool thread, raises, and the
        fusion (round, receiver) `fusion` of an earlier round raises while that update runs; the fusion's
        error is the one raised, and no task is left running.

        The update's submission waits until a pool thread has started it, so the trainer cannot take it
        over, and the update runs until the fusion raises."""
        fusing = derive_rng(hyper.seed, MKT_STREAM, *fusion).bit_generator.state
        updating = derive_rng(hyper.seed, LOCAL_STREAM, *update).bit_generator.state
        started, raised, running, threads = threading.Event(), threading.Event(), [], []

        class Started(metrics.Task):
            def __init__(self, pool, work, fn, *args):
                super().__init__(pool, work, fn, *args)
                if fn is federation._sender_update and (args[2], args[1]) == update:
                    assert started.wait(10)

        def failing_update(client, spec, batch_size, passes, lr, momentum, rng, reduction):
            if rng.bit_generator.state == updating:
                threads.append(threading.current_thread())
                running.append(True)
                started.set()
                raised.wait(10)
                time.sleep(0.05)
                running.pop()
                raise NumericalError("update diverged")
            return local_update(client, spec, batch_size, passes, lr, momentum, rng, reduction)

        def failing_fusion(received, local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng, *rest):
            if rng.bit_generator.state == fusing:
                assert started.is_set() and running == [True]
                raised.set()
                raise NumericalError("fusion diverged")
            return fuse_defkt(received, local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng, *rest)

        monkeypatch.setattr(federation, "Task", Started)
        monkeypatch.setattr(federation, "local_update", failing_update)
        monkeypatch.setattr(federation, "fuse_defkt", failing_fusion)
        before = threading.active_count()
        with pytest.raises(NumericalError, match=f"^round {fusion[0]}, client {fusion[1]}: fusion diverged$"):
            run_experiment(SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper),
                           TestRecordSchedule.TEST_DATA, eval_every=10)
        assert raised.is_set()
        assert len(threads) == 1 and threads[0] is not threading.main_thread()
        assert running == []
        assert threading.active_count() == before

    def test_an_error_in_a_round_is_raised_before_the_next_rounds_pooled_one(self, forced_pool, monkeypatch):
        """Round 4's fusion raises while round 5's update, started at round 4's start, raises too."""
        hyper = tiny_hyper(rounds=7)
        plans = self.plans(hyper)
        assert (plans[4].senders, plans[4].receivers, plans[5].senders) == ((3,), (1,), (4,))
        self.fail_in_order(monkeypatch, hyper, fusion=(4, 1), update=(5, 4))

    def test_a_pairs_error_is_raised_before_an_update_submitted_after_the_pair_before(self, forced_pool, monkeypatch):
        """At Q=2, round r+1's update submitted right after round r's first pair raises, and round r's second
        pair raises while it runs: the second pair's error is raised."""
        hyper = tiny_hyper(rounds=7, num_clients=6, senders_per_round=2)
        plans = self.plans(hyper)
        r, s = next((r, s) for r in range(1, hyper.rounds) for s in plans[r + 1].senders if s in plans[r].pairs()[0])
        self.fail_in_order(monkeypatch, hyper, fusion=(r, plans[r].receivers[1]), update=(r + 1, s))

    def test_updates_below_the_gate_stay_inline(self, monkeypatch):
        """With the pool open for the test set only, every update is made on the trainer."""
        hyper = tiny_hyper(rounds=7)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", hyper.local_batch_size * SPEC.train_macs_per_row + 1)
        assert len(TestRecordSchedule.TEST_DATA) * SPEC.macs_per_row >= metrics.PARALLEL_EVAL_WORK
        threads = []
        monkeypatch.setattr(federation, "local_update",
                            lambda *args: threads.append(threading.current_thread()) or local_update(*args))
        run_experiment(SPEC, hyper, FusionStrategy.DEFKT, experiment_states(hyper), TestRecordSchedule.TEST_DATA,
                       eval_every=10)
        assert threads == [threading.main_thread()] * hyper.rounds

    def test_a_cnn_small_update_reaches_the_default_gate_by_a_training_steps_work(self, monkeypatch):
        """A 40-row cnn-small update is below the gate by its forward's work and above it by a training step's,
        so with two usable CPUs it trains on the pool; the run is bitwise the one-CPU run."""
        spec = ModelSpec.cnn_small()
        hyper = tiny_hyper(num_clients=6, rounds=4, local_batch_size=40, mkt_batch_size=40)
        data = synth_dataset(10, 30, spec.input_dim, seed=1)
        shards = [data.subset(np.arange(i, len(data), 6)) for i in range(6)]  # 50 rows each, 40 to train on
        test = synth_dataset(10, 2, spec.input_dim, seed=2)
        assert 40 * spec.macs_per_row < metrics.PARALLEL_EVAL_WORK <= 40 * spec.train_macs_per_row
        assert self.look_aheads(hyper)

        def run(cpus: int):
            monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            states = build_client_states(spec, shards, hyper)
            assert {len(state.data.train) for state in states.values()} == {40}
            return run_experiment(spec, hyper, FusionStrategy.DEFKT, states, test, eval_every=10)

        inline, inline_final = run(1)
        threads = []
        monkeypatch.setattr(federation, "local_update",
                            lambda *args: threads.append(threading.current_thread()) or local_update(*args))
        pooled, pooled_final = run(2)
        assert any(thread is not threading.main_thread() for thread in threads)
        assert pooled == inline
        assert all(pooled_final[k].params.tobytes() == inline_final[k].params.tobytes() for k in inline_final)


class TestScheduleExplorer:
    """Seeded pool schedules (tests/schedules.py) give the inline run's timeline and bits, or its error.

    The inline run's timeline and bits are also the serial reference's, replayed round by round.

    Every case also leaves no task behind and reaches at least one of the task states the
    explorer counts: a queued task taken over, a held task waited on with tasks queued, or a
    task finished before its result was asked for.
    """

    SEEDS = range(20)
    ERROR_SEEDS = range(100)

    @staticmethod
    def run(hyper: HyperParams, strategy: FusionStrategy, eval_every: int):
        timeline, final = run_experiment(SPEC, hyper, strategy, experiment_states(hyper),
                                         TestRecordSchedule.TEST_DATA, eval_every=eval_every)
        return timeline, [final[k].params.tobytes() for k in sorted(final)]

    @staticmethod
    def explored(monkeypatch, run, seed: int, inline) -> None:
        exploration = schedules.explore(monkeypatch, run, seed)
        assert exploration.outcome == inline, f"seed {seed}, schedule {exploration.schedule}"
        assert len(exploration.pools) == 1 and exploration.pools[0].idle()
        assert any(exploration.reached()[state] for state in schedules.STATES), f"seed {seed} reached no state"

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("case", TestRecordSchedule.CASES, ids=TestRecordSchedule.IDS)
    def test_every_schedule_gives_the_inline_timeline_and_bits(self, case, strategy, monkeypatch):
        rounds, eval_every, overrides = case
        hyper = tiny_hyper(rounds=rounds, **overrides)
        run = functools.partial(self.run, hyper, strategy, eval_every)
        timeline, states = TestRecordSchedule.replayed(hyper, strategy, eval_every)
        replay = "value", (timeline, [states[k].params.tobytes() for k in sorted(states)])
        assert schedules.outcome(run) == replay
        for seed in self.SEEDS:
            self.explored(monkeypatch, run, seed, replay)

    @staticmethod
    def failing(monkeypatch, hyper: HyperParams, seed: int) -> None:
        """The fusion of a seeded pair of a seeded round r raises, and so do both updates of round r + 1.

        So the inline run raises the fusion's error, while the round-(r + 1) updates that a pooled run starts
        or takes over during round r raise too."""
        plans, rng = TestSenderLookahead.plans(hyper), random.Random(seed)
        r = rng.randrange(1, hyper.rounds)
        fusions = {repr(derive_rng(hyper.seed, MKT_STREAM, r, rng.choice(plans[r].receivers)).bit_generator.state)}
        updates = {repr(derive_rng(hyper.seed, LOCAL_STREAM, r + 1, s).bit_generator.state)
                   for s in plans[r + 1].senders}

        def failing_update(client, spec, batch_size, passes, lr, momentum, rng, reduction):
            if repr(rng.bit_generator.state) in updates:
                raise NumericalError("update diverged")
            return local_update(client, spec, batch_size, passes, lr, momentum, rng, reduction)

        def failing_fusion(received, local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng, *rest):
            if repr(rng.bit_generator.state) in fusions:
                raise NumericalError("fusion diverged")
            return fuse_defkt(received, local, data, spec, batch_size, passes, lr_r, lr_l, momentum, rng, *rest)

        monkeypatch.setattr(federation, "local_update", failing_update)
        monkeypatch.setattr(federation, "fuse_defkt", failing_fusion)

    def test_waits_on_running_updates_reach_later_rounds(self, monkeypatch):
        """The trainer waits on a running update with work queued after round 2 too, not only behind the initial record."""
        hyper = tiny_hyper(rounds=7, num_clients=6, senders_per_round=2)
        run = functools.partial(self.run, hyper, FusionStrategy.DEFKT, 10)
        rounds = Counter()
        for seed in self.SEEDS:
            rounds += schedules.explore(monkeypatch, run, seed).helped_rounds()
        assert len([r for r in rounds if r >= 3]) >= 3, rounds

    @pytest.mark.parametrize("seed", ERROR_SEEDS)
    def test_every_schedule_raises_the_inline_runs_error(self, seed, monkeypatch):
        hyper = tiny_hyper(rounds=7, num_clients=6, senders_per_round=2, seed=seed)
        self.failing(monkeypatch, hyper, seed)
        run = functools.partial(self.run, hyper, FusionStrategy.DEFKT, 10)
        inline = schedules.outcome(run)
        kind, (error, message) = inline
        assert kind == "error" and error is NumericalError and message.endswith("fusion diverged")
        self.explored(monkeypatch, run, seed, inline)
