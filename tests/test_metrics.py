"""Metrics tests: evaluation, client aggregates, CSV round trips."""

import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from defkt.data import ClientData, Dataset, synth_dataset, train_val_split
from defkt import metrics
from defkt.errors import ConfigurationError, LoadError
from defkt.federation import ClientState
from defkt.metrics import (
    MetricsRecord,
    emit_csv,
    evaluate,
    global_accuracy,
    local_accuracy,
    read_csv,
)
from defkt.nn import Batch, ModelSpec, forward, init_params, param_count

from oracles import ComputeProbe, accuracy_by_loop, count_thread_starts, whole_record


SPEC = ModelSpec.mlp(6, (5,), 3)


class TestEvaluate:
    def test_zero_params_predict_lowest_class(self):
        # all logits tie at zero; argmax resolves to class 1
        data = synth_dataset(3, 10, 6, seed=1)  # balanced: 10 per class
        acc = evaluate(SPEC, np.zeros(param_count(SPEC)), data)
        assert acc == pytest.approx(10 / 30)

    def test_perfect_one_hot_logit_model(self):
        # single linear layer with weights 10*I turns one-hot inputs into h(y)*10
        spec = ModelSpec.mlp(3, (), 3)
        params = np.concatenate([10.0 * np.eye(3).ravel(), np.zeros(3)])
        labels = np.array([1, 2, 3, 2, 1])
        inputs = np.eye(3)[labels - 1]
        data = Dataset(inputs, labels, 3)
        assert evaluate(spec, params, data) == 1.0

    def test_matches_per_sample_loop(self):
        data = synth_dataset(3, 17, 6, seed=2)  # 51 samples
        params = init_params(SPEC, 4)
        logits = forward(SPEC, params, Batch(data.inputs, data.labels))
        assert evaluate(SPEC, params, data) == pytest.approx(
            accuracy_by_loop(logits, data.labels)
        )

    def test_chunking_does_not_change_result(self, monkeypatch):
        data = synth_dataset(3, 40, 6, seed=3)
        params = init_params(SPEC, 5)
        monkeypatch.setattr(metrics, "EVAL_CHUNK_ROWS", 7)
        chunked = evaluate(SPEC, params, data)
        monkeypatch.setattr(metrics, "EVAL_CHUNK_ROWS", 1000)
        assert chunked == evaluate(SPEC, params, data)

    def test_cnn_small_chunk_peaks_far_below_its_unblocked_working_set(self):
        # one 2,048-row chunk: the unblocked conv stack peaked at 227 MB, the blocked one
        # holds one block's arrays (about 1 MiB each) and the (2048, 16, 5, 5) stack output
        spec = ModelSpec.cnn_small()
        data = Dataset(np.random.default_rng(7).standard_normal((2048, spec.input_dim)), np.ones(2048, dtype=int), 10)
        params = init_params(spec, 2)
        evaluate(spec, params, data.subset(np.arange(20)))  # the patch indices are derived before the count
        tracemalloc.start()
        try:
            evaluate(spec, params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_empty_dataset_unrepresentable(self):
        # the Dataset and subset invariant (N >= 1) blocks empty evaluation inputs upstream
        data = synth_dataset(3, 5, 6, seed=1)
        with pytest.raises(ConfigurationError):
            data.subset(np.array([], dtype=int))
        with pytest.raises(ConfigurationError):
            data.subset(np.arange(6)).subset(np.array([], dtype=int))


def client_with(params_seed: int, data_seed: int) -> ClientState:
    data = synth_dataset(3, 12, 6, seed=data_seed)
    split = train_val_split(data, seed=data_seed + 1)
    return ClientState(params=init_params(SPEC, params_seed), data=split)


class TestAggregates:
    def test_global_accuracy_of_identical_models(self):
        test_data = synth_dataset(3, 20, 6, seed=9)
        states = {k: client_with(42, data_seed=k) for k in (1, 2, 3)}
        single = evaluate(SPEC, states[1].params, test_data)
        assert global_accuracy(states, SPEC, test_data) == pytest.approx(single)

    def test_global_accuracy_is_mean(self):
        test_data = synth_dataset(3, 20, 6, seed=9)
        states = {k: client_with(k, data_seed=k) for k in (1, 2)}
        by_hand = np.mean([evaluate(SPEC, states[k].params, test_data) for k in (1, 2)])
        assert global_accuracy(states, SPEC, test_data) == pytest.approx(by_hand)

    def test_global_accuracy_with_partially_shared_models(self):
        # two clients share one model, a third differs; deduplication must not skew the mean
        test_data = synth_dataset(3, 20, 6, seed=9)
        states = {1: client_with(5, 1), 2: client_with(5, 2), 3: client_with(6, 3)}
        by_hand = np.mean([evaluate(SPEC, states[k].params, test_data) for k in (1, 2, 3)])
        assert global_accuracy(states, SPEC, test_data) == pytest.approx(by_hand)

    def test_local_accuracy_single_client(self):
        states = {1: client_with(7, data_seed=3)}
        expected = evaluate(SPEC, states[1].params, states[1].data.validation)
        assert local_accuracy(states, SPEC) == pytest.approx(expected)

    def test_local_accuracy_is_mean_over_clients(self):
        states = {k: client_with(k, data_seed=10 + k) for k in (1, 2, 3, 4)}
        by_hand = np.mean(
            [evaluate(SPEC, s.params, s.data.validation) for s in states.values()]
        )
        assert local_accuracy(states, SPEC) == pytest.approx(by_hand)

    def test_iid_style_validation_reuse_is_accepted(self):
        # validation may alias train data structurally; only emptiness is fatal,
        # and empty Datasets cannot be constructed at all
        client = client_with(1, data_seed=1)
        states = {
            1: ClientState(client.params, ClientData(train=client.data.train, validation=client.data.train))
        }
        assert 0.0 <= local_accuracy(states, SPEC) <= 1.0


class TestThreadedEvaluation:
    """A record on the run's pool, the caller taking over what no pool thread started, gives the serial loop's floats."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Opens the evaluation pool of a two-CPU host for any record; yields the probe around evaluate."""
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        probe = ComputeProbe(pause=0.002)
        monkeypatch.setattr(metrics, "evaluate", probe.wrap(evaluate))
        before = threading.active_count()
        yield probe
        assert threading.active_count() == before  # the pool is joined when it is left

    def assert_one_thread_per_cpu(self, probe):
        """The one pool thread of a two-CPU host took part, beside the caller and never more."""
        assert probe.peak <= 2
        assert len(set(probe.threads) - {threading.main_thread()}) == 1

    def pooled_record(self, states, test_data):
        with metrics.evaluation_pool(SPEC, states, test_data) as pool:
            return whole_record(pool, SPEC, states, test_data).collect()

    def test_global_accuracy_with_partially_shared_models(self, probe):
        test_data = synth_dataset(3, 20, 6, seed=9)
        vectors = {seed: init_params(SPEC, seed) for seed in (5, 6, 7)}
        states = {k: replace(client_with(seed, data_seed=k), params=vectors[seed])
                  for k, seed in zip(range(1, 6), (5, 6, 5, 7, 6))}
        serial = float(np.mean([evaluate(SPEC, states[k].params, test_data) for k in sorted(states)]))
        global_acc, _ = self.pooled_record(states, test_data)
        assert global_acc == serial
        assert len(probe.threads) == 3 + 5  # a test evaluation per vector object, a validation per client
        self.assert_one_thread_per_cpu(probe)

    def test_local_accuracy(self, probe):
        test_data = synth_dataset(3, 20, 6, seed=9)
        states = {k: client_with(k, data_seed=10 + k) for k in (1, 2, 3, 4)}
        serial = float(np.mean([evaluate(SPEC, s.params, s.data.validation) for s in states.values()]))
        _, local_acc = self.pooled_record(states, test_data)
        assert local_acc == serial
        assert len(probe.threads) == 4 + 4
        self.assert_one_thread_per_cpu(probe)

    def test_empty_validation_names_lowest_client_before_any_evaluation(self, probe):
        states = {k: client_with(k, data_seed=k) for k in (1, 2, 3)}
        for k in (3, 2):  # a subset refuses zero rows, so empty them after construction
            states[k].data.validation.index = np.empty(0, dtype=np.intp)
        with pytest.raises(ConfigurationError, match="client 2 has an empty validation set"):
            local_accuracy(states, SPEC)
        assert probe.threads == []

    def test_small_evaluations_stay_on_the_calling_thread(self, monkeypatch):
        """No thread starts when every evaluation falls below the gate, even if the pool opens."""
        threads = []
        monkeypatch.setattr(metrics, "evaluate", lambda *a: threads.append(threading.current_thread()) or 0.5)
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        states = {k: client_with(k, data_seed=k) for k in (1, 2, 3)}
        test_data = synth_dataset(3, 20, 6, seed=9)
        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", len(test_data) * SPEC.param_count)
        started = count_thread_starts(monkeypatch)
        with metrics.evaluation_pool(SPEC, states, test_data) as pool:
            whole_record(pool, SPEC, states, test_data).collect()
        assert started == []
        assert threads == [threading.main_thread()] * 6


class TestTask:
    """A call on the pool or taken over: its value or error comes out of result(), made exactly once."""

    def test_a_waiting_thread_takes_over_queued_work_before_it_blocks(self):
        started, release, threads = threading.Event(), threading.Event(), []

        def first():
            started.set()
            assert release.wait(10)  # only the second task releases it
            return "first"

        def second():
            threads.append(threading.current_thread())
            release.set()
            return "second"

        with ThreadPoolExecutor(1) as pool:
            running = metrics.Task(pool, metrics.PARALLEL_EVAL_WORK, first)
            assert started.wait(10)
            queued = metrics.Task(pool, metrics.PARALLEL_EVAL_WORK, second)
            assert running.result(helping=[queued, running]) == "first"
            assert queued.result() == "second"
        assert threads == [threading.main_thread()]

    def test_an_error_of_a_call_taken_over_is_raised_by_result(self):
        class Failed(Exception):
            pass

        def fail():
            raise Failed("taken over and failed")

        started, release = threading.Event(), threading.Event()
        with ThreadPoolExecutor(1) as pool:
            blocker = metrics.Task(pool, metrics.PARALLEL_EVAL_WORK, lambda: started.set() or release.wait(10))
            assert started.wait(10)
            task = metrics.Task(pool, metrics.PARALLEL_EVAL_WORK, fail)
            assert task.take_over()
            assert not task.take_over()
            release.set()
            blocker.result()
            with pytest.raises(Failed, match="taken over and failed"):
                task.result()

    @pytest.mark.parametrize("pooled", [False, True], ids=["no-pool", "below-the-gate"])
    def test_an_inline_calls_error_is_raised_by_result_not_at_submission(self, pooled, monkeypatch):
        """Below the gate, or with no pool, the call is made once, at submission, and its error kept for result()."""
        class Failed(Exception):
            pass

        calls = []

        def fail():
            calls.append(threading.current_thread())
            raise Failed("made inline and failed")

        started = count_thread_starts(monkeypatch)
        with ThreadPoolExecutor(1) as pool:
            task = metrics.Task(pool if pooled else None, metrics.PARALLEL_EVAL_WORK - 1, fail)
            assert calls == [threading.main_thread()]
            assert not task.take_over()
            for _ in range(2):
                with pytest.raises(Failed, match="made inline and failed"):
                    task.result()
        assert calls == [threading.main_thread()]
        assert started == []


class TestRecordKeys:
    """Test-set slots: clients holding the same vector object share one, a bitwise copy gets its own."""

    SPEC = ModelSpec.mlp(20, (8,), 3)

    def slots(self, vectors):
        data = train_val_split(synth_dataset(3, 12, 20, seed=1), seed=2)
        states = {k: ClientState(v, data) for k, v in enumerate(vectors, start=1)}
        record = whole_record(None, self.SPEC, states, synth_dataset(3, 5, 20, seed=3))
        tests = [record._tests[k] for k in sorted(states)]
        distinct = list(dict.fromkeys(tests))  # the test-set tasks in the order they were submitted
        return [distinct.index(task) for task in tests]

    def test_the_same_object_shares_a_slot_and_a_copy_gets_its_own(self):
        a, b = init_params(self.SPEC, 1), init_params(self.SPEC, 2)
        assert self.slots([a, b, a.copy(), b, a]) == [0, 1, 2, 1, 0]

    def test_a_record_keeps_no_vector_once_its_last_client_is_added(self):
        data = train_val_split(synth_dataset(3, 12, 20, seed=1), seed=2)
        record = metrics.Record(None, self.SPEC, synth_dataset(3, 5, 20, seed=3), 3)
        refs = []
        for k in (1, 2, 3):
            params = init_params(self.SPEC, k)
            refs.append(weakref.ref(params))
            record.add(k, ClientState(params, data))
            del params  # evaluated inline, so only the record's comparison table can still hold it
            assert [ref() is None for ref in refs] == [k == 3] * k

    def test_a_record_copies_no_vector(self, monkeypatch):
        """Submitting a record of ten distinct reference-MLP vectors allocates less than one vector."""
        import tracemalloc
        from concurrent.futures import Future

        class HeldPool:  # takes tasks and starts none, so only the submission is measured
            def submit(self, fn, *args):
                return Future()

        monkeypatch.setattr(metrics, "PARALLEL_EVAL_WORK", 0)  # every evaluation goes to the held pool

        spec = ModelSpec.mlp(784)
        data = train_val_split(synth_dataset(3, 4, 784, seed=1), seed=2)
        rng = np.random.default_rng(5)
        states = {k: ClientState(rng.standard_normal(spec.param_count), data) for k in range(1, 11)}
        test_data = synth_dataset(3, 2, 784, seed=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            whole_record(HeldPool(), spec, states, test_data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < spec.param_count * 8


class TestCsv:
    def records(self):
        return [
            MetricsRecord(0, "defkt", 1, 0.101, 0.099, 0),
            MetricsRecord(10, "defkt", 1, 0.52, 0.51, 199210),
            MetricsRecord(20, "defkt", 1, 0.703125, 0.687500, 398420),
        ]

    def test_empty_timeline_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], str(path))
        assert path.read_bytes() == b"round,strategy,seed,global_acc,local_acc,scalars_transmitted\n"

    def test_single_record_layout(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([MetricsRecord(5, "combo", 3, 0.25, 0.75, 1000)], str(path))
        lines = path.read_text().splitlines()
        assert lines == [
            "round,strategy,seed,global_acc,local_acc,scalars_transmitted",
            "5,combo,3,0.250000,0.750000,1000",
        ]

    def test_rows_sorted_by_round(self, tmp_path):
        path = tmp_path / "sorted.csv"
        records = self.records()
        emit_csv(list(reversed(records)), str(path))
        assert [r.round for r in read_csv(str(path))] == [0, 10, 20]

    def test_round_trip_at_printed_precision(self, tmp_path):
        path = tmp_path / "rt.csv"
        records = self.records()
        emit_csv(records, str(path))
        parsed = read_csv(str(path))
        assert len(parsed) == len(records)
        for original, back in zip(records, parsed):
            assert back.round == original.round
            assert back.strategy == original.strategy
            assert back.seed == original.seed
            assert back.scalars_transmitted == original.scalars_transmitted
            assert back.global_acc == pytest.approx(original.global_acc, abs=5e-7)
            assert back.local_acc == pytest.approx(original.local_acc, abs=5e-7)

    def test_reparse_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(LoadError):
            read_csv(str(path))

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.records(), str(path))
        earlier = path.read_bytes()

        class Unwritable(float):
            def __format__(self, spec):
                raise OSError("disk full")

        failing = [MetricsRecord(0, "defkt", 1, 0.5, 0.5, 0), MetricsRecord(10, "defkt", 1, Unwritable(0.5), 0.5, 1)]
        with pytest.raises(LoadError, match="out.csv: disk full"):
            emit_csv(failing, str(path))  # fails after its first row
        assert path.read_bytes() == earlier
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_unwritable_path_raises_with_path(self, tmp_path):
        bad = tmp_path / "nope" / "out.csv"
        with pytest.raises(LoadError, match="out.csv"):
            emit_csv([], str(bad))
