"""Model evaluation, accuracy aggregates over clients, CSV emission.

A record's evaluations (each distinct vector object on the shared test
set, every client on its own validation set) are tasks that a Record
submits client by client, as each client's state for the record becomes
final, and collects later. A task's work is its multiply-adds: an
evaluation's or a fusion half's rows x the model's multiply-adds per row
of a forward (spec.macs_per_row), a local update's batch rows x those of a
training step (spec.train_macs_per_row). Task applies the one gate: a task
goes to the run's pool only if there is one and its own work reaches
PARALLEL_EVAL_WORK; any other task is made as it is submitted. Either way
its value or error comes out of result(). A run's one pool comes from
evaluation_pool. The pool also trains: fuse_defkt's local-model halves and
run_experiment's look-ahead updates (see federation). It takes tasks in
submission order. The collecting thread evaluates, last first, every
pooled evaluation no pool thread has started, and the trainer takes over a
fusion half or an update the same way, and queued tasks while a pool
thread makes the update it needs, so at most one thread per CPU computes.
global_accuracy and local_accuracy are the serial reference and evaluate
on the calling thread.

The accuracies are bitwise those of a plain loop: each evaluation is one
single-threaded forward (one BLAS thread) on vectors nothing writes (the
purity contract in nn), and each mean sums the per-client list in client
order, whatever order the clients were added in. A task drops its vector
once evaluated.

Clients of one record that hold the same vector object share one test-set
evaluation. A record holds each vector it has seen until its last client
is added, so no object id is reused meanwhile.
"""

from __future__ import annotations

import contextvars
import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass
import numpy as np

from .data import Dataset, Rows
from .errors import ConfigurationError, LoadError
from .nn import ModelSpec, check_features, forward

CSV_FIELDS = ("round", "strategy", "seed", "global_acc", "local_acc", "scalars_transmitted")
# Rows per evaluation forward. The chunk fixes the GEMM row count and so the
# bits of the logits: the reference MLP's logits on 1,000 rows differ bitwise
# between one call and two 500-row chunks. Changing it can change accuracies.
EVAL_CHUNK_ROWS = 2048
# Multiply-adds from which a task (an evaluation, a fusion half or a local
# update) goes to the run's pool; a run none of whose tasks can reach it
# opens none. Below it a threaded task costs more than it saves, so
# hetero-sweep's 32x32 MLP and cnn-pairs' fusion halves stay inline
# (ROADMAP item 1 lists what falls on each side).
PARALLEL_EVAL_WORK = 10_000_000


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation point of a run."""

    round: int
    strategy: str
    seed: int
    global_acc: float
    local_acc: float
    scalars_transmitted: int


def evaluate(spec: ModelSpec, params: np.ndarray, data: Rows) -> float:
    """Top-1 accuracy of a model on a dataset; argmax ties go to the lowest class."""
    if len(data) < 1:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, len(data), EVAL_CHUNK_ROWS):
        stop = min(start + EVAL_CHUNK_ROWS, len(data))
        batch = data.batch(slice(start, stop))
        predictions = forward(spec, params, batch).argmax(axis=1) + 1
        correct += int((predictions == batch.labels).sum())
    return correct / len(data)


@contextmanager
def evaluation_pool(spec: ModelSpec, states: dict, test: Dataset):
    """Yield a pool of usable CPUs - 1 threads for a run of `states` on `test`, or None.

    A record's input errors (a test set of the wrong width, an empty
    validation set) are raised first. None when one CPU is usable or the
    largest dataset a task reads (the test set, a validation or a training
    set) x spec.train_macs_per_row, which bounds every task's work, falls
    below PARALLEL_EVAL_WORK. The pool starts no thread before a task
    reaches the gate (Task). On exit, tasks no thread has started are
    cancelled and the pool's threads are joined.
    """
    check_features(spec, test.inputs)
    _check_validation_sets(states)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    rows = max([len(test), *(len(d) for s in states.values() for d in (s.data.train, s.data.validation))])
    if cpus < 2 or rows * spec.train_macs_per_row < PARALLEL_EVAL_WORK:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(cpus - 1)
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


class Task:
    """One call fn(*args) of `work` multiply-adds, made once; its value, or the error it raised, comes out of result().

    With a pool and work at or above PARALLEL_EVAL_WORK the call is
    submitted to the pool and made by a pool thread, or by the thread that
    takes it over if none has started it; otherwise it is made at once, on
    the submitting thread. A pool thread makes it in a copy of the
    submitting thread's context, so numpy's error state (np.errstate) is
    the submitter's. Records' evaluations, fuse_defkt's halves and
    run_experiment's look-ahead updates are tasks.
    """

    def __init__(self, pool, work: int, fn, *args):
        self._call, self._value, self._error, self._future = (fn, args), None, None, None
        if pool is not None and work >= PARALLEL_EVAL_WORK:
            self._future = pool.submit(contextvars.copy_context().run, self._run)
        else:
            self._run()

    def _run(self) -> None:
        """Make the call and keep its value or error, wherever it runs; keep no argument once called."""
        (fn, args), self._call = self._call, None
        try:
            self._value = fn(*args)
        except Exception as exc:
            self._error = exc

    def take_over(self) -> bool:
        """Make the call on this thread if no pool thread has started it; whether this thread made it."""
        if self._future is None or not self._future.cancel():
            return False
        self._future = None
        self._run()
        return True

    def result(self, helping=()):
        """The call's value, made here if no pool thread has started it; an error it raised is raised here.

        While a pool thread makes it, this thread takes over, last first,
        each task of `helping` that no pool thread has started, rather than
        wait while work is queued.
        """
        if self._future is not None and not self.take_over():
            for task in reversed(helping):
                if self._future.done():
                    break
                task.take_over()
            self._future.result()
        if self._error is not None:
            raise self._error
        return self._value

    def discard(self) -> None:
        """Cancel the call if no pool thread has started it, else wait for it; its outcome is dropped."""
        if self._future is not None and not self._future.cancel():
            self._future.exception()  # waits; a pool thread has started it, so it is not cancelled


class Record:
    """One record's evaluations, taken client by client: add(k, state) for each of `clients` clients, then collect().

    Adding a client submits its test-set task, unless a client added
    before holds the same vector object (common early in a run, when most
    clients still hold the shared initial vector), and its validation task.
    The record holds each vector it has seen until its last client is
    added, so no id is reused meanwhile. `tasks` lists its tasks in
    submission order, for a thread that helps while it waits (Task.result).
    """

    def __init__(self, pool, spec: ModelSpec, test: Dataset, clients: int):
        self._pool, self._spec, self._test, self._left = pool, spec, test, clients
        self._seen: dict[int, tuple[np.ndarray, Task]] | None = {}  # id -> (the vector, its test-set task)
        self.tasks: list[Task] = []  # in submission order
        self._tests: dict[int, Task] = {}
        self._validations: dict[int, Task] = {}

    def _submit(self, params: np.ndarray, data: Rows) -> Task:
        self.tasks.append(Task(self._pool, len(data) * self._spec.macs_per_row, evaluate, self._spec, params, data))
        return self.tasks[-1]

    def add(self, k: int, state) -> None:
        """Submit client k's evaluations on `state`, its state at this record."""
        params, key = state.params, id(state.params)
        if key not in self._seen:
            self._seen[key] = params, self._submit(params, self._test)
        self._tests[k] = self._seen[key][1]
        self._validations[k] = self._submit(params, state.data.validation)
        self._left -= 1
        if self._left == 0:
            self._seen = None

    def collect(self) -> tuple[float, float]:
        """(global_acc, local_acc), each the mean over clients in client order."""
        for task in reversed(self.tasks):
            task.take_over()
        return (
            float(np.mean([self._tests[k].result() for k in sorted(self._tests)])),
            float(np.mean([self._validations[k].result() for k in sorted(self._validations)])),
        )


def _check_validation_sets(states: dict) -> None:
    for k in sorted(states):
        if len(states[k].data.validation) < 1:
            raise ConfigurationError(f"client {k} has an empty validation set")


def global_accuracy(states: dict, spec: ModelSpec, test: Dataset) -> float:
    """Unweighted mean over clients of each model's accuracy on the shared test set, on the calling thread."""
    return float(np.mean([evaluate(spec, states[k].params, test) for k in sorted(states)]))


def local_accuracy(states: dict, spec: ModelSpec) -> float:
    """Unweighted mean over clients of each model's accuracy on its own validation set, on the calling thread."""
    _check_validation_sets(states)
    return float(np.mean([evaluate(spec, states[k].params, states[k].data.validation) for k in sorted(states)]))


@contextmanager
def atomic_open(path, mode: str = "w"):
    """A file, text ("w") or binary ("wb"), that takes the place of `path` only once every write to it has succeeded.

    It is written as a temporary file in the same directory and then moved
    over `path`. On failure the temporary file is removed, `path` keeps what
    it held, and an OSError is raised as LoadError naming `path`.
    """
    directory, name = os.path.split(os.path.abspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, mode, newline=None if "b" in mode else "") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException as exc:
        if os.path.exists(temporary):
            os.unlink(temporary)
        if isinstance(exc, OSError):
            raise LoadError(f"{path}: {exc}") from exc
        raise


def emit_csv(timeline: list[MetricsRecord], path: str) -> None:
    """Write the timeline ordered by round; accuracies carry 6 decimal places."""
    rows = sorted(timeline, key=lambda r: r.round)
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for rec in rows:
            writer.writerow(
                [
                    rec.round,
                    rec.strategy,
                    rec.seed,
                    f"{rec.global_acc:.6f}",
                    f"{rec.local_acc:.6f}",
                    rec.scalars_transmitted,
                ]
            )


def read_csv(path: str) -> list[MetricsRecord]:
    """Parse a file produced by emit_csv back into records."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
                raise LoadError(f"{path}: unexpected header {reader.fieldnames}")
            return [
                MetricsRecord(
                    round=int(row["round"]),
                    strategy=row["strategy"],
                    seed=int(row["seed"]),
                    global_acc=float(row["global_acc"]),
                    local_acc=float(row["local_acc"]),
                    scalars_transmitted=int(row["scalars_transmitted"]),
                )
                for row in reader
            ]
    except OSError as exc:
        raise LoadError(f"{path}: {exc}") from exc
