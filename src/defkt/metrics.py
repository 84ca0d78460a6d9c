"""Model evaluation, accuracy aggregates over clients, CSV emission.

global_accuracy and local_accuracy evaluate their per-client models on one
thread per usable CPU when one model's evaluation is large (rows x
parameters at least PARALLEL_EVAL_WORK), and in a plain loop otherwise. The
results are bitwise identical either way: each evaluation is one forward,
single-threaded BLAS work when the run pins one BLAS thread, on arrays no
other task writes, and the pool returns the accuracies in client order, so
the mean sums the same list.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, LoadError
from .nn import Batch, ModelSpec, forward

CSV_FIELDS = ("round", "strategy", "seed", "global_acc", "local_acc", "scalars_transmitted")
# Rows per evaluation forward. The chunk fixes the GEMM row count and so the
# bits of the logits: the reference MLP's logits on 1,000 rows differ bitwise
# between one call and two 500-row chunks. Changing it can change accuracies.
EVAL_CHUNK_ROWS = 2048
# Rows x parameters of one model's evaluation (a dense model's multiply-adds)
# from which the per-client evaluations run on threads. With one BLAS thread
# on 2 cores, ten threaded evaluations took 1.3x the serial time at 3e6,
# broke even near 1e7 and took 0.7x at 2.4e7 (a reference-MLP validation
# set) and 0.5x at 2e8 (its 1,000-row test set). The README quick-start's
# 32x32 MLP (7e5) and cnn-small on 100 rows (5e5) stay on the plain loop.
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


def evaluate(spec: ModelSpec, params: np.ndarray, data: Dataset) -> float:
    """Top-1 accuracy of a model on a dataset; argmax ties go to the lowest class."""
    if len(data) < 1:
        raise ConfigurationError("cannot evaluate on an empty dataset")
    correct = 0
    for start in range(0, len(data), EVAL_CHUNK_ROWS):
        stop = min(start + EVAL_CHUNK_ROWS, len(data))
        batch = Batch(data.inputs[start:stop], data.labels[start:stop])
        predictions = forward(spec, params, batch).argmax(axis=1) + 1
        correct += int((predictions == batch.labels).sum())
    return correct / len(data)


def _evaluate_all(spec: ModelSpec, tasks: list[tuple[np.ndarray, Dataset]]) -> list[float]:
    """evaluate() of each (params, data) task, in task order.

    When the smallest task's rows x parameters reach PARALLEL_EVAL_WORK, the
    tasks run on min(usable CPUs, tasks) threads of a pool that is joined
    before the call returns; otherwise in a plain loop.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(tasks))
    if workers < 2 or min(len(data) for _, data in tasks) * spec.param_count < PARALLEL_EVAL_WORK:
        return [evaluate(spec, params, data) for params, data in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda task: evaluate(spec, *task), tasks))


def global_accuracy(states: dict, spec: ModelSpec, test: Dataset) -> float:
    """Unweighted mean over all clients of their accuracy on the shared test set.

    Clients holding bitwise-identical parameters (common early in a run,
    when most still carry the shared initialization) are evaluated once.
    """
    keys = [states[k].params.tobytes() for k in sorted(states)]
    distinct = {key: states[k].params for key, k in zip(keys, sorted(states))}  # equal keys, equal bits
    memo = dict(zip(distinct, _evaluate_all(spec, [(params, test) for params in distinct.values()])))
    return float(np.mean([memo[key] for key in keys]))


def local_accuracy(states: dict, spec: ModelSpec) -> float:
    """Unweighted mean over clients of each model's accuracy on its own validation set."""
    for k in sorted(states):
        if len(states[k].data.validation) < 1:
            raise ConfigurationError(f"client {k} has an empty validation set")
    tasks = [(states[k].params, states[k].data.validation) for k in sorted(states)]
    return float(np.mean(_evaluate_all(spec, tasks)))


def emit_csv(timeline: list[MetricsRecord], path: str) -> None:
    """Write the timeline ordered by round; accuracies carry 6 decimal places."""
    rows = sorted(timeline, key=lambda r: r.round)
    try:
        with open(path, "w", newline="") as fh:
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
    except OSError as exc:
        raise LoadError(f"{path}: {exc}") from exc


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
