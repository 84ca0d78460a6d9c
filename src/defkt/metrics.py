"""Model evaluation, accuracy aggregates over clients, CSV emission."""

from __future__ import annotations

import csv
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


def global_accuracy(states: dict, spec: ModelSpec, test: Dataset) -> float:
    """Unweighted mean over all clients of their accuracy on the shared test set.

    Clients holding bitwise-identical parameters (common early in a run,
    when most still carry the shared initialization) are evaluated once.
    """
    memo: dict[bytes, float] = {}
    accs = []
    for k in sorted(states):
        key = states[k].params.tobytes()
        if key not in memo:
            memo[key] = evaluate(spec, states[k].params, test)
        accs.append(memo[key])
    return float(np.mean(accs))


def local_accuracy(states: dict, spec: ModelSpec) -> float:
    """Unweighted mean over clients of each model's accuracy on its own validation set."""
    accs = []
    for k in sorted(states):
        client = states[k]
        if len(client.data.validation) < 1:
            raise ConfigurationError(f"client {k} has an empty validation set")
        accs.append(evaluate(spec, client.params, client.data.validation))
    return float(np.mean(accs))


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
