"""Dataset loading, client partitioning, train/validation splitting, minibatching.

Datasets hold (N, d) float64 inputs and (N,) int64 labels in 1..C.
IDX image files are scaled to [0, 1] by dividing by 255 and their raw
0-based labels are shifted up by one. All partitioners are conservative:
the multiset union of the client shards equals the source dataset.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, InputError, LoadError
from .nn import Batch
from .seeding import derive_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Labeled samples: inputs (N, d), labels (N,) in 1..num_classes."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ConfigurationError("dataset inputs must be a nonempty (N, d) matrix")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ConfigurationError("dataset labels must match the number of samples")
        if self.labels.min() < 1 or self.labels.max() > self.num_classes:
            raise ConfigurationError(f"labels must lie in 1..{self.num_classes}")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices], self.num_classes)


@dataclass
class ClientData:
    """One client's private data after the 80/20 split."""

    train: Dataset
    validation: Dataset


def label_counts(data: Dataset) -> dict[int, int]:
    """Histogram of labels as {label: count}."""
    values, counts = np.unique(data.labels, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def _read_exact(handle, n: int, path: str) -> bytes:
    payload = handle.read(n)
    if len(payload) != n:
        raise LoadError(f"{path}: truncated file (wanted {n} bytes, got {len(payload)})")
    return payload


def _open_maybe_gzip(path: str):
    with open(path, "rb") as probe:
        gzipped = probe.read(2) == b"\x1f\x8b"
    return gzip.open(path, "rb") if gzipped else open(path, "rb")


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> Dataset:
    """Load a big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1]; the files' raw 0-based labels are stored
    1-based. Gzipped files are detected and decompressed transparently.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    try:
        with _open_maybe_gzip(images_path) as fh:
            magic, count, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
            if magic != IDX_IMAGE_MAGIC:
                raise LoadError(f"{images_path}: bad magic number 0x{magic:08x}")
            pixels = np.frombuffer(_read_exact(fh, count * rows * cols, images_path), dtype=np.uint8)
    except OSError as exc:
        raise LoadError(f"{images_path}: {exc}") from exc
    try:
        with _open_maybe_gzip(labels_path) as fh:
            magic, label_count = struct.unpack(">II", _read_exact(fh, 8, labels_path))
            if magic != IDX_LABEL_MAGIC:
                raise LoadError(f"{labels_path}: bad magic number 0x{magic:08x}")
            raw_labels = np.frombuffer(_read_exact(fh, label_count, labels_path), dtype=np.uint8)
    except OSError as exc:
        raise LoadError(f"{labels_path}: {exc}") from exc
    if label_count != count:
        raise LoadError(
            f"{labels_path}: label count {label_count} does not match image count {count} in {images_path}"
        )
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    labels = raw_labels.astype(np.int64) + 1
    if num_classes is None:
        num_classes = int(labels.max())
    return Dataset(inputs, labels, num_classes)


def class_means(num_classes: int, dims: int, scale: float = 2.0) -> np.ndarray:
    """Deterministic, pairwise-distinct blob centers, one row per class."""
    means = np.zeros((num_classes, dims), dtype=np.float64)
    for c in range(num_classes):
        means[c, c % dims] = scale * (1 + c // dims)
    return means


def synth_dataset(
    num_classes: int, per_class: int, dims: int, seed: int, sigma: float = 1.0
) -> Dataset:
    """Gaussian-blob classification set: per_class samples around each class mean."""
    if num_classes < 2 or per_class < 1 or dims < 1 or not sigma >= 0:  # `not >=` also rejects NaN
        raise InputError(
            "synthetic data needs num_classes >= 2, per_class >= 1, dims >= 1 and sigma >= 0"
        )
    rng = derive_rng(seed)
    means = class_means(num_classes, dims)
    inputs = np.empty((num_classes * per_class, dims), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        inputs[block] = means[c] + sigma * rng.standard_normal((per_class, dims))
        labels[block] = c + 1
    return Dataset(inputs, labels, num_classes)


def partition_iid(data: Dataset, num_clients: int, seed: int) -> list[Dataset]:
    """Shuffle the corpus and deal it into num_clients near-equal shards."""
    if num_clients > len(data):
        raise InputError(f"cannot split {len(data)} samples among {num_clients} clients")
    rng = derive_rng(seed)
    order = rng.permutation(len(data))
    return [data.subset(part) for part in np.array_split(order, num_clients)]


def partition_noniid(data: Dataset, num_clients: int, classes_per_client: int, seed: int) -> list[Dataset]:
    """Label-sorted segment assignment: each client receives `classes_per_client` segments.

    Indices are stably sorted by label, cut into num_clients * classes_per_client
    equal segments (remainder rows appended to the last segment), and the
    segments are dealt to clients in a seeded random order. Smaller
    classes_per_client means fewer distinct labels per client.
    """
    total_segments = num_clients * classes_per_client
    if total_segments > len(data):
        raise InputError(
            f"cannot cut {len(data)} samples into {total_segments} segments"
        )
    order = np.argsort(data.labels, kind="stable")
    seg_size = len(data) // total_segments
    segments = [order[i * seg_size : (i + 1) * seg_size] for i in range(total_segments - 1)]
    segments.append(order[(total_segments - 1) * seg_size :])
    rng = derive_rng(seed)
    dealt = rng.permutation(total_segments)
    shards = []
    for k in range(num_clients):
        picks = dealt[k * classes_per_client : (k + 1) * classes_per_client]
        shards.append(data.subset(np.concatenate([segments[s] for s in picks])))
    return shards


def partition(
    data: Dataset, mode: str, num_clients: int, classes_per_client: int | None, seed: int
) -> list[Dataset]:
    """Divide a corpus among clients by mode: "iid", or "noniid" with classes_per_client >= 1."""
    if num_clients < 2:
        raise ConfigurationError("partitioning needs at least 2 clients")
    if mode == "iid":
        return partition_iid(data, num_clients, seed)
    if mode != "noniid":
        raise ConfigurationError(f"unknown partition mode {mode!r}")
    if classes_per_client is None or classes_per_client < 1:
        raise ConfigurationError("noniid partitioning needs classes_per_client >= 1")
    return partition_noniid(data, num_clients, classes_per_client, seed)


def train_val_split(data: Dataset, fraction: float = 0.8, seed: int = 0) -> ClientData:
    """Seeded shuffle, first floor(fraction*N) samples to train, rest to validation."""
    if len(data) < 5:
        raise InputError(f"need at least 5 samples to split, got {len(data)}")
    rng = derive_rng(seed)
    order = rng.permutation(len(data))
    n_train = int(fraction * len(data))
    return ClientData(
        train=data.subset(order[:n_train]),
        validation=data.subset(order[n_train:]),
    )


def minibatches(data: Dataset, batch_size: int, rng: np.random.Generator) -> Iterator[Batch]:
    """One pass over the dataset in freshly shuffled batches of `batch_size`.

    Yields ceil(N / batch_size) batches, the last possibly smaller; every
    sample appears exactly once per pass.
    """
    if batch_size < 1:
        raise InputError("batch_size must be at least 1")
    order = rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = order[start : start + batch_size]
        yield Batch(data.inputs[idx], data.labels[idx])
