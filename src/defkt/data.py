"""Dataset loading, client partitioning, train/validation splitting, minibatching.

A Dataset is an nn.Batch with a class count: (N, d) float64 inputs and
(N,) int64 labels in 1..C. IDX image files are scaled to [0, 1] by
dividing by 255 and their raw 0-based labels are shifted up by one. All
partitioners are conservative: the multiset union of the client shards
equals the source dataset.

A subset is a DatasetView: the source Dataset and an index array, with no
row copied. Client shards, their train/validation splits and a config's
corpus subset are views of the one corpus, so a run holds its rows once.
Both types answer len(), labels and batch(positions); a Dataset's batch of
a slice is a slice of its arrays, a view's batch gathers its rows once.
Batches can therefore share memory with the corpus: the purity contract in
nn covers the corpus arrays too, and nothing writes a batch or a corpus in
place.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NONNEGATIVE_FINITE, ConfigurationError, LoadError, at_least, check
from .nn import Batch
from .seeding import derive_rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset(Batch):
    """Labeled samples: a Batch whose labels lie in 1..num_classes."""

    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        if self.labels.min() < 1 or self.labels.max() > self.num_classes:
            raise ConfigurationError(f"labels must lie in 1..{self.num_classes}")

    def subset(self, indices: np.ndarray) -> "DatasetView":
        """Rows `indices`, in that order, as a view that copies no row."""
        return DatasetView(self, np.arange(len(self))[indices])

    def batch(self, positions) -> Batch:
        return Batch(self.inputs[positions], self.labels[positions])


@dataclass
class DatasetView:
    """Rows `index` of `source`, in that order; nonempty."""

    source: Dataset
    index: np.ndarray

    def __post_init__(self):
        if len(self.index) < 1:
            raise ConfigurationError("a dataset subset must keep at least one sample")

    @property
    def num_classes(self) -> int:
        return self.source.num_classes

    @property
    def labels(self) -> np.ndarray:
        return self.source.labels[self.index]

    def __len__(self) -> int:
        return len(self.index)

    def subset(self, indices: np.ndarray) -> "DatasetView":
        return DatasetView(self.source, self.index[indices])

    def batch(self, positions) -> Batch:
        return self.source.batch(self.index[positions])


Rows = Dataset | DatasetView


@dataclass
class ClientData:
    """One client's private data after the 80/20 split."""

    train: Rows
    validation: Rows


def label_counts(data: Rows) -> dict[int, int]:
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


def _read_idx(path: str, magic: int, dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One big-endian IDX file of unsigned bytes: its `dims` sizes and its payload, flat."""
    try:
        with _open_maybe_gzip(path) as fh:
            found, *sizes = struct.unpack(f">{1 + dims}I", _read_exact(fh, 4 * (1 + dims), path))
            if found != magic:
                raise LoadError(f"{path}: bad magic number 0x{found:08x}")
            return tuple(sizes), np.frombuffer(_read_exact(fh, math.prod(sizes), path), dtype=np.uint8)
    except OSError as exc:
        raise LoadError(f"{path}: {exc}") from exc


def load_idx(images_path: str, labels_path: str, num_classes: int | None = None) -> Dataset:
    """Load a big-endian IDX image/label file pair.

    Pixels are scaled to [0, 1]; the files' raw 0-based labels are stored
    1-based. Gzipped files are detected and decompressed transparently.
    """
    images_path, labels_path = str(images_path), str(labels_path)
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    (label_count,), raw_labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    if label_count != count:
        raise LoadError(
            f"{labels_path}: label count {label_count} does not match image count {count} in {images_path}"
        )
    inputs = pixels.reshape(count, rows * cols).astype(np.float64)
    inputs /= 255.0
    labels = raw_labels.astype(np.int64) + 1
    if num_classes is None:
        num_classes = int(labels.max())
    return Dataset(inputs, labels, num_classes)


def class_means(num_classes: int, dims: int) -> np.ndarray:
    """Deterministic, pairwise-distinct blob centers, one row per class."""
    means = np.zeros((num_classes, dims), dtype=np.float64)
    for c in range(num_classes):
        means[c, c % dims] = 2.0 * (1 + c // dims)
    return means


def synth_dataset(
    num_classes: int, per_class: int, dims: int, seed: int, sigma: float = 1.0
) -> Dataset:
    """Gaussian-blob classification set: per_class samples around each class mean."""
    for name, value, rule in (("num_classes", num_classes, at_least(2)), ("per_class", per_class, at_least(1)),
                              ("dims", dims, at_least(1)), ("sigma", sigma, NONNEGATIVE_FINITE)):
        check(name, value, rule)
    rng = derive_rng(seed)
    means = class_means(num_classes, dims)
    inputs = np.empty((num_classes * per_class, dims), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        # sigma * z + mean, bitwise mean + sigma * z. z is drawn into a temporary, not into the
        # block: freeing one that large raises glibc's mmap and trim thresholds above a parameter
        # vector, which keeps training's vectors in the heap (ROADMAP item 13).
        np.multiply(sigma, rng.standard_normal((per_class, dims)), out=inputs[block])
        inputs[block] += means[c]
        labels[block] = c + 1
    return Dataset(inputs, labels, num_classes)


def partition_iid(data: Rows, num_clients: int, seed: int) -> list[DatasetView]:
    """Shuffle the corpus and deal it into num_clients near-equal shards."""
    if num_clients > len(data):
        raise ConfigurationError(f"cannot split {len(data)} samples among {num_clients} clients")
    rng = derive_rng(seed)
    order = rng.permutation(len(data))
    return [data.subset(part) for part in np.array_split(order, num_clients)]


def partition_noniid(data: Rows, num_clients: int, classes_per_client: int, seed: int) -> list[DatasetView]:
    """Label-sorted segment assignment: each client receives `classes_per_client` segments.

    Indices are stably sorted by label, cut into num_clients * classes_per_client
    equal segments (remainder rows appended to the last segment), and the
    segments are dealt to clients in a seeded random order. Smaller
    classes_per_client means fewer distinct labels per client.
    """
    total_segments = num_clients * classes_per_client
    if total_segments > len(data):
        raise ConfigurationError(
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
    data: Rows, num_clients: int, classes_per_client: int | None, seed: int
) -> list[DatasetView]:
    """Divide a corpus among clients: IID when classes_per_client is None, else non-IID."""
    check("num_clients", num_clients, at_least(2))
    if classes_per_client is None:
        return partition_iid(data, num_clients, seed)
    check("classes_per_client", classes_per_client, at_least(1))
    return partition_noniid(data, num_clients, classes_per_client, seed)


TRAIN_FRACTION = 0.8  # of a client's rows, to train; the rest validate
SPLIT_MIN_ROWS = 5  # the fewest rows train_val_split takes: 4 to train and 1 to validate at TRAIN_FRACTION


def train_val_split(data: Rows, seed: int) -> ClientData:
    """Seeded shuffle, first floor(TRAIN_FRACTION*N) samples to train, rest to validation."""
    check("samples to split", len(data), at_least(SPLIT_MIN_ROWS))
    rng = derive_rng(seed)
    order = rng.permutation(len(data))
    n_train = int(TRAIN_FRACTION * len(data))
    return ClientData(
        train=data.subset(order[:n_train]),
        validation=data.subset(order[n_train:]),
    )


def minibatches(data: Rows, batch_size: int, rng: np.random.Generator) -> Iterator[Batch]:
    """One pass over the dataset in freshly shuffled batches of `batch_size`.

    Yields ceil(N / batch_size) batches, the last possibly smaller; every
    sample appears exactly once per pass.
    """
    check("batch_size", batch_size, at_least(1))
    order = rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        yield data.batch(order[start : start + batch_size])
