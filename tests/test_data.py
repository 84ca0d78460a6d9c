"""Data tests: IDX parsing, synthetic blobs, partitioning, splits, minibatching."""

import gzip
import struct

import numpy as np
import pytest

from defkt import metrics
from defkt.data import (
    Dataset,
    DatasetView,
    class_means,
    label_counts,
    load_idx,
    minibatches,
    partition,
    partition_iid,
    partition_noniid,
    synth_dataset,
    train_val_split,
)
from defkt.errors import ConfigurationError, LoadError
from defkt.metrics import evaluate
from defkt.nn import ModelSpec, init_params
from defkt.seeding import derive_rng

from oracles import copying_subset, label_histogram, row_multiset, synth_by_formula


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", 0x00000801, labels.shape[0]) + labels.astype(np.uint8).tobytes()


def write_idx_pair(tmp_path, images, labels, gz=False):
    img_path = tmp_path / ("images-idx3-ubyte" + (".gz" if gz else ""))
    lbl_path = tmp_path / ("labels-idx1-ubyte" + (".gz" if gz else ""))
    img_payload = idx_image_bytes(images)
    lbl_payload = idx_label_bytes(labels)
    if gz:
        img_payload = gzip.compress(img_payload)
        lbl_payload = gzip.compress(lbl_payload)
    img_path.write_bytes(img_payload)
    lbl_path.write_bytes(lbl_payload)
    return str(img_path), str(lbl_path)


class TestLoadIdx:
    def test_single_image_scaling(self, tmp_path):
        images = np.full((1, 2, 2), 255, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.array([3]))
        data = load_idx(img, lbl)
        assert data.inputs.shape == (1, 4)
        np.testing.assert_array_equal(data.inputs, 1.0)
        assert data.labels[0] == 4  # raw 0-based labels are stored 1-based

    def test_pixel_zero_maps_to_zero(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8), np.array([0, 9]))
        data = load_idx(img, lbl, num_classes=10)
        np.testing.assert_array_equal(data.inputs, 0.0)
        np.testing.assert_array_equal(data.labels, [1, 10])

    def test_gzip_transparent(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 4, 4)).astype(np.uint8)
        labels = np.array([0, 1, 2, 3, 4])
        img, lbl = write_idx_pair(tmp_path, images, labels, gz=True)
        data = load_idx(img, lbl)
        assert len(data) == 5
        np.testing.assert_allclose(data.inputs * 255.0, images.reshape(5, 16), atol=1e-12)

    def test_bad_image_magic_names_file(self, tmp_path):
        img = tmp_path / "bad-images"
        img.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + bytes(4))
        lbl = tmp_path / "labels"
        lbl.write_bytes(idx_label_bytes(np.array([1])))
        with pytest.raises(LoadError, match="bad-images"):
            load_idx(str(img), str(lbl))

    def test_bad_label_magic_names_file(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), np.array([0]))
        lbl = tmp_path / "bad-labels"
        lbl.write_bytes(struct.pack(">II", 0x00000999, 1) + bytes(1))
        with pytest.raises(LoadError, match="bad-labels"):
            load_idx(img, str(lbl))

    def test_truncated_images(self, tmp_path):
        img = tmp_path / "short-images"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(5))  # needs 8
        lbl = tmp_path / "labels"
        lbl.write_bytes(idx_label_bytes(np.array([0, 1])))
        with pytest.raises(LoadError, match="short-images"):
            load_idx(str(img), str(lbl))

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), np.array([0, 1]))
        lbl = tmp_path / "one-label"
        lbl.write_bytes(idx_label_bytes(np.array([0])))
        with pytest.raises(LoadError, match="does not match"):
            load_idx(img, str(lbl))


class TestSynthDataset:
    def test_counts_per_class(self):
        data = synth_dataset(4, 100, 6, seed=1)
        assert len(data) == 400
        np.testing.assert_array_equal(label_histogram(data.labels, 4), 100)

    def test_deterministic(self):
        a = synth_dataset(3, 20, 5, seed=7)
        b = synth_dataset(3, 20, 5, seed=7)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_sigma_nearest_mean_is_perfect(self):
        data = synth_dataset(5, 30, 8, seed=3, sigma=0.0)
        means = class_means(5, 8)
        dists = ((data.inputs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        predicted = dists.argmin(axis=1) + 1
        np.testing.assert_array_equal(predicted, data.labels)

    @pytest.mark.parametrize("num_classes, per_class, dims, sigma", [
        (10, 600, 784, 0.1),  # the reference corpus
        (4, 9, 6, 0.0),
        (3, 8, 1, 1.0),
        (5, 1, 7, 0.5),
    ], ids=["reference", "sigma-0", "dims-1", "per-class-1"])
    def test_rows_are_the_per_class_formula_bit_for_bit(self, num_classes, per_class, dims, sigma):
        data = synth_dataset(num_classes, per_class, dims, seed=11, sigma=sigma)
        inputs, labels = synth_by_formula(num_classes, per_class, dims, 11, sigma)
        assert data.inputs.dtype == inputs.dtype and data.inputs.shape == inputs.shape
        assert data.inputs.tobytes() == inputs.tobytes()
        np.testing.assert_array_equal(data.labels, labels)

    def test_means_are_distinct_when_classes_exceed_dims(self):
        means = class_means(7, 3)
        assert len({tuple(m) for m in means}) == 7

    def test_invalid_args_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_dataset(1, 10, 4, seed=0)

    @pytest.mark.parametrize("sigma", [float("inf"), float("-inf"), float("nan"), -0.5])
    def test_sigma_must_be_nonnegative_and_finite(self, sigma):
        # an infinite sigma would give an all-±inf corpus
        with pytest.raises(ConfigurationError, match=f"^sigma: must be nonnegative and finite, got {sigma}$"):
            synth_dataset(2, 3, 2, 0, sigma=sigma)


@pytest.fixture(scope="module")
def surrogate_corpus():
    """Balanced 10-class corpus with the reference corpus size, small feature dim."""
    return synth_dataset(10, 6000, 5, seed=99)


class TestPartitionIid:
    def test_equal_shards(self, surrogate_corpus):
        shards = partition_iid(surrogate_corpus, 10, seed=1)
        assert [len(s) for s in shards] == [6000] * 10

    def test_near_equal_when_not_divisible(self):
        data = synth_dataset(3, 34, 4, seed=0)  # 102 samples
        sizes = sorted(len(s) for s in partition_iid(data, 4, seed=2))
        assert sizes == [25, 25, 26, 26]

    def test_single_client_is_shuffled_copy(self):
        data = synth_dataset(3, 10, 4, seed=5)
        (shard,) = partition_iid(data, 1, seed=3)
        assert row_multiset(shard) == row_multiset(data)
        assert not np.array_equal(shard.batch(slice(None)).inputs, data.inputs)  # actually shuffled

    def test_conservation_by_histogram(self, surrogate_corpus):
        shards = partition_iid(surrogate_corpus, 7, seed=4)
        total = sum(label_histogram(s.labels, 10) for s in shards)
        np.testing.assert_array_equal(total, label_histogram(surrogate_corpus.labels, 10))

    def test_too_many_clients_rejected(self):
        data = synth_dataset(2, 2, 3, seed=0)
        with pytest.raises(ConfigurationError):
            partition_iid(data, 5, seed=0)


class TestPartitionNonIid:
    def test_reference_shapes(self, surrogate_corpus):
        # 60000 samples, 10 clients, 4 segments each: 40 segments of 1500
        shards = partition_noniid(surrogate_corpus, 10, 4, seed=1)
        assert [len(s) for s in shards] == [6000] * 10

    def test_every_client_gets_exactly_xi_segments(self):
        data = synth_dataset(4, 40, 3, seed=2)  # 160 samples
        shards = partition_noniid(data, 2, 4, seed=3)  # 8 segments of 20
        assert [len(s) for s in shards] == [80, 80]

    def test_distinct_labels_bounded_by_two_xi(self, surrogate_corpus):
        # segment size 1500 < 6000 per class, so a segment spans at most 2 labels
        for xi in (1, 2, 4):
            shards = partition_noniid(surrogate_corpus, 10, xi, seed=5)
            for shard in shards:
                assert len(label_counts(shard)) <= 2 * xi

    def test_smaller_xi_is_weakly_more_heterogeneous(self, surrogate_corpus):
        mean_distinct = []
        for xi in (1, 2, 5, 10):
            shards = partition_noniid(surrogate_corpus, 10, xi, seed=6)
            mean_distinct.append(np.mean([len(label_counts(s)) for s in shards]))
        assert all(a <= b + 1e-9 for a, b in zip(mean_distinct, mean_distinct[1:]))

    def test_conservation_with_remainder(self):
        data = synth_dataset(3, 35, 4, seed=7)  # 105 samples, 6 segments of 17 + remainder
        shards = partition_noniid(data, 2, 3, seed=8)
        assert sum(len(s) for s in shards) == 105
        total = sum(label_histogram(s.labels, 3) for s in shards)
        np.testing.assert_array_equal(total, label_histogram(data.labels, 3))

    def test_oversubscription_rejected(self):
        data = synth_dataset(2, 3, 3, seed=0)  # 6 samples
        with pytest.raises(ConfigurationError):
            partition_noniid(data, 4, 2, seed=0)

    def test_deterministic(self, surrogate_corpus):
        a = partition_noniid(surrogate_corpus, 10, 4, seed=11)
        b = partition_noniid(surrogate_corpus, 10, 4, seed=11)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.labels, y.labels)


class TestPartitionConfig:
    """The dispatch on classes_per_client and the settings checks of `partition`."""

    def test_dispatch_iid(self, surrogate_corpus):
        assert len(partition(surrogate_corpus, 5, None, 1)) == 5


class TestTrainValSplit:
    def test_reference_sizes(self):
        data = synth_dataset(10, 600, 4, seed=1)  # 6000 samples
        split = train_val_split(data, seed=2)
        assert len(split.train) == 4800
        assert len(split.validation) == 1200

    def test_floor_rule_at_five(self):
        data = synth_dataset(5, 1, 3, seed=0)
        split = train_val_split(data, seed=1)
        assert (len(split.train), len(split.validation)) == (4, 1)

    def test_union_is_input_multiset(self):
        data = synth_dataset(4, 25, 3, seed=3)
        split = train_val_split(data, seed=4)
        merged = sorted(row_multiset(split.train) + row_multiset(split.validation))
        assert merged == row_multiset(data)

    def test_too_small_rejected(self):
        data = synth_dataset(2, 2, 3, seed=0)
        with pytest.raises(ConfigurationError):
            train_val_split(data, seed=0)


class TestViews:
    """Shards and splits are views of the corpus that batch and evaluate like the copies they replaced."""

    @staticmethod
    def client_splits(corpus, select, xi):
        shards = partition(corpus if select is None else corpus.subset(select), 4, xi, seed=7)
        return [train_val_split(shard, seed=k) for k, shard in enumerate(shards)]

    @pytest.mark.parametrize("xi", [None, 2], ids=["iid", "noniid"])
    @pytest.mark.parametrize("corpus_subset", [False, True], ids=["corpus", "corpus-subset"])
    def test_batches_and_accuracies_are_those_of_copies(self, monkeypatch, xi, corpus_subset):
        corpus = synth_dataset(4, 30, 6, seed=2)
        spec = ModelSpec.mlp(6, hidden=[5], num_classes=4)
        params = init_params(spec, 3)
        select = derive_rng(4).permutation(len(corpus))[:100] if corpus_subset else None
        views = self.client_splits(corpus, select, xi)
        monkeypatch.setattr(Dataset, "subset", copying_subset)
        copies = self.client_splits(corpus, select, xi)
        monkeypatch.setattr(metrics, "EVAL_CHUNK_ROWS", 7)  # several chunks per evaluation
        for view, copy in zip(views, copies, strict=True):
            for part in ("train", "validation"):
                v, c = getattr(view, part), getattr(copy, part)
                assert isinstance(v, DatasetView) and isinstance(c, Dataset)
                np.testing.assert_array_equal(v.labels, c.labels)
                got = list(minibatches(v, 8, derive_rng(5)))
                want = list(minibatches(c, 8, derive_rng(5)))
                assert [b.inputs.tobytes() for b in got] == [b.inputs.tobytes() for b in want]
                assert [b.labels.tobytes() for b in got] == [b.labels.tobytes() for b in want]
                assert evaluate(spec, params, v) == evaluate(spec, params, c)

    def test_views_share_the_corpus_rows(self):
        corpus = synth_dataset(3, 10, 4, seed=1)
        split = train_val_split(partition(corpus, 2, None, seed=0)[1], seed=2)
        assert split.train.source is corpus and split.validation.source is corpus
        # a view's subset composes indices: its rows are the corpus rows it names
        nested = split.train.subset(np.array([3, 0]))
        np.testing.assert_array_equal(nested.index, split.train.index[[3, 0]])
        np.testing.assert_array_equal(nested.batch(slice(None)).inputs, corpus.inputs[nested.index])
        # a Dataset's batch of a slice copies nothing
        assert np.shares_memory(corpus.batch(slice(2, 5)).inputs, corpus.inputs)


class TestMinibatches:
    def test_even_batches(self):
        data = synth_dataset(4, 250, 3, seed=1)  # 1000 samples
        batches = list(minibatches(data, 200, derive_rng(0)))
        assert [len(b) for b in batches] == [200] * 5

    def test_remainder_batch(self):
        data = synth_dataset(5, 1, 3, seed=2)  # 5 samples
        batches = list(minibatches(data, 2, derive_rng(1)))
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_pass_covers_every_sample_once(self):
        data = synth_dataset(3, 17, 4, seed=3)
        batches = list(minibatches(data, 8, derive_rng(2)))
        merged = sorted(b for batch in batches for b in row_multiset_batch(batch))
        assert merged == row_multiset(data)

    def test_fresh_shuffle_per_pass(self):
        data = synth_dataset(3, 20, 4, seed=4)
        rng = derive_rng(5)
        first = np.vstack([b.inputs for b in minibatches(data, 10, rng)])
        second = np.vstack([b.inputs for b in minibatches(data, 10, rng)])
        assert not np.array_equal(first, second)

    def test_bad_batch_size_rejected(self):
        data = synth_dataset(2, 5, 3, seed=0)
        with pytest.raises(ConfigurationError):
            list(minibatches(data, 0, derive_rng(0)))


def row_multiset_batch(batch) -> list[bytes]:
    return [
        batch.inputs[i].tobytes() + int(batch.labels[i]).to_bytes(8, "little")
        for i in range(len(batch))
    ]
