"""Engine tests: parameter layout, forward/backward exactness, SGD, segments."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defkt import nn
from defkt.errors import ConfigurationError, NumericalError
from defkt.nn import (
    Batch,
    ConvLayer,
    DenseLayer,
    MaxPoolLayer,
    ModelSpec,
    _im2col,
    _maxpool,
    _maxpool_backward,
    _patch_index,
    _unpack,
    backward_from_cache,
    conv_block_rows,
    forward,
    forward_cached,
    init_params,
    param_count,
    sgd_step,
    split_segments,
)

from oracles import (
    backward,
    backward_by_concatenation,
    backward_with_input_grad,
    central_difference,
    conv_input_grad_by_loop,
    conv_weight_grad_by_loop,
    im2col_by_windows,
    maxpool_by_loop,
    maxpool_grad_by_loop,
    mlp_forward_by_hand,
    relative_error,
    unpack_by_offsets,
)

# Every kind of float64 a ReLU or a gradient mask can meet: signed zeros, NaNs
# of both signs, infinities, subnormals, the smallest normal and plain numbers.
SPECIALS = np.array(
    [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.5, -2.5]
)

# A small net that runs conv, pool, a dense ReLU layer and the linear head.
CONV_POOL_DENSE_RELU = ModelSpec(
    (1, 10, 10), (ConvLayer(1, 2, 3, relu=True), MaxPoolLayer(2), DenseLayer(32, 6, relu=True), DenseLayer(6, 3)), 3
)
# pooling before the first parameter layer, odd sizes: 13 -> 6 -> 4 -> 2
POOL_FIRST = ModelSpec((1, 13, 13), (MaxPoolLayer(2), ConvLayer(1, 2, 3), MaxPoolLayer(2), DenseLayer(8, 3)), 3)
# Row counts around forward's conv block size b, named so that the test ids say which edge.
BLOCK_EDGES = {
    "one-row": lambda b: 1,
    "block-1": lambda b: b - 1,
    "block": lambda b: b,
    "block+1": lambda b: b + 1,
    "3-blocks+2": lambda b: 3 * b + 2,
}


class Preactivation:
    """Stands in for a weight array: `x @ w` returns a copy of the stored values.

    A real product never gives -0.0 (BLAS sums from +0.0), so this is how a
    test puts any bits, -0.0 included, into a layer's pre-activation.
    """

    __array_ufunc__ = None  # ndarray's @ then defers to __rmatmul__

    def __init__(self, values: np.ndarray):
        self.values = values

    def __rmatmul__(self, x):
        return self.values.copy()

    def reshape(self, *shape):
        return self

    @property
    def T(self):
        return self


class TestParamCount:
    def test_reference_mlp_is_199210(self):
        assert param_count(ModelSpec.mlp(784, (200, 200), 10)) == 199_210

    def test_single_dense_layer_with_bias(self):
        # a 1x1 weight plus 1 bias, then a 1 -> 2 linear head (2 weights, 2 biases)
        spec = ModelSpec(input_shape=(1,), layers=(DenseLayer(1, 1), DenseLayer(1, 2)), num_classes=2)
        assert param_count(spec) == 2 + (2 + 2)

    def test_count_matches_initialized_vector_length(self):
        spec = ModelSpec.mlp(784, (200, 200), 10)
        assert init_params(spec, 0).shape == (param_count(spec),)

    def test_conv_layer_count(self):
        # out_ch * in_ch * k * k weights plus out_ch biases, then a 2-class linear head
        spec = ModelSpec(input_shape=(3, 5, 5), layers=(ConvLayer(3, 8, 5), DenseLayer(8, 2)), num_classes=2)
        assert param_count(spec) == (8 * 3 * 25 + 8) + (8 * 2 + 2)

    def test_cnn_small_count_matches_vector(self):
        spec = ModelSpec.cnn_small((1, 28, 28), 10)
        assert init_params(spec, 1).shape == (param_count(spec),)


class TestMacsPerRow:
    @pytest.mark.parametrize(
        "spec, macs",
        [
            (ModelSpec.mlp(784), 198_800),  # 784*200 + 200*200 + 200*10
            (ModelSpec.mlp(20, (32, 32), 4), 1_792),  # 20*32 + 32*32 + 32*4
            # conv1 28x28x1 -> 26x26x8 (26*26*8*9), conv2 13x13x8 -> 11x11x16 (11*11*16*72), head 400*10
            (ModelSpec.cnn_small(), 192_064),
            # pool 13 -> 6, conv 6x6x1 -> 4x4x2 (4*4*2*9), pool 4 -> 2, head 8*3; pooling adds none
            (POOL_FIRST, 312),
        ],
        ids=["reference-mlp", "mlp-20-32-32-4", "cnn-small", "pool-first"],
    )
    def test_matches_hand_count(self, spec, macs):
        assert spec.macs_per_row == macs

    @pytest.mark.parametrize(
        "spec, macs",
        [
            # the forward, each layer's weight gradient (the forward again) and the input gradients of
            # the layers after the first: 2*198,800 + (200*200 + 200*10)
            (ModelSpec.mlp(784), 439_600),
            (ModelSpec.mlp(20, (32, 32), 4), 4_736),  # 2*1,792 + (32*32 + 32*4)
            (ModelSpec.cnn_small(), 527_520),  # 2*192,064 + conv2's 11*11*16*72 + the head's 400*10
            (POOL_FIRST, 648),  # 2*312 + the head's 8*3; the conv layer is the first with parameters
        ],
        ids=["reference-mlp", "mlp-20-32-32-4", "cnn-small", "pool-first"],
    )
    def test_training_step_matches_hand_count(self, spec, macs):
        assert spec.train_macs_per_row == macs

    def test_conv_stack_bounds(self):
        # the conv stack ends at the first dense layer; its widest row is conv2's (11*11, 8*9) patch matrix
        cnn = ModelSpec.cnn_small()
        assert (cnn.first_dense, cnn.widest_row) == (4, 11 * 11 * 8 * 9)
        assert (POOL_FIRST.first_dense, POOL_FIRST.widest_row) == (3, 13 * 13)  # the input is widest
        assert ModelSpec.mlp(784).first_dense == 0

    def test_derived_fields_stay_out_of_repr_and_equality(self):
        spec = ModelSpec.cnn_small()
        assert not any(name in repr(spec) for name in ("macs_per_row", "train_macs_per_row", "widest_row"))
        assert spec == ModelSpec.cnn_small() and hash(spec) == hash(ModelSpec.cnn_small())
        other = ModelSpec.cnn_small()
        object.__setattr__(other, "train_macs_per_row", 0)
        assert spec == other and hash(spec) == hash(other)


class TestModelSpec:
    def test_rejects_single_class(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(input_shape=(4,), layers=(DenseLayer(4, 1),), num_classes=1)

    def test_rejects_inconsistent_dims(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(input_shape=(4,), layers=(DenseLayer(5, 3),), num_classes=3)

    def test_rejects_activated_output_layer(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(input_shape=(4,), layers=(DenseLayer(4, 3, relu=True),), num_classes=3)

    @pytest.mark.parametrize(
        "layer",
        [
            DenseLayer(36, 0, relu=True), DenseLayer(36, -1, relu=True),
            ConvLayer(1, 0, 3), ConvLayer(1, 2, 0), MaxPoolLayer(0),
        ],
        ids=["dense-0", "dense-negative", "conv-channels-0", "conv-kernel-0", "pool-0"],
    )
    def test_rejects_layer_size_below_one(self, layer):
        with pytest.raises(ConfigurationError, match="at least 1"):
            ModelSpec(input_shape=(1, 6, 6), layers=(layer, DenseLayer(4, 3)), num_classes=3)


class TestUnpack:
    @pytest.mark.parametrize(
        "spec",
        [ModelSpec.mlp(784), ModelSpec.cnn_small(), ModelSpec.mlp(5, (3,), 2)],
        ids=["mlp-784", "cnn-small", "mlp-one-hidden"],
    )
    def test_views_match_offset_walk_without_copies(self, spec):
        params = np.random.default_rng(0).standard_normal(param_count(spec))
        views = _unpack(spec, params)
        expected = unpack_by_offsets(spec, params)
        assert len(views) == len(expected) == len(spec.layers)
        for view, want in zip(views, expected):
            if want is None:
                assert view is None
                continue
            for got, ref in zip(view, want):
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)
                assert np.shares_memory(got, params)


class TestInitParams:
    def test_deterministic(self):
        spec = ModelSpec.mlp(8, (5,), 3)
        np.testing.assert_array_equal(init_params(spec, 123), init_params(spec, 123))

    def test_seeds_differ(self):
        spec = ModelSpec.mlp(8, (5,), 3)
        assert np.any(init_params(spec, 1) != init_params(spec, 2))

    def test_biases_start_at_zero(self):
        spec = ModelSpec.mlp(2, (3,), 2)
        params = init_params(spec, 7)
        np.testing.assert_array_equal(params[6:9], 0.0)  # first layer bias slice
        np.testing.assert_array_equal(params[15:17], 0.0)

    def test_weights_within_uniform_limit(self):
        spec = ModelSpec.mlp(8, (5,), 3)
        params = init_params(spec, 3)
        limit = np.sqrt(6.0 / (8 + 5))
        assert np.all(np.abs(params[: 8 * 5]) <= limit)


class TestForward:
    def test_zero_params_give_zero_logits(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        batch = Batch(np.random.default_rng(0).random((5, 6)), np.ones(5, dtype=int))
        np.testing.assert_array_equal(forward(spec, np.zeros(param_count(spec)), batch), 0.0)

    def test_per_sample_independence(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        params = init_params(spec, 5)
        rng = np.random.default_rng(1)
        inputs = rng.random((8, 6))
        full = forward(spec, params, Batch(inputs, np.ones(8, dtype=int)))
        single = forward(spec, params, Batch(inputs[3:4], np.ones(1, dtype=int)))
        np.testing.assert_allclose(full[3], single[0], rtol=0, atol=1e-12)

    def test_matches_hand_rolled_dense_oracle(self):
        spec = ModelSpec.mlp(2, (3,), 2)
        params = init_params(spec, 11)
        rng = np.random.default_rng(2)
        batch = Batch(rng.standard_normal((6, 2)), np.ones(6, dtype=int))
        expected = mlp_forward_by_hand(batch.inputs, params, [2, 3, 2])
        np.testing.assert_allclose(forward(spec, params, batch), expected, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        batch = Batch(np.zeros((2, 5)), np.ones(2, dtype=int))
        with pytest.raises(ConfigurationError):
            forward(spec, init_params(spec, 0), batch)

    def test_wrong_param_length_raises(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        batch = Batch(np.zeros((2, 6)), np.ones(2, dtype=int))
        with pytest.raises(ConfigurationError):
            forward(spec, np.zeros(3), batch)

    def test_pure(self):
        # bias and ReLU run in place, but only on arrays the pass allocated
        specs = (ModelSpec.mlp(6, (4,), 3), ModelSpec.cnn_small((1, 10, 10), 4, channels=(2, 3)), CONV_POOL_DENSE_RELU)
        for spec in specs:
            params = init_params(spec, 9)
            batch = Batch(np.random.default_rng(3).standard_normal((4, spec.input_dim)), np.array([1, 2, 3, 1]))
            before = params.tobytes(), batch.inputs.tobytes()
            logits = forward(spec, params, batch)
            assert (params.tobytes(), batch.inputs.tobytes()) == before
            assert logits.tobytes() == forward(spec, params, batch).tobytes()

    @pytest.mark.parametrize("relu", [True, False], ids=["relu", "linear"])
    def test_dense_in_place_bias_and_relu_bitwise_equal_np_where(self, relu):
        # z = x @ W; z += b; then the in-place ReLU, against np.where(x @ W + b > 0, x @ W + b, 0.0)
        weights = np.array([[1.0, -1.0, 0.0, 2.0], [0.5, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, -3.0]])
        bias = np.array([0.0, -0.0, -0.0, 0.25])
        x = np.array([[-0.0, -0.0, -0.0], [np.nan, 0.0, 1.0], [1.0, -0.0, -1.0], [-1.0, 2.0, 0.5]])
        pre = x @ weights + bias
        assert np.isnan(pre[1]).all() and (pre[0, :3] == 0.0).all()
        expected = np.where(pre > 0.0, pre, 0.0) if relu else pre
        z, (_, mask, _) = DenseLayer(3, 4, relu=relu).forward((weights, bias), x, keep=True)
        assert z.tobytes() == expected.tobytes()
        if relu:
            assert mask.tobytes() == (pre > 0.0).tobytes()
        else:
            assert mask is None

    @pytest.mark.parametrize("keep", [True, False], ids=["keep", "no-cache"])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_relu_of_special_values_bitwise_equals_np_where(self, kind, keep):
        pre = np.concatenate([SPECIALS, SPECIALS[::-1], -SPECIALS])  # 36 values, each sign of each kind
        if kind == "dense":
            layer, x = DenseLayer(3, 4, relu=True), np.ones((9, 3))
            pre = pre.reshape(9, 4)
            expected = np.where(pre > 0, pre, 0.0)
        else:
            layer, x = ConvLayer(1, 2, 3, relu=True), np.ones((2, 1, 5, 5))
            pre = pre.reshape(2, 9, 2)  # (batch, output pixels, channels), as the patch GEMM gives it
            expected = np.where(pre > 0, pre, 0.0).transpose(0, 2, 1).reshape(2, 2, 3, 3)
        assert (np.signbit(pre) & (pre == 0)).any() and np.isnan(pre).any() and np.isinf(pre).any()
        bias = np.full(pre.shape[-1], -0.0)  # adding -0.0 leaves every value's bits as they are
        z, entry = layer.forward((Preactivation(pre), bias), x, keep)
        assert z.tobytes() == expected.tobytes()
        if keep:
            assert entry[1].tobytes() == (expected > 0.0).tobytes()
        else:
            assert entry is None

    @pytest.mark.parametrize("rows", [7, 32, 100, *BLOCK_EDGES])
    @pytest.mark.parametrize(
        "spec", [ModelSpec.mlp(784), ModelSpec.cnn_small(), POOL_FIRST], ids=["mlp", "cnn-small", "pool-first"]
    )
    def test_bitwise_equals_cached_forward(self, spec, rows):
        # forward keeps no cache and runs the conv stack in row blocks; forward_cached runs
        # every layer on the whole batch, so it is the oracle for any row count
        if isinstance(rows, str):
            rows = BLOCK_EDGES[rows](conv_block_rows(spec))
        rng = np.random.default_rng(rows)
        params = init_params(spec, 3)
        inputs = rng.standard_normal((rows, spec.input_dim))
        special = inputs.copy()
        special.flat[::37] = np.resize(SPECIALS, special.flat[::37].shape)  # NaN, +-inf, -0.0 among the rows
        for values in (inputs, special):
            batch = Batch(values, np.ones(rows, dtype=int))
            with np.errstate(invalid="ignore"):  # inf - inf in a patch product
                logits = forward(spec, params, batch)
                assert logits.tobytes() == forward_cached(spec, params, batch)[0].tobytes()


class TestMaxPool:
    @staticmethod
    def assert_matches_loop_oracle(x, s, dy=None):
        pooled, argmax = _maxpool(x, s)
        expected, picks = maxpool_by_loop(x, s)
        assert pooled.tobytes() == expected.tobytes()
        if dy is None:
            dy = np.random.default_rng(5).standard_normal(pooled.shape)
        dx = _maxpool_backward(dy, argmax, x.shape, s)
        assert dx.tobytes() == maxpool_grad_by_loop(dy, picks, x.shape).tobytes()

    def test_tied_zeros_pick_first_in_row_major_order(self):
        # -0.0 == 0.0, so the first element of each window wins and keeps its sign
        x = np.zeros((2, 3, 4, 4))
        x[0, 0, 0, 0] = -0.0  # first in its window
        x[1, 2, 2, 2] = -0.0  # first in its window
        x[0, 1, 1, 0] = -0.0  # third in its window, behind a +0.0
        self.assert_matches_loop_oracle(x, 2)
        pooled, argmax = _maxpool(x, 2)
        assert np.all(argmax == 0)
        assert np.signbit(pooled[0, 0, 0, 0]) and np.signbit(pooled[1, 2, 1, 1])
        assert not np.signbit(pooled[0, 1, 0, 0])

    def test_nan_is_picked_over_larger_values(self):
        x = np.arange(2 * 1 * 6 * 6, dtype=np.float64).reshape(2, 1, 6, 6)
        x[0, 0, 1, 0] = np.nan  # second row of the first window: position 2
        x[1, 0, 4, 5] = np.nan  # two NaNs in one window: the first one, position 1
        x[1, 0, 5, 4] = np.nan
        self.assert_matches_loop_oracle(x, 2)
        _, argmax = _maxpool(x, 2)
        assert argmax[0, 0, 0, 0] == 2 and argmax[1, 0, 2, 2] == 1

    def test_odd_size_drops_trailing_row_and_column(self):
        # 11 -> 5 with many ties: small integers drawn from 0..2
        x = np.random.default_rng(3).integers(0, 3, size=(3, 2, 11, 11)).astype(np.float64)
        self.assert_matches_loop_oracle(x, 2)
        pooled, argmax = _maxpool(x, 2)
        assert pooled.shape == argmax.shape == (3, 2, 5, 5)
        dx = _maxpool_backward(np.ones(pooled.shape), argmax, x.shape, 2)
        assert not dx[:, :, 10, :].any() and not dx[:, :, :, 10].any()

    def test_all_nan_and_all_minus_inf_windows(self):
        x = np.random.default_rng(9).standard_normal((2, 2, 4, 6))
        x[0, 0, :2, :2] = np.nan  # all NaN: position 0
        x[0, 1, 2:, 4:] = -np.nan  # all NaN of the other sign: position 0 keeps its bits
        x[1, 0, :2, 2:4] = -np.inf  # all -inf: position 0
        x[1, 1, 2:, :2] = [[-np.inf, np.nan], [-np.inf, np.nan]]  # the first NaN, position 1
        self.assert_matches_loop_oracle(x, 2)
        pooled, argmax = _maxpool(x, 2)
        assert argmax[0, 0, 0, 0] == argmax[0, 1, 1, 2] == argmax[1, 0, 0, 1] == 0
        assert argmax[1, 1, 1, 0] == 1
        assert np.signbit(pooled[0, 1, 1, 2]) and pooled[1, 0, 0, 1] == -np.inf

    @pytest.mark.parametrize(
        "shape, s",
        [((1, 2, 7, 8), 3), ((1, 1, 6, 6), 2), ((100, 2, 6, 5), 2), ((2, 1, 11, 12), 11)],
        ids=["s3-cropped", "batch-1", "batch-100", "s11-largest-index"],
    )
    def test_tied_values_bitwise_with_int8_index(self, shape, s):
        # values from a small set of specials and integers, so windows tie often
        rng = np.random.default_rng(shape[0] + s)
        values = np.array([-0.0, 0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])
        x = rng.choice(values, size=shape, p=[0.2, 0.2, 0.2, 0.2, 0.08, 0.08, 0.04])
        self.assert_matches_loop_oracle(x, s)
        pooled, argmax = _maxpool(x, s)
        assert argmax.dtype == np.int8 and argmax.shape == pooled.shape
        assert 0 <= argmax.min() and argmax.max() < s * s

    def test_window_above_11_rejected_by_name(self):
        # the window index is int8: s * s - 1 must not exceed 127
        ModelSpec((1, 11, 11), (MaxPoolLayer(11), DenseLayer(1, 2)), 2)
        with pytest.raises(ConfigurationError, match="pooling window must be at most 11, got 12"):
            ModelSpec((1, 12, 12), (MaxPoolLayer(12), DenseLayer(1, 2)), 2)

    @pytest.mark.parametrize("shape, s", [((2, 3, 5, 5), 2), ((2, 3, 6, 7), 3)], ids=["s2", "s3"])
    def test_backward_routes_special_values_bitwise(self, shape, s):
        # inf, NaN and -0.0 land on the argmax unchanged; every other position is +0.0
        x = np.random.default_rng(6).standard_normal(shape)
        dy = np.concatenate([SPECIALS, -SPECIALS]).reshape(2, 3, 2, 2)
        self.assert_matches_loop_oracle(x, s, dy)


class TestConvGradients:
    @pytest.mark.parametrize(
        "in_ch, k, rows, h, w",
        [(1, 2, 2, 5, 7), (1, 3, 3, 8, 6), (3, 2, 2, 6, 9), (3, 3, 1, 7, 5), (1, 3, 40, 28, 28), (8, 3, 40, 13, 13)],
        ids=["c1-k2", "c1-k3", "c3-k2", "c3-k3-one-row", "cnn-small-conv1", "cnn-small-conv2"],
    )
    def test_gradients_bitwise_equal_loop_oracles(self, in_ch, k, rows, h, w):
        rng = np.random.default_rng(in_ch * 100 + k * 10 + rows)
        out_ch = {(1, 28): 8, (8, 13): 16}.get((in_ch, h), 4)  # cnn-small's conv1 and conv2 widths
        layer = ConvLayer(in_ch, out_ch, k)
        weights = rng.standard_normal((out_ch, in_ch, k, k))
        weights[0, 0] = -0.0
        x = rng.standard_normal((rows, in_ch, h, w))
        _, entry = layer.forward((weights, np.zeros(out_ch)), x, keep=True)
        dz = rng.standard_normal((rows, out_ch, h - k + 1, w - k + 1))
        dz[:, 0] = -0.0  # every product of channel 0 is a zero: its weight gradient sums to +0.0
        dz[0, :, 0, :] = -0.0
        dz_before = dz.copy()
        dw = np.full_like(weights, np.nan)  # a gradient entry left unwritten stays NaN
        dx = layer.backward((weights, np.zeros(out_ch)), (dw, np.full(out_ch, np.nan)), entry, dz, need_dx=True)
        assert dz.tobytes() == dz_before.tobytes()
        assert dx.tobytes() == conv_input_grad_by_loop(dz, weights, x.shape).tobytes()
        cols = im2col_by_windows(x, k)
        assert dw.tobytes() == conv_weight_grad_by_loop(dz, cols).reshape(weights.shape).tobytes()
        assert not np.signbit(dw[0]).any()


# Bit patterns that an arithmetic copy could change: NaNs with payloads (quiet
# and signalling, both signs), the infinities and -0.0.
PLANTED_BITS = np.array(
    [0x7FF0000000000001, 0x7FF8000000000123, -0x000FFFFFFFFFFFFF, -0x0007FFFFFFFFFFFF, 0x7FF0000000000000,
     -0x0010000000000000, -0x8000000000000000],
    dtype=np.int64,
)

# What forward_cached kept alive for cnn-small at 40 rows while each conv
# entry held its (B, H'*W', C*k*k) patch matrix (tracemalloc, numpy 2.4).
PATCH_CACHE_BYTES = 5_231_962


class TestIm2col:
    @pytest.mark.parametrize("rows", [1, 40, 100])
    @pytest.mark.parametrize(
        "channels, k, h, w", [(1, 1, 5, 7), (3, 2, 9, 6), (8, 3, 13, 11), (1, 3, 28, 27), (3, 1, 4, 9), (8, 2, 6, 5)],
        ids=["c1-k1", "c3-k2", "c8-k3", "c1-k3", "c3-k1", "c8-k2"],
    )
    def test_gather_bitwise_equals_window_copy(self, channels, k, h, w, rows):
        rng = np.random.default_rng(channels * 100 + k * 10 + rows)
        x = rng.standard_normal((rows, channels, h, w))
        spots = rng.choice(x.size, size=min(x.size, 4 * PLANTED_BITS.size), replace=False)
        x.reshape(-1).view(np.int64)[spots] = np.resize(PLANTED_BITS, spots.size)
        before = x.tobytes()
        cols = _im2col(x, k)
        assert x.tobytes() == before
        want = im2col_by_windows(x, k)
        assert cols.shape == want.shape == (rows, (h - k + 1) * (w - k + 1), channels * k * k)
        assert cols.tobytes() == want.tobytes()
        assert not np.shares_memory(cols, x)

    def test_one_index_serves_every_batch_size(self):
        shape = (3, 17, 10)  # a shape no other test uses, so its index is derived here
        misses = _patch_index.cache_info().misses
        for rows in (1, 40, 100):
            x = np.random.default_rng(rows).standard_normal((rows, *shape))
            assert _im2col(x, 3).tobytes() == im2col_by_windows(x, 3).tobytes()
        assert _patch_index.cache_info().misses == misses + 1
        index = _patch_index(*shape, 3)
        assert index.shape == (15 * 8, 3 * 3 * 3) and not index.flags.writeable


class TestConvCache:
    def test_entry_holds_the_layer_input(self):
        spec = ModelSpec.cnn_small()
        rng = np.random.default_rng(5)
        batch = Batch(rng.random((40, spec.input_dim)), rng.integers(1, 11, 40))
        _, cache = forward_cached(spec, init_params(spec, 6), batch)
        assert np.shares_memory(cache[0][0], batch.inputs)
        assert cache[0][0].shape == (40, 1, 28, 28)
        assert cache[2][0].shape == (40, 8, 13, 13)  # the first pooling layer's output
        patch_shapes = {(40, 26 * 26, 1 * 9), (40, 11 * 11, 8 * 9)}
        held = [a for entry in cache for a in entry if isinstance(a, np.ndarray)]
        assert not any(a.shape in patch_shapes for a in held)

    def test_cached_bytes_below_a_third_of_the_patch_cache(self):
        spec = ModelSpec.cnn_small()
        params = init_params(spec, 1)
        rng = np.random.default_rng(40)
        batch = Batch(rng.random((40, spec.input_dim)), rng.integers(1, 11, 40))
        forward_cached(spec, params, batch)  # the patch index is derived before the count
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            logits, cache = forward_cached(spec, params, batch)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert logits.shape == (40, 10) and len(cache) == len(spec.layers)
        assert kept < PATCH_CACHE_BYTES / 3


class TestBackward:
    def test_zero_grad_logits_give_zero_gradient(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        params = init_params(spec, 5)
        batch = Batch(np.random.default_rng(0).random((4, 6)), np.ones(4, dtype=int))
        np.testing.assert_array_equal(backward(spec, params, batch, np.zeros((4, 3))), 0.0)

    def test_linear_in_grad_logits(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        params = init_params(spec, 5)
        rng = np.random.default_rng(4)
        batch = Batch(rng.random((4, 6)), np.ones(4, dtype=int))
        g = rng.standard_normal((4, 3))
        np.testing.assert_allclose(
            backward(spec, params, batch, 3.0 * g),
            3.0 * backward(spec, params, batch, g),
            rtol=1e-12,
        )

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.mlp(7, (9,), 5),
            ModelSpec.mlp(5, (8, 6), 4),
            ModelSpec.cnn_small((1, 10, 10), 4, channels=(2, 3)),
        ],
        ids=["mlp-1-hidden", "mlp-2-hidden", "cnn"],
    )
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(42)
        params = init_params(spec, 6)
        assert param_count(spec) <= 1000
        batch = Batch(rng.random((3, spec.input_dim)), rng.integers(1, spec.num_classes + 1, 3))
        g_logits = rng.standard_normal((3, spec.num_classes))

        def loss(p):
            return float((forward(spec, p, batch) * g_logits).sum())

        grad = backward(spec, params, batch, g_logits)
        coords = rng.choice(params.size, size=50, replace=False)
        fd = central_difference(loss, params, coords, h=1e-5)
        for c, v in fd.items():
            assert relative_error(grad[c], v) < 1e-4

    def test_pure(self):
        spec = ModelSpec.mlp(6, (4,), 3)
        params = init_params(spec, 5)
        batch = Batch(np.random.default_rng(1).random((4, 6)), np.ones(4, dtype=int))
        g = np.random.default_rng(2).standard_normal((4, 3))
        np.testing.assert_array_equal(
            backward(spec, params, batch, g), backward(spec, params, batch, g)
        )

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec.mlp(784),
            ModelSpec.cnn_small(),
            ModelSpec.mlp(5, (), 3),  # one layer, both first and last
            POOL_FIRST,
        ],
        ids=["mlp", "cnn-small", "single-layer", "pool-first"],
    )
    def test_parameter_gradient_bitwise_equals_full_backward(self, spec):
        # batches of 32, 32 and a smaller last batch of 7, as minibatches yields them
        rng = np.random.default_rng(17)
        params = init_params(spec, 18)
        for rows in (32, 32, 7):
            batch = Batch(rng.random((rows, spec.input_dim)), rng.integers(1, spec.num_classes + 1, rows))
            g_logits = rng.standard_normal((rows, spec.num_classes))
            _, cache = forward_cached(spec, params, batch)
            expected, input_grad = backward_with_input_grad(spec, params, cache, g_logits)
            assert input_grad.shape == (rows, *spec.input_shape)
            assert np.array_equal(backward_from_cache(spec, params, cache, g_logits), expected)


    @pytest.mark.parametrize(
        "spec", [ModelSpec.mlp(784), ModelSpec.cnn_small(), POOL_FIRST, CONV_POOL_DENSE_RELU],
        ids=["mlp", "cnn-small", "pool-first", "conv-pool-dense-relu"],
    )
    def test_gradient_views_bitwise_equal_concatenated_layer_gradients(self, spec):
        # each layer writes into its views of one fresh vector: every entry once, no array shared
        rng = np.random.default_rng(23)
        params = init_params(spec, 24)
        batch = Batch(rng.standard_normal((20, spec.input_dim)), rng.integers(1, spec.num_classes + 1, 20))
        g_logits = rng.standard_normal((20, spec.num_classes))
        _, cache = forward_cached(spec, params, batch)
        grad = backward_from_cache(spec, params, cache, g_logits)
        assert grad.tobytes() == backward_by_concatenation(spec, params, cache, g_logits).tobytes()
        held = [params, batch.inputs, g_logits, *(a for entry in cache for a in entry if isinstance(a, np.ndarray))]
        assert not any(np.shares_memory(grad, a) for a in held)

    @pytest.mark.parametrize("need_dx", [True, False], ids=["need-dx", "first-layer"])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_relu_mask_of_special_values_bitwise_equals_np_where(self, kind, need_dx):
        # each special value of dx sits at one kept and one masked position
        rng = np.random.default_rng(12)
        dx = np.concatenate([SPECIALS, SPECIALS[::-1], -SPECIALS])
        mask = np.arange(dx.size) % 2 == 0
        if kind == "dense":
            layer, linear, x = DenseLayer(3, 4, relu=True), DenseLayer(3, 4), rng.standard_normal((9, 3))
            view = (rng.standard_normal((3, 4)), np.zeros(4))
            entry = (x, mask.reshape(9, 4), x.shape)
            dx = dx.reshape(9, 4)
        else:
            layer, linear, x = ConvLayer(1, 2, 3, relu=True), ConvLayer(1, 2, 3), rng.standard_normal((2, 1, 5, 5))
            view = (rng.standard_normal((2, 1, 3, 3)), np.zeros(2))
            entry = (x, mask.reshape(2, 2, 3, 3))
            dx = dx.reshape(2, 2, 3, 3)
        dz = np.where(entry[1], dx, 0.0)
        with np.errstate(invalid="ignore"):  # inf - inf in the products is expected
            # distinct fills, so that a gradient entry either side leaves unwritten shows
            grads = tuple(np.full_like(v, 7.0) for v in view)
            dx_in = layer.backward(view, grads, entry, dx, need_dx)
            # the oracle: np.where's mask, then the same layer without ReLU
            want_grads = tuple(np.full_like(v, np.nan) for v in view)
            want_dx = linear.backward(view, want_grads, (entry[0], None, *entry[2:]), dz, need_dx)
        assert dx.tobytes() == dz.tobytes()  # masked in place
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in want_grads]
        assert (dx_in is None and want_dx is None) or dx_in.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize(
        "spec", [ModelSpec.mlp(784), ModelSpec.cnn_small(), CONV_POOL_DENSE_RELU],
        ids=["mlp", "cnn-small", "conv-pool-dense-relu"],
    )
    def test_leaves_grad_logits_and_cache_unchanged(self, spec):
        # ReLU layers mask their dx in place; no array the caller holds may change
        rng = np.random.default_rng(8)
        params = init_params(spec, 9)
        batch = Batch(rng.standard_normal((16, spec.input_dim)), np.ones(16, dtype=int))
        _, cache = forward_cached(spec, params, batch)
        g_logits = rng.standard_normal((16, spec.num_classes))
        before = [a.tobytes() for entry in cache for a in entry if isinstance(a, np.ndarray)]
        g_before = g_logits.tobytes()
        backward_from_cache(spec, params, cache, g_logits)
        assert g_logits.tobytes() == g_before
        assert [a.tobytes() for entry in cache for a in entry if isinstance(a, np.ndarray)] == before

    @pytest.mark.parametrize("spec", [ModelSpec.mlp(784), ModelSpec.cnn_small()], ids=["mlp", "cnn-small"])
    def test_into_a_given_vector_writes_every_entry_with_the_fresh_bits(self, spec):
        rng = np.random.default_rng(10)
        params = init_params(spec, 11)
        batch = Batch(rng.standard_normal((8, spec.input_dim)), np.ones(8, dtype=int))
        _, cache = forward_cached(spec, params, batch)
        g_logits = rng.standard_normal((8, spec.num_classes))
        fresh = backward_from_cache(spec, params, cache, g_logits)
        out = np.full(spec.param_count, np.nan)
        assert backward_from_cache(spec, params, cache, g_logits, out) is out
        assert out.tobytes() == fresh.tobytes()


class TestSgdStep:
    def test_no_momentum_is_plain_sgd(self):
        params = np.array([1.0, 2.0, 3.0])
        grad = np.array([0.5, -1.0, 2.0])
        new = sgd_step(params, grad, np.zeros(3), lr=1.0, momentum=0.0, out=np.empty(3))
        np.testing.assert_array_equal(new, params - grad)

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        params = np.array([1.0, -2.0])
        velocity = np.zeros(2)
        new = sgd_step(params, np.zeros(2), velocity, lr=0.1, momentum=0.5, out=np.empty(2))
        np.testing.assert_array_equal(new, params)
        np.testing.assert_array_equal(velocity, 0.0)

    def test_two_steps_with_constant_gradient(self):
        # v1 = g, v2 = 0.5 g + g = 1.5 g, total displacement -lr * 2.5 g = -0.25 g
        g = np.array([2.0, -4.0])
        params, velocity = np.zeros(2), np.zeros(2)
        params = sgd_step(params, g, velocity, lr=0.1, momentum=0.5, out=np.empty(2))
        params = sgd_step(params, g, velocity, lr=0.1, momentum=0.5, out=params)
        np.testing.assert_allclose(params, -0.25 * g, rtol=1e-15)

    def test_pure(self):
        """Only velocity and out are written; out is returned and shares memory with no other argument."""
        params = np.array([1.0, -2.0, 3.0])
        grad = np.array([0.5, 0.25, -1.0])
        velocity = np.array([0.1, -0.2, 0.3])
        out = np.empty(3)
        copies = [a.copy() for a in (params, grad)]
        new = sgd_step(params, grad, velocity, lr=0.1, momentum=0.5, out=out)
        assert new is out
        for before, after in zip(copies, (params, grad)):
            assert before.tobytes() == after.tobytes()
        assert velocity.tobytes() == (0.5 * np.array([0.1, -0.2, 0.3]) + grad).tobytes()
        assert not any(np.shares_memory(out, a) for a in (params, grad, velocity))

    @pytest.mark.parametrize("size", [1, nn.STEP_BLOCK - 1, nn.STEP_BLOCK, 2 * nn.STEP_BLOCK + 3])
    def test_blocks_give_the_bits_of_the_whole_vector_expressions(self, size):
        rng = np.random.default_rng(size)
        params, grad, velocity = rng.standard_normal((3, size)) * np.array([[1.0], [1e-3], [1e-2]])
        params[::7], grad[1::11] = -0.0, 1e300
        expected_velocity = 0.5 * velocity
        expected_velocity += grad
        expected = params - 0.03 * expected_velocity
        into_fresh = sgd_step(params, grad, velocity.copy(), 0.03, 0.5, out=np.empty(size))
        in_place_velocity, in_place = velocity.copy(), params.copy()
        sgd_step(in_place, grad, in_place_velocity, 0.03, 0.5, out=in_place)
        assert into_fresh.tobytes() == in_place.tobytes() == expected.tobytes()
        assert in_place_velocity.tobytes() == expected_velocity.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_aborts_before_writing(self, bad):
        grad = np.full(3 * nn.STEP_BLOCK, 1e300)  # its sum overflows, so the entrywise test decides
        velocity, out = np.zeros(grad.size), np.zeros(grad.size)
        sgd_step(np.zeros(grad.size), grad, velocity, lr=0.1, momentum=0.0, out=out)
        grad[-1] = bad
        velocity[:], out[:] = 1.0, 2.0
        with pytest.raises(NumericalError):
            sgd_step(np.zeros(grad.size), grad, velocity, lr=0.1, momentum=0.0, out=out)
        assert (velocity == 1.0).all() and (out == 2.0).all()

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(NumericalError):
            sgd_step(np.zeros(2), np.array([1.0, np.nan]), np.zeros(2), lr=0.1, momentum=0.0, out=np.empty(2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            sgd_step(np.zeros(3), np.zeros(2), np.zeros(2), lr=0.1, momentum=0.0, out=np.empty(3))


class TestSegments:
    def test_even_split(self):
        lead, trail = split_segments(np.array([1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_array_equal(lead, [1.0, 2.0])
        np.testing.assert_array_equal(trail, [3.0, 4.0])

    def test_odd_split_takes_ceil(self):
        lead, trail = split_segments(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(lead, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(trail, [4.0, 5.0])

    def test_too_short_raises(self):
        with pytest.raises(ConfigurationError):
            split_segments(np.array([1.0]))

    @pytest.mark.parametrize("size", [2, 7, 199_210])
    def test_segments_are_views_of_the_input(self, size):
        vec = np.arange(float(size))
        lead, trail = split_segments(vec)
        assert lead.base is vec and trail.base is vec
        assert lead.ctypes.data == vec.ctypes.data
        assert trail.ctypes.data == vec.ctypes.data + lead.nbytes

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=400), st.integers(min_value=0, max_value=2**32 - 1))
    def test_split_join_round_trip(self, size, seed):
        vec = np.random.default_rng(seed).standard_normal(size)
        np.testing.assert_array_equal(np.concatenate(split_segments(vec)), vec)
