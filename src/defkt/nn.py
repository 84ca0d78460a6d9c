"""Minimal neural-network engine on flat float64 parameter vectors.

Models are described by a ModelSpec and parameterized by a single 1-D
vector in canonical order: for each layer in sequence, weights
(C-order flattened) followed by biases. Each ModelSpec computes this
layout once, as per-layer slices, when it is built; init_params and
_unpack both read it, so no forward or backward call re-derives it.

Each layer class owns its math in four methods. out_shape(in_shape) checks
and returns the per-sample output shape. param_shapes() gives (weight shape,
bias length, fan_in, fan_out), or None for a layer without parameters.
forward(view, x, keep) returns the output and, when keep, the cache entry.
backward(view, grads, entry, dx, need_dx) writes the (weight, bias) gradients
into the two views `grads` (None for pooling) and returns the input gradient,
or None when need_dx is false. ModelSpec, init_params, forward and
backward_from_cache only loop over the layers.

forward produces logits; the softmax lives in the losses module. It keeps
no cache: each layer's patch matrix, ReLU mask and pooling indices are
freed when the layer returns. It runs the conv stack (every layer before
the first dense layer) on blocks of conv_block_rows rows, so that a
block's widest array stays near CONV_BLOCK_BYTES and in L2, and writes each
block's output into one array for the dense head, which runs on all rows at
once. Blocking changes no bits: the conv GEMM is a batched (B, P, K) @ (K, O)
matmul, one product per row, and the gather, pooling and ReLU kernels work
row by row. The dense GEMM's bits depend on its row count, which is why the
head is not blocked. forward_cached runs the layers unblocked and keeps,
per layer, its input and ReLU mask (dense and conv) or its pooling indices.
A conv layer's patch matrix is not kept: its backward gathers it again from
the cached input, which is a view of the batch for the first layer and the
pooled activation for a later one. The cache feeds backward_from_cache,
which is exact reverse-mode differentiation of <logits, grad_logits> with
respect to the parameters; it stops at the first layer's parameter
gradients and never computes the gradient with respect to the input, which
no caller reads. Each layer writes its gradients into its _unpack views of
one vector, a fresh one or the caller's `out`; the layout tiles the vector,
so each entry is written once and nothing is copied. sgd_step updates the
momentum velocity it is given in place and writes the new parameters into
an `out` vector, which may be the parameters themselves.

Apart from those buffers (backward_from_cache's `out`, sgd_step's velocity
and `out`), no function writes any of its arguments, and identical inputs
give bitwise-identical outputs. In-place steps (the dense and conv bias and
ReLU, the backward ReLU masks, the gradient views) touch only arrays the
same pass allocated. The updates in federation hand those buffers only
vectors they allocate themselves, once per call on the calling thread: the
first step reads the given parameters and writes a fresh result vector,
and later steps update that one. So the contract holds at their
boundaries: no vector that a client or a record holds is ever written, and
split_segments can return views. A ReLU layer is never last (ModelSpec
requires a linear final layer), so the dx its backward masks in place always
comes from the layer above it in the same pass, never from the caller's
grad_logits.

The ReLU kernels are branch-free and give the bits of np.where. Forward,
_relu applies fmax(z, 0), which maps negatives, -inf and NaN to +0.0 and
keeps positives and +inf, then adds +0.0, which under round-to-nearest turns
a -0.0 into +0.0 (IEEE leaves fmax's sign on a zero tie open) and changes no
other value: the result is np.where(z > 0, z, 0.0). Backward, _mask_grad ANDs
dx's 64-bit patterns with 0 or all ones, so kept elements keep their exact
bits, inf and NaN included, and the others become +0.0, whose pattern is 0.

The pooling kernels are branch-free in the same way. _maxpool scans each
window's positions from last to first, keeps the winner's bits and its int8
window index through XOR/AND blends, and so picks the first maximum and the
first NaN (details in its docstring); MaxPoolLayer caps the window at 11 so
that s*s - 1 fits in int8. _maxpool_backward writes dy's bits, ANDed with the
same kind of mask, straight into each window position's sub-grid of dx.

_im2col is one gather, so each patch entry is a bit copy of an input entry.
The conv bias is added as one tiled row of length H'*W'*C_out: the same
elementwise sums as a broadcast of the C_out biases, so the same bits.

The conv gradients rely on the order in which numpy's einsum (optimize off)
sums, and tests/oracles.py pins both orders with loops. Both sums start at
+0.0 and round every product on its own (no fused multiply-add). The weight
gradient, "bop,bpf->of" on dz itself and the patch matrix, sums over (b, p)
in row-major order; no transposed copy of dz is made. The input gradient,
"bop,fo->bfp" against the transposed weight matrix, sums over the output
channels in order; its (b, C, k, k, h', w') result is then scattered into
dx one kernel offset (di, dj) at a time, in row-major order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalError, at_least, check
from .seeding import derive_rng

# Bytes of the widest array a block of forward's conv stack makes: about
# half of one core's L2 on the 2-vCPU Xeon the benchmark runs on.
CONV_BLOCK_BYTES = 1 << 20
# Entries per block of sgd_step: its 64 KiB lr * velocity block stays below
# glibc's 128 KiB mmap threshold, so a step maps and faults no memory.
STEP_BLOCK = 8192


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer: x @ W + b with W of shape (n_in, n_out)."""

    n_in: int
    n_out: int
    relu: bool = False

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        check("dense layer width", self.n_out, at_least(1))
        flat = int(np.prod(in_shape))
        if flat != self.n_in:
            raise ConfigurationError(
                f"dense layer expects {self.n_in} inputs but previous layer produces {flat}"
            )
        return (self.n_out,)

    def param_shapes(self) -> tuple[tuple[int, ...], int, int, int]:
        return (self.n_in, self.n_out), self.n_out, self.n_in, self.n_out

    def forward(self, view, x: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        pre_flatten = x.shape
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        weights, bias = view
        z = x @ weights
        z += bias
        if self.relu:
            _relu(z)
        return z, ((x, z > 0.0 if self.relu else None, pre_flatten) if keep else None)

    def backward(self, view, grads, entry: tuple, dx: np.ndarray, need_dx: bool) -> np.ndarray | None:
        x_in, mask, pre_flatten = entry
        if mask is not None:  # a ReLU layer is never last, so dx is this pass's array
            _mask_grad(dx, mask)
        np.matmul(x_in.T, dx, out=grads[0])
        dx.sum(axis=0, out=grads[1])
        return (dx @ view[0].T).reshape(pre_flatten) if need_dx else None


@dataclass(frozen=True)
class ConvLayer:
    """2-D valid convolution, stride 1, kernel (out_ch, in_ch, k, k) plus bias."""

    in_channels: int
    out_channels: int
    kernel: int
    relu: bool = False

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.out_channels < 1 or self.kernel < 1:
            raise ConfigurationError("convolution channels and kernel must be at least 1")
        if len(in_shape) != 3:
            raise ConfigurationError("convolution layer requires (channels, height, width) input")
        c, h, w = in_shape
        if c != self.in_channels:
            raise ConfigurationError(
                f"convolution expects {self.in_channels} channels but previous layer produces {c}"
            )
        if h < self.kernel or w < self.kernel:
            raise ConfigurationError("convolution kernel larger than its input")
        return (self.out_channels, h - self.kernel + 1, w - self.kernel + 1)

    def param_shapes(self) -> tuple[tuple[int, ...], int, int, int]:
        area = self.kernel * self.kernel
        w_shape = (self.out_channels, self.in_channels, self.kernel, self.kernel)
        return w_shape, self.out_channels, self.in_channels * area, self.out_channels * area

    def forward(self, view, x: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        weights, bias = view
        n, _, h, w = x.shape
        out_h, out_w = h - self.kernel + 1, w - self.kernel + 1
        z = _im2col(x, self.kernel) @ weights.reshape(self.out_channels, -1).T
        rows = z.reshape(n, -1)
        rows += np.tile(bias, out_h * out_w)
        z = z.transpose(0, 2, 1).reshape(n, self.out_channels, out_h, out_w)
        if self.relu:
            _relu(z)
        return z, ((x, z > 0.0 if self.relu else None) if keep else None)

    def backward(self, view, grads, entry: tuple, dx: np.ndarray, need_dx: bool) -> np.ndarray | None:
        x, mask = entry
        weights, _ = view
        if mask is not None:  # a ReLU layer is never last, so dx is this pass's array
            _mask_grad(dx, mask)
        n, out_ch, out_h, out_w = dx.shape
        dz_flat = dx.reshape(n, out_ch, out_h * out_w)
        np.einsum("bop,bpf->of", dz_flat, _im2col(x, self.kernel), out=grads[0].reshape(out_ch, -1))
        dx.sum(axis=(0, 2, 3), out=grads[1])
        if not need_dx:
            return None
        k = self.kernel
        w_t = np.ascontiguousarray(weights.reshape(out_ch, -1).T)
        dcols = np.einsum("bop,fo->bfp", dz_flat, w_t).reshape(n, self.in_channels, k, k, out_h, out_w)
        dx = np.zeros(x.shape, dtype=np.float64)
        for di in range(k):
            for dj in range(k):
                dx[:, :, di : di + out_h, dj : dj + out_w] += dcols[:, :, di, dj]
        return dx


@dataclass(frozen=True)
class MaxPoolLayer:
    """Non-overlapping max pooling; trailing rows/columns that do not fill a window are dropped."""

    size: int = 2

    def out_shape(self, in_shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.size < 1:
            raise ConfigurationError(f"pooling window must be at least 1, got {self.size}")
        if self.size > 11:  # s * s - 1 must fit the int8 window index
            raise ConfigurationError(f"pooling window must be at most 11, got {self.size}")
        if len(in_shape) != 3:
            raise ConfigurationError("pooling layer requires (channels, height, width) input")
        c, h, w = in_shape
        if h < self.size or w < self.size:
            raise ConfigurationError("pooling window larger than its input")
        return (c, h // self.size, w // self.size)

    def param_shapes(self) -> None:
        return None

    def forward(self, view, x: np.ndarray, keep: bool) -> tuple[np.ndarray, tuple | None]:
        pooled, argmax = _maxpool(x, self.size)
        return pooled, ((argmax, x.shape) if keep else None)

    def backward(self, view, grads, entry: tuple, dx: np.ndarray, need_dx: bool) -> np.ndarray:
        argmax, in_shape = entry
        return _maxpool_backward(dx, argmax, in_shape, self.size)


Layer = DenseLayer | ConvLayer | MaxPoolLayer


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description: input shape, layer sequence, class count.

    The final layer must be a DenseLayer without activation whose width
    equals num_classes; its outputs are the logits.
    """

    input_shape: tuple[int, ...]
    layers: tuple[Layer, ...]
    num_classes: int
    # Derived in __post_init__ and left out of repr and comparison. layout holds,
    # per layer, (weight slice, weight shape, bias slice) into the canonical
    # parameter vector, or None for pooling. first_dense is the index of the
    # first DenseLayer, so layers[:first_dense] is the conv stack; widest_row
    # is the most float64 entries per row of any array that stack makes (an
    # output or a patch matrix). macs_per_row counts the multiply-adds of one
    # row's forward: one per weight per output position that shares it.
    # train_macs_per_row counts a training step's: the forward, one weight-
    # gradient product per parameter layer and one input-gradient product per
    # parameter layer after the first (backward_from_cache stops there).
    layout: tuple = field(init=False, repr=False, compare=False)
    param_count: int = field(init=False, repr=False, compare=False)
    input_dim: int = field(init=False, repr=False, compare=False)
    first_param_layer: int = field(init=False, repr=False, compare=False)
    first_dense: int = field(init=False, repr=False, compare=False)
    widest_row: int = field(init=False, repr=False, compare=False)
    macs_per_row: int = field(init=False, repr=False, compare=False)
    train_macs_per_row: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check("num_classes", self.num_classes, at_least(2))
        if not self.layers:
            raise ConfigurationError("model needs at least one layer")
        last = self.layers[-1]
        if not isinstance(last, DenseLayer) or last.relu or last.n_out != self.num_classes:
            raise ConfigurationError("final layer must be a linear DenseLayer with num_classes outputs")
        first_dense = next(i for i, layer in enumerate(self.layers) if isinstance(layer, DenseLayer))
        shape = tuple(self.input_shape)
        layout: list[tuple[slice, tuple[int, ...], slice] | None] = []
        offset = macs = first_macs = 0
        widest = math.prod(shape)
        for i, layer in enumerate(self.layers):
            shape = layer.out_shape(shape)
            if i < first_dense:
                widest = max(widest, math.prod(shape))
            shapes = layer.param_shapes()
            if shapes is None:
                layout.append(None)
                continue
            w_shape, n_bias, fan_in, _ = shapes
            positions = math.prod(shape) // n_bias  # 1 for a dense layer
            layer_macs = math.prod(w_shape) * positions
            macs += layer_macs
            first_macs = first_macs or layer_macs
            if i < first_dense:
                widest = max(widest, fan_in * positions)  # the conv layer's patch matrix
            w_end = offset + math.prod(w_shape)
            layout.append((slice(offset, w_end), w_shape, slice(w_end, w_end + n_bias)))
            offset = w_end + n_bias
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "param_count", offset)
        object.__setattr__(self, "input_dim", int(math.prod(self.input_shape)))
        object.__setattr__(self, "first_param_layer", next(i for i, e in enumerate(layout) if e is not None))
        object.__setattr__(self, "first_dense", first_dense)
        object.__setattr__(self, "widest_row", widest)
        object.__setattr__(self, "macs_per_row", macs)
        object.__setattr__(self, "train_macs_per_row", 3 * macs - first_macs)

    @classmethod
    def mlp(cls, input_dim: int, hidden: tuple[int, ...] = (200, 200), num_classes: int = 10) -> "ModelSpec":
        """ReLU multi-layer perceptron: input_dim -> hidden... -> num_classes."""
        layers: list[Layer] = []
        n_in = input_dim
        for width in hidden:
            layers.append(DenseLayer(n_in, width, relu=True))
            n_in = width
        layers.append(DenseLayer(n_in, num_classes))
        return cls(input_shape=(input_dim,), layers=tuple(layers), num_classes=num_classes)

    @classmethod
    def cnn_small(
        cls,
        input_shape: tuple[int, int, int] = (1, 28, 28),
        num_classes: int = 10,
        channels: tuple[int, int] = (8, 16),
        kernel: int = 3,
    ) -> "ModelSpec":
        """Small CNN: two conv/pool stages then a linear classifier head."""
        c, h, w = input_shape
        c1, c2 = channels
        layers: list[Layer] = [
            ConvLayer(c, c1, kernel, relu=True),
            MaxPoolLayer(2),
            ConvLayer(c1, c2, kernel, relu=True),
            MaxPoolLayer(2),
        ]
        shape = input_shape
        for layer in layers:
            shape = layer.out_shape(shape)
        layers.append(DenseLayer(int(np.prod(shape)), num_classes))
        return cls(input_shape=input_shape, layers=tuple(layers), num_classes=num_classes)


@dataclass
class Batch:
    """A minibatch: inputs (B, d) float64, labels (B,) integers in 1..C."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ConfigurationError("batch inputs must be a (B, d) matrix with B >= 1")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ConfigurationError("batch labels must match the input batch dimension")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def param_count(spec: ModelSpec) -> int:
    """Total number of scalar parameters of a model built from `spec`."""
    return spec.param_count


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Deterministic initial parameter vector for (spec, seed).

    Weights are drawn from U(-a, a) with a = sqrt(6 / (fan_in + fan_out)),
    one draw per layer in canonical order; biases start at zero.
    """
    rng = derive_rng(seed)
    params = np.zeros(spec.param_count, dtype=np.float64)
    for layer, view in zip(spec.layers, _unpack(spec, params)):
        if view is None:
            continue
        _, _, fan_in, fan_out = layer.param_shapes()
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        view[0][...] = rng.uniform(-limit, limit, size=view[0].shape)
    return params


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Views of (weights, bias) per layer through spec.layout; None for pooling."""
    expected = spec.param_count
    if params.shape != (expected,):
        raise ConfigurationError(f"parameter vector has length {params.shape}, expected ({expected},)")
    return [
        None if entry is None else (params[entry[0]].reshape(entry[1]), params[entry[2]])
        for entry in spec.layout
    ]


def _im2col(x: np.ndarray, kernel: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H'*W', C*k*k) patch matrix for a valid convolution.

    Row p = i*W' + j holds the window at output pixel (i, j), and column
    f = c*k*k + di*k + dj holds x[:, c, i + di, j + dj]. The matrix is one
    gather of each input row through _patch_index, so every entry is a bit
    copy of an input entry: NaN payloads, infinities and -0.0 included.
    """
    n, channels, h, w = x.shape
    return np.take(x.reshape(n, -1), _patch_index(channels, h, w, kernel), axis=1)


@functools.cache
def _patch_index(channels: int, h: int, w: int, kernel: int) -> np.ndarray:
    """Read-only (H'*W', C*k*k) index of _im2col's layout into one flattened (C, H, W) input row.

    It does not depend on the batch size, so it is derived once per input shape.
    """
    out_h, out_w = h - kernel + 1, w - kernel + 1
    pixel = (np.arange(out_h)[:, None] * w + np.arange(out_w)).reshape(-1, 1)
    offset = np.arange(channels)[:, None, None] * (h * w) + np.arange(kernel)[:, None] * w + np.arange(kernel)
    index = pixel + offset.reshape(1, -1)
    index.flags.writeable = False
    return index


def _maxpool(x: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping s x s max pooling of (B, C, H, W); returns (pooled, argmax).

    argmax is an int8 array that indexes each window in row-major order; it
    picks the first maximum on ties, and the first NaN over any number. One
    transposing copy lays the windows out as s*s contiguous planes, one per
    window position, and the planes are scanned from the last to the first:
    position t takes over where its value g satisfies g >= best or g is NaN,
    so an earlier position wins every tie (-0.0 against +0.0 included) and no
    number displaces a NaN. The takeover blends the value's 64-bit pattern and
    the index with XOR and AND against the all-ones mask, so values keep their
    exact bits. The plane copy dies on return, so it does not outlive the layer.
    """
    n, channels, h, w = x.shape
    out_h, out_w = h // s, w // s
    windows = x[:, :, : out_h * s, : out_w * s].reshape(n, channels, out_h, s, out_w, s)
    planes = np.ascontiguousarray(windows.transpose(3, 5, 0, 1, 2, 4)).reshape(s * s, n, channels, out_h, out_w)
    bits = planes.view(np.int64)
    best = bits[-1].copy()
    pooled = best.view(np.float64)
    argmax = np.full(best.shape, s * s - 1, dtype=np.int8)
    for t in range(s * s - 2, -1, -1):
        g = planes[t]
        take = np.negative(((g >= pooled) | np.isnan(g)).view(np.int8))  # int8 -1 widens to all ones
        best ^= (best ^ bits[t]) & take
        argmax ^= (argmax ^ t) & take
    return pooled, argmax


def _maxpool_backward(dy: np.ndarray, argmax: np.ndarray, in_shape: tuple[int, ...], s: int) -> np.ndarray:
    """Gradient of _maxpool: each window's dy lands on its argmax position, zero elsewhere.

    Window position t covers one stride sub-grid of dx. dy's 64-bit patterns,
    ANDed with all ones where argmax is t and with 0 elsewhere, are written
    straight into that sub-grid, so a routed value keeps its bits and every
    other position is +0.0.
    """
    out_h, out_w = dy.shape[2:]
    dx = np.zeros(in_shape, dtype=np.float64)
    bits, dy_bits = dx.view(np.int64), dy.view(np.int64)
    for t in range(s * s):
        di, dj = divmod(t, s)
        grid = bits[:, :, di : out_h * s : s, dj : out_w * s : s]
        np.bitwise_and(dy_bits, np.negative((argmax == t).view(np.int8)), out=grid)
    return dx


def _relu(z: np.ndarray) -> None:
    """In place, z becomes bitwise np.where(z > 0, z, 0.0) (see the module docstring)."""
    np.fmax(z, 0.0, out=z)
    z += 0.0


def _mask_grad(dx: np.ndarray, mask: np.ndarray) -> None:
    """In place, dx keeps its bits where mask is set and is +0.0 elsewhere (see the module docstring)."""
    bits = dx.view(np.int64)
    np.bitwise_and(bits, np.negative(mask.view(np.int8)), out=bits)  # int8 -1 widens to all ones


def check_features(spec: ModelSpec, inputs: np.ndarray) -> None:
    """Raise unless each row of the (B, d) matrix `inputs` has the model's input_dim features."""
    if inputs.shape[1] != spec.input_dim:
        raise ConfigurationError(f"batch has {inputs.shape[1]} input features, model expects {spec.input_dim}")


def _inputs(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[np.ndarray, list]:
    """The batch shaped as the first layer's input, and the per-layer parameter views."""
    check_features(spec, batch.inputs)
    views = _unpack(spec, np.asarray(params, dtype=np.float64))
    x: np.ndarray = batch.inputs
    if len(spec.input_shape) == 3:
        x = x.reshape(len(batch), *spec.input_shape)
    return x, views


def forward_cached(spec: ModelSpec, params: np.ndarray, batch: Batch) -> tuple[np.ndarray, list]:
    """Forward pass returning (logits, cache); the cache feeds backward_from_cache.

    It runs every layer on the whole batch: the backward needs whole-batch cache entries.
    """
    x, views = _inputs(spec, params, batch)
    cache: list = []
    for layer, view in zip(spec.layers, views):
        x, entry = layer.forward(view, x, True)
        cache.append(entry)
    return x, cache


def conv_block_rows(spec: ModelSpec) -> int:
    """Rows per block of forward's conv stack: CONV_BLOCK_BYTES over the stack's widest float64 row, at least 1."""
    return max(1, CONV_BLOCK_BYTES // (8 * spec.widest_row))


def forward(spec: ModelSpec, params: np.ndarray, batch: Batch) -> np.ndarray:
    """Logits (B, num_classes) for a batch; keeps no cache and writes no argument.

    The conv stack runs block by block and the dense head on all rows (see
    the module docstring), so the logits are bitwise forward_cached's.
    """
    x, views = _inputs(spec, params, batch)
    head = spec.first_dense
    if head:
        rows = conv_block_rows(spec)
        stacked = None
        for start in range(0, len(x), rows):
            block = x[start : start + rows]
            for layer, view in zip(spec.layers[:head], views[:head]):
                block, _ = layer.forward(view, block, False)
            if stacked is None:
                stacked = np.empty((len(x), *block.shape[1:]))
            stacked[start : start + rows] = block
        x = stacked
    for layer, view in zip(spec.layers[head:], views[head:]):
        x, _ = layer.forward(view, x, False)
    return x


def backward_from_cache(
    spec: ModelSpec, params: np.ndarray, cache: list, grad_logits: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gradient of <logits, grad_logits> w.r.t. params, reusing a forward cache.

    Backpropagation ends at the parameter gradients of the first layer that
    has parameters; the gradient with respect to the batch inputs is not
    computed. It is written into `out` when given (every entry is written),
    else into a fresh vector, and returned.
    """
    views = _unpack(spec, np.asarray(params, dtype=np.float64))
    grad = np.empty(spec.param_count) if out is None else out
    grad_views = _unpack(spec, grad)
    first = spec.first_param_layer
    dx = np.asarray(grad_logits, dtype=np.float64)
    for i in range(len(spec.layers) - 1, first - 1, -1):
        dx = spec.layers[i].backward(views[i], grad_views[i], cache[i], dx, i > first)
    return grad


def sgd_step(
    params: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float, momentum: float, out: np.ndarray
) -> np.ndarray:
    """One classical-momentum step with mu = momentum: v <- mu*v + g, params <- params - lr*v.

    Updates `velocity` in place, writes the new parameters into `out` and
    returns it; `out` may be `params` itself. Nothing else is written, and a
    non-finite gradient raises before anything is. The step runs in blocks of
    STEP_BLOCK entries, so lr*v needs only a block-sized temporary, not a
    vector-sized one; each entry takes the same IEEE operations in the same
    order as the whole-vector expressions, so the bits are theirs.
    """
    if params.shape != grad.shape:
        raise ConfigurationError("parameter and gradient vectors have different lengths")
    # A finite sum means every entry is finite, so the entrywise test and its
    # vector-sized mask run only when the sum is not.
    if not math.isfinite(grad.sum()) and not np.all(np.isfinite(grad)):
        raise NumericalError("non-finite gradient")
    scaled = np.empty(min(STEP_BLOCK, params.size))
    for start in range(0, params.size, STEP_BLOCK):
        block = slice(start, start + STEP_BLOCK)
        v = velocity[block]
        v *= momentum
        v += grad[block]
        lr_v = np.multiply(lr, v, out=scaled[: v.size])
        np.subtract(params[block], lr_v, out=out[block])
    return out


def segment_cut(total: int) -> int:
    """Where split_segments cuts a vector of `total` entries: ceil(total/2), the leading segment's length."""
    return (total + 1) // 2


def split_segments(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat vector at segment_cut into (leading, trailing) segments, as views of it."""
    total = params.shape[0]
    if total < 2:
        raise ConfigurationError("cannot split a vector with fewer than 2 entries")
    cut = segment_cut(total)
    return params[:cut], params[cut:]
