"""Independent reference implementations used to pin expected test values.

These stay deliberately dumb (explicit loops, hand-composed algebra) so
they cannot share a bug with the vectorized implementations they check.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from defkt.data import Dataset, class_means
from defkt.federation import CommLog
from defkt.seeding import derive_rng


def central_difference(f, x: np.ndarray, coords, h: float = 1e-5) -> dict[int, float]:
    """Central finite differences of a scalar function at selected coordinates."""
    out = {}
    for c in coords:
        xp = x.copy()
        xm = x.copy()
        xp[c] += h
        xm[c] -= h
        out[int(c)] = (f(xp) - f(xm)) / (2.0 * h)
    return out


def relative_error(approx: float, exact: float, floor: float = 1e-8) -> float:
    return abs(approx - exact) / max(floor, abs(exact))


def mlp_forward_by_hand(x: np.ndarray, params: np.ndarray, dims: list[int]) -> np.ndarray:
    """Dense ReLU network evaluated with explicit slicing of the canonical layout."""
    offset = 0
    h = x
    for i in range(len(dims) - 1):
        n_in, n_out = dims[i], dims[i + 1]
        w = params[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = params[offset : offset + n_out]
        offset += n_out
        h = h @ w + b
        if i < len(dims) - 2:
            h = np.maximum(h, 0.0)
    assert offset == params.size
    return h


def label_histogram(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts per label 1..num_classes, computed one sample at a time."""
    hist = np.zeros(num_classes, dtype=np.int64)
    for y in labels:
        hist[int(y) - 1] += 1
    return hist


def row_multiset(dataset) -> list[bytes]:
    """Sorted byte encoding of every (input row, label) pair; small datasets only."""
    rows = dataset.batch(slice(None))
    return sorted(
        rows.inputs[i].tobytes() + int(rows.labels[i]).to_bytes(8, "little") for i in range(len(rows))
    )


def synth_by_formula(num_classes: int, per_class: int, dims: int, seed: int, sigma: float):
    """synth_dataset's (inputs, labels) by its per-class formula, on the same derive_rng(seed) stream."""
    rng, means = derive_rng(seed), class_means(num_classes, dims)
    blocks = [means[c] + sigma * rng.standard_normal((per_class, dims)) for c in range(num_classes)]
    labels = [c + 1 for c in range(num_classes) for _ in range(per_class)]
    return np.concatenate(blocks), np.array(labels, dtype=np.int64)


def copying_subset(dataset: Dataset, indices) -> Dataset:
    """The subset that views replaced: rows `indices` copied into a Dataset of their own."""
    return Dataset(dataset.inputs[indices], dataset.labels[indices], dataset.num_classes)


def accuracy_by_loop(logit_rows: np.ndarray, labels: np.ndarray) -> float:
    """Per-sample argmax accuracy with explicit first-maximum tie breaking."""
    correct = 0
    for row, y in zip(logit_rows, labels):
        best = 0
        for j in range(1, row.shape[0]):
            if row[j] > row[best]:
                best = j
        if best + 1 == int(y):
            correct += 1
    return correct / labels.shape[0]


def maxpool_by_loop(x: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping s x s max pooling of (B, C, H, W), one window at a time.

    Each window is scanned in row-major order and keeps its first maximum; a
    NaN counts as larger than any number, so the first NaN wins. Returns the
    pooled values and the (row, column) of each pick inside the input.
    """
    n, channels, h, w = x.shape
    out_h, out_w = h // s, w // s
    pooled = np.zeros((n, channels, out_h, out_w))
    picks = np.zeros((n, channels, out_h, out_w, 2), dtype=np.int64)
    for b in range(n):
        for c in range(channels):
            for i in range(out_h):
                for j in range(out_w):
                    best = (i * s, j * s)
                    for r in range(i * s, i * s + s):
                        for q in range(j * s, j * s + s):
                            v, top = x[b, c, r, q], x[b, c, best[0], best[1]]
                            if not np.isnan(top) and (np.isnan(v) or v > top):
                                best = (r, q)
                    pooled[b, c, i, j] = x[b, c, best[0], best[1]]
                    picks[b, c, i, j] = best
    return pooled, picks


def maxpool_grad_by_loop(dy: np.ndarray, picks: np.ndarray, in_shape: tuple) -> np.ndarray:
    """Gradient of max pooling: each window's dy is written at its pick, zeros elsewhere."""
    dx = np.zeros(in_shape)
    n, channels, out_h, out_w = dy.shape
    for b in range(n):
        for c in range(channels):
            for i in range(out_h):
                for j in range(out_w):
                    r, q = picks[b, c, i, j]
                    dx[b, c, r, q] = dy[b, c, i, j]
    return dx


def conv_input_grad_by_loop(dz: np.ndarray, weights: np.ndarray, in_shape: tuple) -> np.ndarray:
    """Input gradient of a valid stride-1 convolution, in the engine's summation order.

    For each kernel offset (di, dj) in row-major order, every patch entry's
    gradient is summed over the output channels one at a time, starting at
    +0.0, each product rounded on its own; the sums are then added into dx,
    which starts at +0.0. The loops over the reduction and the scatter are
    explicit; the arithmetic of one step runs over all (b, c, i, j) at once.
    """
    n, out_ch, out_h, out_w = dz.shape
    k = weights.shape[2]
    dx = np.zeros(in_shape)
    for di in range(k):
        for dj in range(k):
            total = np.zeros((n, weights.shape[1], out_h, out_w))
            for o in range(out_ch):
                total += dz[:, o, None] * weights[o, :, di, dj][None, :, None, None]
            dx[:, :, di : di + out_h, dj : dj + out_w] += total
    return dx


def im2col_by_windows(x: np.ndarray, kernel: int) -> np.ndarray:
    """(B, C, H, W) -> (B, H'*W', C*k*k) patch matrix, copied out of numpy's sliding-window view.

    This is how the engine built its patch matrix before the gather.
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    batch, channels, out_h, out_w, _, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, channels * kernel * kernel)
    return np.ascontiguousarray(cols)


def conv_weight_grad_by_loop(dz: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(out_ch, C*k*k) weight gradient of a valid convolution from its (B, H'*W', C*k*k) patch matrix.

    Each entry sums dz * cols over (b, p), the batch row and the output pixel,
    in row-major order from +0.0, each product rounded on its own. The loop
    over (b, p) is explicit; one step updates every (o, f) at once.
    """
    n, out_ch = dz.shape[:2]
    dz = dz.reshape(n, out_ch, -1)
    dw = np.zeros((out_ch, cols.shape[2]))
    for b in range(n):
        for p in range(cols.shape[1]):
            dw += dz[b, :, p, None] * cols[b, p][None, :]
    return dw


def backward(spec, params: np.ndarray, batch, grad_logits: np.ndarray) -> np.ndarray:
    """Gradient of <logits, grad_logits> w.r.t. params: a forward pass, then nn.backward_from_cache."""
    from defkt.nn import backward_from_cache, forward_cached

    _, cache = forward_cached(spec, params, batch)
    return backward_from_cache(spec, params, cache, grad_logits)


def backward_by_concatenation(spec, params: np.ndarray, cache: list, grad_logits: np.ndarray) -> np.ndarray:
    """The parameter gradient assembled as the engine once assembled it: each layer's gradients in arrays
    of their own, joined in canonical order by np.concatenate.

    Each array starts as NaN, so an entry the layer leaves unwritten shows.
    """
    from defkt.nn import _unpack

    views = _unpack(spec, params)
    first = spec.first_param_layer
    chunks = []
    dx = np.asarray(grad_logits, dtype=np.float64)
    for i in range(len(spec.layers) - 1, first - 1, -1):
        grads = None if views[i] is None else tuple(np.full(v.shape, np.nan) for v in views[i])
        dx = spec.layers[i].backward(views[i], grads, cache[i], dx, i > first)
        if grads is not None:
            chunks[:0] = [grads[0].ravel(), grads[1]]
    return np.concatenate(chunks)


def fullavg_by_formula(received: np.ndarray, local: np.ndarray, n_sender: int, n_receiver: int) -> np.ndarray:
    """The weighted average as one expression, with its temporaries."""
    return (n_sender * received + n_receiver * local) / (n_sender + n_receiver)


def combo_by_formula(sender: np.ndarray, receiver: np.ndarray, n_sender: int, n_receiver: int):
    """Segment exchange from copied halves: average the exchanged halves, then concatenate."""
    cut = (sender.size + 1) // 2
    lead_s, trail_s = sender[:cut].copy(), sender[cut:].copy()
    lead_r, trail_r = receiver[:cut].copy(), receiver[cut:].copy()
    total = n_sender + n_receiver
    avg_lead = (n_sender * lead_s + n_receiver * lead_r) / total
    avg_trail = (n_sender * trail_s + n_receiver * trail_r) / total
    return np.concatenate([avg_lead, trail_s]), np.concatenate([lead_r, avg_trail])


def unpack_by_offsets(spec, params: np.ndarray) -> list:
    """Views of (weights, bias) per layer, found by walking the offsets one layer at a time.

    Canonical order: each layer's weights (C-order) then its biases; None for
    a pooling layer. The views slice `params` itself, no copies.
    """
    from defkt.nn import ConvLayer, DenseLayer

    views = []
    offset = 0
    for layer in spec.layers:
        if isinstance(layer, DenseLayer):
            w_shape = (layer.n_in, layer.n_out)
            n_bias = layer.n_out
        elif isinstance(layer, ConvLayer):
            w_shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            n_bias = layer.out_channels
        else:
            views.append(None)
            continue
        n_weights = 1
        for d in w_shape:
            n_weights *= d
        weights = params[offset : offset + n_weights].reshape(w_shape)
        offset += n_weights
        views.append((weights, params[offset : offset + n_bias]))
        offset += n_bias
    assert offset == params.size
    return views


def backward_with_input_grad(spec, params: np.ndarray, cache: list, grad_logits: np.ndarray):
    """Full reverse pass through every layer, down to the gradient w.r.t. the inputs.

    This is the engine's backward as it was before it learned to stop at the
    first layer's parameter gradients. Returns (parameter gradient in
    canonical order, input gradient); the parameter gradient must match
    nn.backward_from_cache bit for bit.
    """
    from defkt.nn import ConvLayer, DenseLayer

    views = unpack_by_offsets(spec, np.asarray(params, dtype=np.float64))
    layer_grads = [None] * len(spec.layers)
    dx = np.asarray(grad_logits, dtype=np.float64)
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        entry = cache[i]
        if isinstance(layer, DenseLayer):
            x_in, mask, pre_flatten = entry
            weights, _ = views[i]
            dz = np.where(mask, dx, 0.0) if mask is not None else dx
            layer_grads[i] = (x_in.T @ dz, dz.sum(axis=0))
            dx = dz @ weights.T
            if len(pre_flatten) > 2:
                dx = dx.reshape(pre_flatten)
        elif isinstance(layer, ConvLayer):
            x_in, mask = entry
            in_shape = x_in.shape
            cols = im2col_by_windows(x_in, layer.kernel)
            weights, _ = views[i]
            dz = np.where(mask, dx, 0.0) if mask is not None else dx
            n, out_ch, out_h, out_w = dz.shape
            dz_flat = dz.reshape(n, out_ch, out_h * out_w)
            w_mat = weights.reshape(out_ch, -1)
            dw_mat = np.einsum("bop,bpf->of", dz_flat, cols)
            db = dz.sum(axis=(0, 2, 3))
            dcols = np.einsum("bop,of->bpf", dz_flat, w_mat)
            layer_grads[i] = (dw_mat.reshape(weights.shape), db)
            k = layer.kernel
            dcols = dcols.reshape(n, out_h, out_w, layer.in_channels, k, k)
            dx = np.zeros(in_shape, dtype=np.float64)
            for di in range(k):
                for dj in range(k):
                    dx[:, :, di : di + out_h, dj : dj + out_w] += dcols[:, :, :, :, di, dj].transpose(
                        0, 3, 1, 2
                    )
        else:
            argmax, in_shape = entry
            s = layer.size
            n, channels, out_h, out_w = dx.shape
            dflat = np.zeros((n, channels, out_h, out_w, s * s), dtype=np.float64)
            np.put_along_axis(dflat, argmax[..., None], dx[..., None], axis=-1)
            dwin = dflat.reshape(n, channels, out_h, out_w, s, s).transpose(0, 1, 2, 4, 3, 5)
            dx_full = np.zeros(in_shape, dtype=np.float64)
            dx_full[:, :, : out_h * s, : out_w * s] = dwin.reshape(n, channels, out_h * s, out_w * s)
            dx = dx_full
    chunks = []
    for grad in layer_grads:
        if grad is not None:
            chunks.append(grad[0].ravel())
            chunks.append(grad[1])
    return np.concatenate(chunks), dx


class RecordingLog(CommLog):
    """A CommLog that also keeps every delivered message, payloads included, in delivery order."""

    def __init__(self):
        super().__init__()
        self.messages = []

    def record(self, message) -> None:
        super().record(message)
        self.messages.append(message)


class ComputeProbe:
    """Wraps functions that compute; keeps the thread (and the function name with it) of every call,
    the most calls running at once, and which wrapped functions ran at the same time.

    A wrapped call sleeps `pause` seconds first, so that calls on different
    threads overlap when the code lets them.
    """

    def __init__(self, pause: float = 0.0):
        self.pause = pause
        self.threads = []
        self.calls = []  # (function name, thread) per call
        self.peak = 0
        self.together = set()
        self._running = []
        self._lock = threading.Lock()

    def wrap(self, fn):
        def probed(*args, **kwargs):
            with self._lock:
                self._running.append(fn.__name__)
                self.peak = max(self.peak, len(self._running))
                self.together.add(frozenset(self._running))
                self.threads.append(threading.current_thread())
                self.calls.append((fn.__name__, threading.current_thread()))
            try:
                time.sleep(self.pause)
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._running.remove(fn.__name__)
        return probed


def whole_record(pool, spec, states: dict, test: Dataset):
    """A metrics.Record with every client of `states` added in client order, as a record of round 0 is."""
    from defkt.metrics import Record

    record = Record(pool, spec, test, len(states))
    for k in sorted(states):
        record.add(k, states[k])
    return record


def count_thread_starts(monkeypatch) -> list:
    """Keeps every thread started from now on, in start order, for the rest of the test."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    return started
