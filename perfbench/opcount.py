"""Computed floating-point operation counts of the model engine.

Counts are derived from a ModelSpec's layer shapes, not measured. Only the
GEMM and convolution terms are counted: a dense layer costs 2*n_in*n_out
per sample, a valid stride-1 convolution 2*out_h*out_w*out_ch*in_ch*k^2.
Backward counts one weight-gradient and one input-gradient product per
layer, which is what `backward_from_cache` computes. Bias, ReLU and pooling
are left out.
"""

from __future__ import annotations

from defkt.nn import ConvLayer, DenseLayer, ModelSpec


def forward_flops_per_sample(spec: ModelSpec) -> int:
    flops = 0
    shape = tuple(spec.input_shape)
    for layer in spec.layers:
        if isinstance(layer, DenseLayer):
            flops += 2 * layer.n_in * layer.n_out
            shape = (layer.n_out,)
        elif isinstance(layer, ConvLayer):
            _, h, w = shape
            out_h, out_w = h - layer.kernel + 1, w - layer.kernel + 1
            flops += 2 * out_h * out_w * layer.out_channels * layer.in_channels * layer.kernel ** 2
            shape = (layer.out_channels, out_h, out_w)
        else:
            c, h, w = shape
            shape = (c, h // layer.size, w // layer.size)
    return flops


def backward_flops_per_sample(spec: ModelSpec) -> int:
    return 2 * forward_flops_per_sample(spec)
