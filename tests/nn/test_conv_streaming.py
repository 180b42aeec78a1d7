"""Streamed ``Conv2D`` vs. the whole-batch im2col lowering, bit for bit.

``Conv2D`` streams im2col over batch chunks through a scratch of at most
``IM2COL_SCRATCH_BYTES``.  Every per-sample GEMM and every add is the one the
whole-batch lowering performs, so outputs and gradients must equal it
bitwise — not merely to a tolerance.  The reference is the stacked fleet
kernel at one member, which materialises the full column matrix.  Shrinking
the budget forces many chunks (and ragged last chunks) on small shapes.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn.layers import conv
from repro.nn.layers.conv import Conv2D
from repro.nn.stacked import stacked_conv2d_backward, stacked_conv2d_forward


def bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


def assert_matches_whole_batch(layer: Conv2D, inputs: np.ndarray, grad_output):
    layer.zero_grad()
    output = layer.forward(inputs)
    grad_inputs = layer.backward(grad_output)
    if len(inputs) == 0:
        # The stacked kernel cannot reshape an empty batch; the whole-batch
        # lowering yields empty outputs and all-(+0.0) parameter gradients.
        assert output.shape == grad_output.shape
        assert grad_inputs.shape == inputs.shape
        for parameter in (layer.weight, layer.bias):
            zeros = np.zeros_like(parameter.grad)
            assert np.array_equal(bits(parameter.grad), bits(zeros))
        return

    weights = layer.weight.value[None]
    biases = layer.bias.value[None]
    ref_output, cols = stacked_conv2d_forward(
        weights, biases, inputs[None], layer.stride, layer.padding
    )
    ref_inputs, ref_weight, ref_bias = stacked_conv2d_backward(
        weights, cols, grad_output[None], inputs[None].shape,
        layer.stride, layer.padding,
    )
    assert np.array_equal(bits(output), bits(ref_output[0]))
    assert np.array_equal(bits(grad_inputs), bits(ref_inputs[0]))
    # `+ 0.0`: the layer accumulates into zeroed gradients (`grad +=`).
    assert np.array_equal(bits(layer.weight.grad), bits(ref_weight[0] + 0.0))
    assert np.array_equal(bits(layer.bias.grad), bits(ref_bias[0] + 0.0))


@st.composite
def conv_cases(draw):
    in_channels = draw(st.integers(1, 8))
    out_channels = draw(st.sampled_from([1, 2, 3]))
    kernel = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    padding = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    height = draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 9))
    width = draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 9))
    batch = draw(st.integers(0, 70))
    chunk = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    return (
        in_channels, out_channels, kernel, stride, padding,
        (batch, in_channels, height, width), chunk, seed,
    )


@settings(max_examples=150, deadline=None)
@given(conv_cases())
# One weight-gradient element (1x1 kernel, one channel in and out): numpy's
# axis-0 sum is pairwise here, not a running sum, so chunks must not add up.
@example((1, 1, (1, 1), (1, 1), (0, 0), (70, 1, 3, 3), 4, 11))
def test_streamed_conv_is_bitwise_the_whole_batch_lowering(case):
    in_channels, out_channels, kernel, stride, padding, shape, chunk, seed = case
    gen = np.random.default_rng(seed)
    layer = Conv2D(
        in_channels, out_channels, kernel, stride=stride, padding=padding, seed=seed
    )
    layer.bias.value[...] = gen.standard_normal(out_channels)
    _, out_h, out_w = layer.output_shape(shape[2], shape[3])
    sample_bytes = in_channels * kernel[0] * kernel[1] * out_h * out_w * 8
    inputs = gen.standard_normal(shape)
    # Exact zeros exercise the signed-zero behaviour of the adds.
    inputs[gen.random(shape) < 0.1] = 0.0
    grad_output = gen.standard_normal((shape[0], out_channels, out_h, out_w))
    grad_output[gen.random(grad_output.shape) < 0.1] = 0.0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(conv, "IM2COL_SCRATCH_BYTES", chunk * sample_bytes)
        assert_matches_whole_batch(layer, inputs, grad_output)
        if shape[0]:
            assert len(layer._scratch) == min(chunk, shape[0])


def test_paper_geometry_cut_layer_is_bitwise_the_whole_batch_lowering():
    # conv_out at the paper geometry: B * L = 256 images, 8 -> 1 channels,
    # 3x3 'same' on 40x40; one sample's columns nearly fill the budget.
    gen = np.random.default_rng(7)
    layer = Conv2D(8, 1, 3, padding="same", seed=7)
    layer.bias.value[...] = 0.25
    inputs = np.maximum(gen.standard_normal((256, 8, 40, 40)), 0.0)
    grad_output = gen.standard_normal((256, 1, 40, 40))
    assert_matches_whole_batch(layer, inputs, grad_output)
    assert layer._scratch.nbytes <= conv.IM2COL_SCRATCH_BYTES
