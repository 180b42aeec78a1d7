"""2-D convolution implemented with stride-tricks im2col.

The UE-side model of the paper is a small CNN operating on depth images, so a
single, well-tested Conv2D layer (NCHW layout, configurable stride and
padding) is the workhorse of the image branch.

The hot path lowers convolution to one GEMM per sample: patches are gathered
with :func:`numpy.lib.stride_tricks.sliding_window_view` into a column matrix
(``im2col``) that is contracted against the flattened kernel with
``np.matmul``.  :class:`Conv2D` never builds the whole batch's column matrix
(72 x 1600 doubles per image for the paper's cut layer): it streams im2col
over batch chunks through one scratch of at most :data:`IM2COL_SCRATCH_BYTES`,
filled again in backward.  The column gradient is scattered back (col2im) a
chunk at a time; for ``out_channels == 1`` it is rank one, so each kernel
offset's slab is formed as ``w[0, :, i, j] * g`` and no column gradient is
held.  Each sample still gets the same GEMMs and every pixel the same adds in
the same order, so the result equals the whole-batch lowering bit for bit.
That lowering generalizes to a leading fleet-member axis bitwise-identically —
see :mod:`repro.nn.stacked` for the stacked-weight variants used by the
batched fleet backend.

Naive per-output-pixel loop implementations are retained as
``conv2d_forward_reference`` / ``conv2d_backward_reference``.  They are the
correctness oracle for the vectorized path (see
``tests/nn/test_kernel_equivalence.py``) and the baseline of the kernel
micro-benchmarks (``benchmarks/test_bench_nn_kernels.py``); they must never
be called from the training path.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, check_forward_called
from repro.utils.seeding import SeedLike

IM2COL_SCRATCH_BYTES = 1 << 20
"""Byte budget of a :class:`Conv2D` layer's im2col scratch (fits a core's L2)."""


def _pair(value: int | Tuple[int, int]) -> Tuple[int, int]:
    """Normalize an int or 2-tuple into a 2-tuple of ints."""
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError("expected a 2-tuple")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Rearrange image patches into columns (stride-tricks based).

    Args:
        images: array of shape ``(batch, channels, height, width)``.
        kernel_size: ``(kh, kw)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)`` zero padding on each side.
        out: optional preallocated output buffer of the correct shape and
            dtype; reused when compatible, otherwise a fresh array is
            allocated.

    Returns:
        Array of shape ``(batch, channels * kh * kw, out_h * out_w)``.
    """
    batch, channels, height, width = images.shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    if ph or pw:
        padded = np.pad(
            images, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant"
        )
    else:
        padded = images
    # (batch, channels, out_h, out_w, kh, kw) strided view — no copy yet.
    windows = sliding_window_view(padded, (kh, kw), axis=(2, 3))[
        :, :, ::sh, ::sw, :, :
    ]

    shape = (batch, channels * kh * kw, out_h * out_w)
    if (
        out is None
        or out.shape != shape
        or out.dtype != images.dtype
        or not out.flags["C_CONTIGUOUS"]  # reshape below must be a view
    ):
        out = np.empty(shape, dtype=images.dtype)
    # Single strided copy into the (batch, C, kh, kw, out_h, out_w) layout.
    out.reshape(batch, channels, kh, kw, out_h, out_w)[...] = windows.transpose(
        0, 1, 4, 5, 2, 3
    )
    return out


def col2im(
    cols: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`, accumulating overlapping patches.

    The scatter-add runs over the ``kh * kw`` kernel offsets (not over output
    pixels): overlapping windows alias the same padded pixels, so the
    accumulation cannot be expressed as one strided copy.
    """
    batch, channels, height, width = image_shape
    kh, kw = kernel_size
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros(
        (batch, channels, height + 2 * ph, width + 2 * pw), dtype=cols.dtype
    )
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j, :, :]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph : ph + height, pw : pw + width]


def conv2d_forward_reference(
    inputs: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> np.ndarray:
    """Naive per-output-pixel convolution (correctness oracle, never hot path).

    Args:
        inputs: ``(batch, in_channels, H, W)``.
        weight: ``(out_channels, in_channels, kh, kw)``.
        bias: optional ``(out_channels,)``.
        stride: ``(sh, sw)``.
        padding: ``(ph, pw)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h = conv_output_size(height, kh, sh, ph)
    out_w = conv_output_size(width, kw, sw, pw)

    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    output = np.zeros((batch, out_channels, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[
                        b, :, i * sh : i * sh + kh, j * sw : j * sw + kw
                    ]
                    output[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                output[b, oc] += bias[oc]
    return output


def conv2d_backward_reference(
    inputs: np.ndarray,
    weight: np.ndarray,
    grad_output: np.ndarray,
    stride: Tuple[int, int] = (1, 1),
    padding: Tuple[int, int] = (0, 0),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Naive convolution backward pass (correctness oracle, never hot path).

    Returns:
        ``(grad_inputs, grad_weight, grad_bias)``.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    grad_output = np.asarray(grad_output, dtype=np.float64)
    batch, _, height, width = inputs.shape
    out_channels, _, kh, kw = weight.shape
    sh, sw = stride
    ph, pw = padding
    out_h, out_w = grad_output.shape[2], grad_output.shape[3]

    padded = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    grad_padded = np.zeros_like(padded)
    grad_weight = np.zeros_like(weight, dtype=np.float64)
    grad_bias = grad_output.sum(axis=(0, 2, 3))
    for b in range(batch):
        for oc in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    g = grad_output[b, oc, i, j]
                    rows = slice(i * sh, i * sh + kh)
                    cols = slice(j * sw, j * sw + kw)
                    grad_weight[oc] += g * padded[b, :, rows, cols]
                    grad_padded[b, :, rows, cols] += g * weight[oc]
    if ph or pw:
        grad_inputs = grad_padded[:, :, ph : ph + height, pw : pw + width]
    else:
        grad_inputs = grad_padded
    return grad_inputs, grad_weight, grad_bias


class Conv2D(Layer):
    """2-D convolution over inputs of shape ``(batch, channels, H, W)``.

    The im2col lowering streams over batch chunks through one scratch buffer
    of at most :data:`IM2COL_SCRATCH_BYTES` (or one sample, if that is
    larger).  The scratch is reused by every call with the same geometry and
    is never part of the layer's state.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | Tuple[int, int],
        stride: int | Tuple[int, int] = 1,
        padding: int | Tuple[int, int] | str = 0,
        use_bias: bool = True,
        weight_init: str = "he_uniform",
        name: str | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(name=name, seed=seed)
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        if padding == "same":
            if any(s != 1 for s in self.stride):
                raise ValueError("'same' padding requires stride 1")
            if any(k % 2 == 0 for k in self.kernel_size):
                raise ValueError("'same' padding requires odd kernel sizes")
            self.padding = (self.kernel_size[0] // 2, self.kernel_size[1] // 2)
        elif padding == "valid":
            self.padding = (0, 0)
        else:
            self.padding = _pair(padding)
        self.use_bias = bool(use_bias)

        kh, kw = self.kernel_size
        w_init = get_initializer(weight_init)
        self.weight = self.add_parameter(
            "weight", w_init((self.out_channels, self.in_channels, kh, kw), self.rng)
        )
        if self.use_bias:
            self.bias = self.add_parameter(
                "bias", np.zeros(self.out_channels, dtype=np.float64)
            )
        else:
            self.bias = None

        self._padded: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    def output_shape(self, height: int, width: int) -> Tuple[int, int, int]:
        """Return ``(out_channels, out_h, out_w)`` for a given input size."""
        out_h = conv_output_size(
            height, self.kernel_size[0], self.stride[0], self.padding[0]
        )
        out_w = conv_output_size(
            width, self.kernel_size[1], self.stride[1], self.padding[1]
        )
        return self.out_channels, out_h, out_w

    def _column_chunks(self, padded: np.ndarray, spatial: int):
        """Yield ``(start, stop, cols)``: the im2col matrix, chunk by chunk.

        ``padded`` is the zero-padded input.  Every chunk is written into the
        layer's scratch, which holds as many samples as fit
        :data:`IM2COL_SCRATCH_BYTES` (at least one, at most the batch) and is
        reallocated only when that shape changes.
        """
        batch = padded.shape[0]
        features = self.in_channels * self.kernel_size[0] * self.kernel_size[1]
        sample_bytes = features * spatial * np.dtype(np.float64).itemsize
        chunk = max(1, min(batch, IM2COL_SCRATCH_BYTES // sample_bytes))
        if self._scratch is None or self._scratch.shape != (chunk, features, spatial):
            self._scratch = np.empty((chunk, features, spatial))
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            cols = im2col(
                padded[start:stop],
                self.kernel_size,
                self.stride,
                (0, 0),
                out=self._scratch[: stop - start],
            )
            yield start, stop, cols

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 4:
            raise ValueError(
                f"{self.name}: expected 4-D input (batch, channels, H, W), "
                f"got shape {inputs.shape}"
            )
        if inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"{self.name}: expected {self.in_channels} input channels, "
                f"got {inputs.shape[1]}"
            )
        batch, _, height, width = inputs.shape
        _, out_h, out_w = self.output_shape(height, width)
        ph, pw = self.padding
        # Padded once for the whole batch and kept for backward: a fraction
        # of the column matrix, which is only ever built chunk by chunk.
        if ph or pw:
            inputs = np.pad(inputs, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        self._padded = inputs

        kernel_matrix = self.weight.value.reshape(self.out_channels, -1)
        output = np.empty((batch, self.out_channels, out_h * out_w))
        # One GEMM per sample, as in the whole-batch broadcasted np.matmul
        # (and the stacked fleet kernels in repro.nn.stacked), so chunking
        # changes no bit of the output.
        for start, stop, cols in self._column_chunks(inputs, out_h * out_w):
            np.matmul(kernel_matrix, cols, out=output[start:stop])
        if self.use_bias:
            output += self.bias.value[None, :, None]
        return output.reshape(batch, self.out_channels, out_h, out_w)

    def _column_grad_slabs(self, grad_chunk: np.ndarray, cols: np.ndarray):
        """Yield ``(i, j, slab)``: the column gradient of a chunk, per offset.

        ``slab`` is the ``(n, in_channels, out_h * out_w)`` part of
        ``W^T @ grad`` belonging to kernel offset ``(i, j)``; offsets come in
        :func:`col2im`'s order.  Both variants overwrite ``cols`` (the
        chunk's columns, no longer needed).
        """
        count, spatial = grad_chunk.shape[0], grad_chunk.shape[2]
        kh, kw = self.kernel_size
        weight = self.weight.value
        if self.out_channels == 1:
            # A rank-1 column gradient: offset (i, j)'s slab is w[0, :, i, j]
            # times g, the product the K=1 GEMM forms, so only one slab is
            # ever held instead of the whole column gradient.
            slab = cols.reshape(-1)[: count * self.in_channels * spatial]
            slab = slab.reshape(count, self.in_channels, spatial)
            for i in range(kh):
                for j in range(kw):
                    np.multiply(weight[0, :, i, j, None], grad_chunk, out=slab)
                    yield i, j, slab
            return
        kernel_matrix = weight.reshape(self.out_channels, -1)
        grad_cols = np.matmul(kernel_matrix.T, grad_chunk, out=cols)
        grad_cols = grad_cols.reshape(count, self.in_channels, kh, kw, spatial)
        for i in range(kh):
            for j in range(kw):
                yield i, j, grad_cols[:, :, i, j]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        padded = check_forward_called(self._padded, self)
        grad_output = np.asarray(grad_output, dtype=np.float64)
        batch, _, padded_h, padded_w = padded.shape
        out_h, out_w = grad_output.shape[2], grad_output.shape[3]
        sh, sw = self.stride
        ph, pw = self.padding
        grad_flat = grad_output.reshape(batch, self.out_channels, out_h * out_w)
        weight_shape = self.weight.value.shape

        # The per-sample weight products are reduced by the same
        # ``.sum(axis=0)`` over the same array as the whole-batch lowering:
        # numpy sums pairwise when ``out_channels * features == 1``, so a
        # running sum across chunks would not match it bit for bit.
        products = np.empty((batch, self.out_channels, self.weight.value[0].size))
        grad_padded = np.zeros(padded.shape)
        for start, stop, cols in self._column_chunks(padded, out_h * out_w):
            grad_chunk = grad_flat[start:stop]
            np.matmul(grad_chunk, cols.transpose(0, 2, 1), out=products[start:stop])
            # col2im, restricted to this chunk's rows: every padded pixel
            # still receives its addends in the whole-batch (i, j) order.
            target = grad_padded[start:stop]
            for i, j, slab in self._column_grad_slabs(grad_chunk, cols):
                window = target[:, :, i : i + sh * out_h : sh, j : j + sw * out_w : sw]
                window += slab.reshape(window.shape)

        self.weight.grad += products.sum(axis=0).reshape(weight_shape)
        if self.use_bias:
            self.bias.grad += grad_flat.sum(axis=(0, 2))
        if ph == 0 and pw == 0:
            return grad_padded
        return grad_padded[:, :, ph : padded_h - ph, pw : padded_w - pw]
