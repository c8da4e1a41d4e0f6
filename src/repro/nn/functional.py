"""Stateless numerical routines shared by layers, losses and defenses."""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np


def as_float(x: np.ndarray) -> np.ndarray:
    """Coerce to a floating dtype, preserving float32 (the low-precision tier).

    Non-float inputs (int arrays, lists) promote to float64 exactly as the old
    hard cast did, so every pre-existing caller sees unchanged results.  This
    is the sanctioned coercion point for forward-path entries: everything else
    in ``repro/nn`` must follow the dtype this hands it.
    """
    x = np.asarray(x)
    if x.dtype == np.float32:
        return x
    return np.asarray(x, dtype=np.float64)  # repro-lint: disable=P103 -- the reference-tier coercion point itself: non-float32 input promotes to float64 by contract


#: backwards-compatible private alias (pre-dates the public spelling)
_as_float = as_float


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis`` (dtype-preserving for floats)."""
    logits = as_float(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis`` (dtype-preserving for floats)."""
    logits = as_float(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    """Integer labels -> one-hot matrix of shape (N, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): [{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (dtype-preserving for floats)."""
    x = as_float(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy given logits or probabilities of shape (N, K).

    Accepts any dtype numpy can ``argmax`` over; an empty batch (``N == 0``,
    any dtype — e.g. the ``(0, K)`` output of ``predict_logits`` on no
    images) returns ``0.0`` rather than propagating a NaN mean.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D (N, K), got shape {logits.shape}")
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits and labels disagree on batch size")
    if logits.shape[0] == 0:
        return 0.0
    preds = np.argmax(logits, axis=1)
    return float(np.mean(preds == labels))


# ---------------------------------------------------------------------------
# im2col / col2im — the workhorse behind Conv2d and the pooling layers.
#
# Shape/dtype contract (Conv2d, StackedConv2d and the pooling layers build
# on it):
#
# * im2col(x: (N, C, H, W)) -> cols: (N*out_h*out_w, C*kernel*kernel), with
#   rows ordered image-major then row-major over the output grid, and columns
#   ordered channel-major then (ky, kx) row-major over the kernel window.
#   It is one gather: a cached per-geometry index says which element of the
#   zero-padded NCHW image every column element copies (the indirection
#   buffer of the Indirect Convolution Algorithm, Dukhan, arXiv:1907.02129).
#   conv_windows exposes the same placement tensor as a strided
#   (N, C, out_h, out_w, k, k) view; it is the reference the gather is
#   tested against.
# * col2im(cols) is the exact adjoint: scatter-add over the same ordering,
#   back to (N, C, H, W).
# * Both preserve the input dtype (float32 stays float32; the accumulator in
#   col2im is the cols dtype).  col2im's cache blocking is bitwise-safe (it
#   never reorders any per-element accumulation).  Re-tiling or re-orienting
#   the GEMM around them would not be: it changes BLAS kernel selection and
#   rounds differently on some shapes, which the float64 bit-identity
#   contract rules out (see repro.nn.conv).
# ---------------------------------------------------------------------------

#: byte budget per col2im scatter-add tile; sized so one tile's working set
#: (cols slice + padded slice) stays within a typical per-core L2.  Folding
#: the whole (N, C·k·k, L) buffer in one pass streams it k^2 times through
#: DRAM; per-image blocks keep the scatter-add resident.
_COL2IM_BLOCK_BYTES = 1 << 19

#: conservative per-chunk bound on eval-mode conv unfolds: the widest unfold
#: row of any conv times the full input H x W (see inference_rows).  Convs
#: that run after a stride see fewer positions, so the largest real unfold
#: is smaller (4.1 MB in a 28-image chunk of the tiny resnet18 at 16 px).
#: The value was tuned empirically by a resnet18 audit sweep over 2-16 MiB.
_INFERENCE_UNFOLD_BYTES = 1 << 23

#: most images per inference chunk, and the chunk of conv-free models
_INFERENCE_MAX_ROWS = 256

#: bounds of the im2col gather index cache: geometries kept, and the largest
#: index kept (so it never holds more than 16 x 4 MiB; see im2col)
_UNFOLD_INDEX_CACHE = 16
_UNFOLD_INDEX_MAX_BYTES = 1 << 22


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid convolution geometry: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def conv_windows(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Strided kernel-placement view over an NCHW batch (no data copied).

    Returns ``(windows, out_h, out_w)`` where ``windows`` is a zero-copy
    ``(N, C, out_h, out_w, kernel, kernel)`` view (over a padded copy when
    ``padding > 0``) whose ``[n, c, i, j]`` block is the receptive field of
    output pixel ``(i, j)``.  ``im2col`` is exactly
    ``windows.transpose(0, 2, 3, 1, 4, 5).reshape(N*out_h*out_w, C*k*k)``,
    which makes this view the test oracle for the cached-index gather.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="constant"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    return windows[:, :, ::stride, ::stride], out_h, out_w


def _build_unfold_index(
    c: int, h: int, w: int, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Where each im2col column element sits in one flattened padded image.

    Entry ``[i * out_w + j, (ch * k + ky) * k + kx]`` is the offset of
    ``padded[ch, i * stride + ky, j * stride + kx]`` in the ``(C, H+2p, W+2p)``
    image, so row and column order match the module contract exactly.
    """
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    padded_w = w + 2 * padding
    taps = np.arange(kernel)
    col_offsets = (
        np.arange(c)[:, None, None] * ((h + 2 * padding) * padded_w)
        + taps[None, :, None] * padded_w
        + taps[None, None, :]
    ).reshape(-1)
    row_offsets = (
        np.arange(out_h)[:, None] * (stride * padded_w)
        + np.arange(out_w)[None, :] * stride
    ).reshape(-1)
    index = (row_offsets[:, None] + col_offsets[None, :]).astype(np.intp)
    index.flags.writeable = False
    return index


_cached_unfold_index = lru_cache(maxsize=_UNFOLD_INDEX_CACHE)(_build_unfold_index)


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW batch into a column matrix.

    Returns ``(cols, out_h, out_w)`` where ``cols`` is a fresh C-contiguous
    ``(N * out_h * out_w, C * kernel * kernel)`` array — see the module-level
    contract above for the exact row/column ordering.

    The unfold is one ``np.take`` over the zero-padded batch, flattened per
    image, with an index built once per ``(C, H, W, kernel, stride,
    padding)``.  The index cache is bounded: at most ``_UNFOLD_INDEX_CACHE``
    geometries, each with an index of at most ``_UNFOLD_INDEX_MAX_BYTES``
    (one ``intp`` per column element of a single image); larger geometries
    rebuild theirs per call.  Every element is a plain copy, so the columns
    are byte for byte those of ``conv_windows``' transposed view, and the
    input dtype is preserved.  The input is never written.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    index_bytes = out_h * out_w * c * kernel * kernel * np.dtype(np.intp).itemsize
    build = (
        _cached_unfold_index
        if index_bytes <= _UNFOLD_INDEX_MAX_BYTES
        else _build_unfold_index
    )
    index = build(c, h, w, kernel, stride, padding)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x = padded
    cols = np.take(x.reshape(n, -1), index, axis=1)
    return cols.reshape(n * out_h * out_w, c * kernel * kernel), out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold a column matrix back into an NCHW gradient (adjoint of :func:`im2col`).

    The k^2-offset scatter-add is cache-blocked over images: per-image folds
    are independent, so tiling the batch axis keeps each tile's cols slice
    and output slice L2-resident instead of streaming the whole k^2-sized
    buffer through DRAM once per kernel offset.  Per-element accumulation
    order over (ky, kx) is unchanged, so the result is bitwise identical to
    the unblocked fold.
    """
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    per_image_bytes = out_h * out_w * c * kernel * kernel * cols.itemsize
    block = max(1, _COL2IM_BLOCK_BYTES // max(per_image_bytes, 1))
    for start in range(0, n, block):
        tile, tile_cols = padded[start : start + block], cols6[start : start + block]
        # per (ky, kx) offset the strided slice assignment is the adjoint of
        # the conv_windows view
        for ky in range(kernel):
            y_max = ky + stride * out_h
            for kx in range(kernel):
                x_max = kx + stride * out_w
                tile[:, :, ky:y_max:stride, kx:x_max:stride] += tile_cols[:, :, ky, kx]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def inference_rows(model, image_shape: Tuple[int, ...], dtype) -> int:
    """Most images one eval-mode forward of ``model`` should take at once.

    ``widest`` is the largest unfold row, ``(in_channels // groups) * k^2``,
    over the model's conv leaves (any module with an ``unfold_width``:
    ``Conv2d`` and ``StackedConv2d``).  The row count keeps an unfold of that
    width over the full input ``H x W`` within ``_INFERENCE_UNFOLD_BYTES``,
    capped at ``_INFERENCE_MAX_ROWS``, which conv-free models always get.
    It ignores stride and where in the model the widest conv sits, so it
    bounds every real unfold from above.  Only the model's geometry, the
    image size and the dtype enter, never the worker count or backend, so
    every backend chunks a batch alike.
    """
    widest = max((getattr(m, "unfold_width", 0) for m in model.modules()), default=0)
    if widest == 0:
        return _INFERENCE_MAX_ROWS
    image_bytes = image_shape[-2] * image_shape[-1] * np.dtype(dtype).itemsize * widest
    return max(1, min(_INFERENCE_MAX_ROWS, _INFERENCE_UNFOLD_BYTES // image_bytes))


def balanced_chunks(n: int, rows: int) -> List[slice]:
    """Cover ``range(n)`` with ``ceil(n / rows)`` slices differing by at most one.

    A plain ``range(0, n, rows)`` split can leave a tail of one or two
    images, and forwards that small round differently from wide ones;
    balanced chunks of ``n > rows`` images each hold more than ``rows / 2``.
    """
    count = -(-n // rows)
    return [slice(i * n // count, (i + 1) * n // count) for i in range(count)]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``."""
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    # norm of per-array norms == global norm, computed in two vectorised calls
    # instead of a Python generator of per-array floats
    total = float(np.linalg.norm([np.linalg.norm(g.ravel()) for g in grads]))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
