"""2-D convolution as im2col unfold plus one GEMM per group.

:func:`~repro.nn.functional.im2col` gathers every receptive field into a
``(N*L, C*k*k)`` column matrix through a cached per-geometry index, so the
convolution is ``cols @ weight.T``; backward issues the two transposed GEMMs
and folds the grad-columns back with the cache-blocked
:func:`~repro.nn.functional.col2im`, whose scatter-add blocking preserves
per-element accumulation order.  Every dtype runs these same GEMM shapes, so
the float64 reference tier's bit-identity contract (stacked/sequential parity,
warm artifact caches keyed on weight fingerprints) holds by construction;
:class:`~repro.nn.stacked.StackedConv2d` issues per-model cores of the same
shapes, so stacked and sequential pools match bit for bit in either tier.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import col2im, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.rng import SeedLike, new_rng


class Conv2d(Module):
    """2-D convolution over NCHW batches.

    ``groups > 1`` splits channels into groups convolved independently;
    ``groups == in_channels == out_channels`` is a depthwise convolution, which
    the MobileNet-style architecture uses.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"in_channels ({in_channels}) and out_channels ({out_channels}) "
                f"must both be divisible by groups ({groups})"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.groups = int(groups)
        rng = new_rng(rng)
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                fan_in=fan_in,
                rng=rng,
            ),
            name="weight",
        )
        self.use_bias = bool(bias)
        if self.use_bias:
            self.bias = Parameter(init.zeros((out_channels,)), name="bias")
        # forward leaves exactly one of these set: the cached columns, or the
        # input that backward re-unfolds; neither means no forward has run
        self._cols = None
        self._eval_input = None
        self._eval_backward_used = False

    @property
    def unfold_width(self) -> int:
        """Columns of this layer's unfold, ``(in_channels // groups) * k^2``."""
        return (self.in_channels // self.groups) * self.kernel_size**2

    def _unfold_group(self, x: np.ndarray, group: int):
        cin_g = self.in_channels // self.groups
        xg = x if self.groups == 1 else x[:, group * cin_g : (group + 1) * cin_g]
        return im2col(xg, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        self._dtype = x.dtype
        n = x.shape[0]
        cout_g = self.out_channels // self.groups
        # im2col buffers are kernel^2 x larger than the input.  Pure inference
        # must not retain that training-sized scratch, but white-box prompt
        # training backpropagates through the frozen model *in eval mode* and
        # would pay a second unfold per step without it — so eval forwards
        # cache the buffers only while backward passes are actually consuming
        # them (one lazy re-unfold re-arms the cache, one backward-free
        # forward drops it)
        keep_cols = self.training or self._eval_backward_used
        self._eval_backward_used = False
        cols_cache = [] if keep_cols else None
        if self.groups == 1:
            # fast path: no per-group list/concatenate round-trip
            cols, out_h, out_w = self._unfold_group(x, 0)
            if cols_cache is not None:
                cols_cache.append(cols)
            w_mat = self.weight.data.reshape(self.out_channels, -1)
            merged = cols @ w_mat.T
        else:
            outputs = []
            for g in range(self.groups):
                cols, out_h, out_w = self._unfold_group(x, g)
                if cols_cache is not None:
                    cols_cache.append(cols)
                wg = self.weight.data[g * cout_g : (g + 1) * cout_g]
                outputs.append(cols @ wg.reshape(cout_g, -1).T)
            # each output is (N*out_h*out_w, cout_g); stack along channel axis
            merged = np.concatenate(outputs, axis=1)
        self._cols = cols_cache
        # the input reference backs the lazy re-unfold; moot when the cols are
        # already cached, so retain at most one of the two
        self._eval_input = None if keep_cols else x
        merged = merged.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if self.use_bias:
            merged = merged + self.bias.data[None, :, None, None]
        return merged

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        cols_cache = self._cols
        if cols_cache is None:
            # eval-mode backward (white-box prompting runs the frozen model in
            # eval); the im2col buffers were dropped after forward, re-unfold
            if self._eval_input is None:
                raise RuntimeError("Conv2d.backward called before forward")
            cols_cache = [
                self._unfold_group(self._eval_input, g)[0] for g in range(self.groups)
            ]
        if not self.training:
            self._eval_backward_used = True
        if self.use_bias:
            self.bias.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        n, _, out_h, out_w = grad_output.shape
        cin_g = self.in_channels // self.groups
        cout_g = self.out_channels // self.groups
        grad_flat = grad_output.transpose(0, 2, 3, 1).reshape(n * out_h * out_w, self.out_channels)
        if self.groups == 1:
            cols = cols_cache[0]
            w_mat = self.weight.data.reshape(self.out_channels, -1)
            self.weight.accumulate_grad(
                (grad_flat.T @ cols).reshape(self.weight.data.shape)
            )
            # the historical full GEMM, then the cache-blocked fold (which is
            # add-order-preserving, hence bitwise equal to the unblocked one)
            grad_input = col2im(
                grad_flat @ w_mat, self._input_shape, self.kernel_size, self.stride, self.padding
            )
            return np.asarray(grad_input, dtype=self._dtype)
        grad_input = np.empty(self._input_shape, dtype=self._dtype)
        grad_weight = np.empty_like(self.weight.data)
        group_input_shape = (n, cin_g, self._input_shape[2], self._input_shape[3])
        for g in range(self.groups):
            gout = grad_flat[:, g * cout_g : (g + 1) * cout_g]
            cols = cols_cache[g]
            wg = self.weight.data[g * cout_g : (g + 1) * cout_g].reshape(cout_g, -1)
            grad_weight[g * cout_g : (g + 1) * cout_g] = (gout.T @ cols).reshape(
                cout_g, cin_g, self.kernel_size, self.kernel_size
            )
            grad_cols = gout @ wg
            grad_input[:, g * cin_g : (g + 1) * cin_g] = col2im(
                grad_cols, group_input_shape, self.kernel_size, self.stride, self.padding
            )
        self.weight.accumulate_grad(grad_weight)
        return grad_input
