"""Convolution-subsampling tokenizer and the temporal convolution block.

Both use causal (left-only) padding: a decoder-only generative stack must
never read future timesteps.  The tokenizer halves the sequence twice
(kernel 3, stride 2, channel count preserved), so 4 | L gives exactly L/4
tokens.  The temporal block has one layout: a residual of layer norm, a
bias-free depth-wise stage that never mixes channels, a bias-free
point-wise stage that never mixes timesteps, then batch norm and swish.
Batch-norm statistics are batch global during training; causality is
exact in eval mode, which is the mode autoregressive decoding runs in.
The block is one tape node with an analytic backward; both directions run
one block of whole batch rows at a time (:func:`~tsgpt.tensor.map_blocks`),
so that the depth-wise taps work on arrays that stay in cache.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, StateError
from .tensor import (
    BATCH_NORM_EPS,
    BATCH_NORM_MOMENTUM,
    BatchNormState,
    Rng,
    Tensor,
    _accum,
    add_partials,
    as_f64,
    batch_norm_eval_array,
    batch_norm_eval_scale,
    block_threads,
    conv1d,
    grad_enabled,
    layer_norm_array,
    layer_norm_grad_array,
    map_blocks,
    row_blocks,
    swish,
    swish_array,
)


def _taps(src: np.ndarray, taps: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """Causal depth-wise convolution into ``acc`` [n, L, C], summed in tap
    order from zero: tap j adds ``src[:, j : j + L] * taps[j]``."""
    L = acc.shape[1]
    acc.fill(0.0)
    for j, tap in enumerate(taps):
        np.multiply(src[:, j : j + L], tap, out=tmp)
        acc += tmp


def _uniform_init(rng: Rng, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(shape, -bound, bound))


def subsampled_length(length: int) -> int:
    """Token count produced by the two stride-2 convolutions."""
    l1 = (length - 1) // 2 + 1
    return (l1 - 1) // 2 + 1


class ConvSubsampler:
    """Two causal 1-D convolutions (kernel 3, stride 2, V -> V), swish between."""

    def __init__(self, channels: int, rng: Rng):
        self.w1 = _uniform_init(rng.child("w1"), (channels, channels, 3), channels * 3)
        self.b1 = Tensor(np.zeros(channels))
        self.w2 = _uniform_init(rng.child("w2"), (channels, channels, 3), channels * 3)
        self.b2 = Tensor(np.zeros(channels))

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3:
            raise InputError(f"subsampler expects [batch, L, V], got {x.shape}")
        if x.shape[1] < 4:
            raise InputError(f"subsampler needs L >= 4, got L={x.shape[1]}")
        h = conv1d(x, self.w1, self.b1, stride=2, pad_left=2)
        h = swish(h)
        return conv1d(h, self.w2, self.b2, stride=2, pad_left=2)


class TemporalConvModule:
    """Residual block: layer norm, a depth-wise stage, a point-wise stage,
    batch norm, swish.

    Neither stage carries a bias.  Batch norm subtracts the per-channel
    batch mean, so a constant added to each channel before it cancels: a
    bias there gets only rounding-level gradient and does no work.
    """

    def __init__(self, d: int, kernel: int, rng: Rng):
        self.kernel = kernel
        self.ln_gain = Tensor(np.ones(d))
        self.ln_bias = Tensor(np.zeros(d))
        self.dw_w = _uniform_init(rng.child("dw0"), (d, kernel), kernel)
        self.pw_w = _uniform_init(rng.child("pw1"), (d, d), d)
        self.bn_gain = Tensor(np.ones(d))
        self.bn_bias = Tensor(np.zeros(d))
        self.bn_state = BatchNormState()

    def named_params(self) -> list[tuple[str, Tensor]]:
        return [
            ("ln_gain", self.ln_gain),
            ("ln_bias", self.ln_bias),
            ("stage0_dw_w", self.dw_w),
            ("stage1_pw_w", self.pw_w),
            ("bn_gain", self.bn_gain),
            ("bn_bias", self.bn_bias),
        ]

    def forward(self, x: Tensor, train: bool, valid: np.ndarray | None = None, capture: dict | None = None) -> Tensor:
        """Residual block as one tape node, bitwise the six-op composite.
        Train mode normalizes by the batch statistics (positions weighted by
        ``valid``) and folds them into the running ones.  ``capture`` receives
        under "dw_input" the buffer :meth:`step` continues from: the last
        kernel-1 depth-wise inputs, zero-padded in front.  The tape keeps the
        padded layer-norm output, the depth-wise output, the normalized
        point-wise output and swish's sigmoid (the backward recomputes the
        layer norm); under :func:`no_grad` only the output spans the batch.
        Blocks run on up to two threads (:func:`~tsgpt.tensor.map_blocks`),
        each with its own block-sized scratch, allocated here."""
        xv, params = x.value, self.named_params()
        gl, bl, wd, wp, gb, bb = (p.value for _, p in params)
        B, L, d = xv.shape
        k, keep, taps = self.kernel, grad_enabled(), np.ascontiguousarray(wd.T)
        blocks = row_blocks(B, L * d)
        rows, threads = blocks[0].stop, block_threads(blocks)
        hp = np.zeros((B if keep else threads * rows, L + k - 1, d))  # layer norm after k-1 zero rows
        dw = np.empty((B if keep else threads * rows, L, d))
        tmp = np.empty((threads, rows, L, d))
        xhat = np.empty_like(xv) if keep or train else None
        s = np.empty_like(xv) if keep or train else None  # train: the statistics' products first
        out = np.empty_like(xv)
        buf = np.empty((B, k - 1, d))

        def point_wise(b: slice, slot: int) -> np.ndarray:  # layer norm, depth-wise and point-wise stages of one block
            n = b.stop - b.start
            at = b if keep else slice(slot * rows, slot * rows + n)
            hp[at, k - 1 :] = layer_norm_array(xv[b], gl, bl)[0]
            buf[b] = hp[at, L:]
            _taps(hp[at], taps, dw[at], tmp[slot, :n])
            return dw[at] @ wp

        if train:
            w = np.ones((B, L, 1)) if valid is None else as_f64(valid)[..., None]
            count = float(w.sum())
            if count <= 0:
                raise StateError("batch_norm: empty valid mask")

            def stage(b: slice, slot: int) -> None:
                xhat[b] = point_wise(b, slot)

            map_blocks(stage, blocks)
            mu = np.multiply(xhat, w, out=s).sum(axis=(0, 1)) * (1.0 / count)
            xhat -= mu
            var = np.multiply(np.multiply(xhat, xhat, out=s), w, out=s).sum(axis=(0, 1)) * (1.0 / count)
            inv = (var + BATCH_NORM_EPS) ** -0.5
            xhat *= inv
            st, m, first = self.bn_state, BATCH_NORM_MOMENTUM, self.bn_state.running_mean is None
            st.running_mean = mu if first else (1.0 - m) * st.running_mean + m * mu
            st.running_var = var if first else (1.0 - m) * st.running_var + m * var
        else:
            inv = batch_norm_eval_scale(self.bn_state)

        def activate(b: slice, slot: int) -> None:
            if train:
                h = xhat[b] * gb + bb
            else:
                h, xh, _ = batch_norm_eval_array(point_wise(b, slot), gb, bb, self.bn_state)
                if keep:
                    xhat[b] = xh
            h, sig = swish_array(h)
            np.add(xv[b], h, out=out[b])
            if keep:
                s[b] = sig

        map_blocks(activate, blocks)
        if capture is not None:
            capture["dw_input"] = buf
        if not keep:
            return Tensor(out)

        def back(g):
            sums = g_lg, g_lb, g_wd, g_wp, g_gb, g_bb = tuple(np.zeros_like(v) for v in (gl, bl, wd, wp, gb, bb))

            def through_swish(b: slice, _slot: int) -> tuple:  # s becomes the gradient at the batch-norm output
                sb, xb = s[b], xhat[b]
                np.multiply(g[b], sb + (xb * gb + bb) * sb * (1.0 - sb), out=sb)
                return np.einsum("blc,blc->c", sb, xb), sb.sum(axis=(0, 1))

            add_partials((g_gb, g_bb), map_blocks(through_swish, blocks))
            if train:  # through the batch mean and variance, both weighted by w
                m_b, m_x = g_bb * gb * (1.0 / count), g_gb * gb * (1.0 / count)
            x.grad = np.zeros_like(xv) if x.grad is None else x.grad
            gpad = np.zeros((threads, rows, L + k - 1, d))  # the point-wise input's gradient, k-1 zero rows after

            def stages(b: slice, slot: int) -> tuple:
                n = b.stop - b.start
                gy = s[b] * gb
                if train:
                    gy -= w[b] * (m_b + xhat[b] * m_x)
                gy *= inv
                p_wp = np.tensordot(dw[b], gy, axes=([0, 1], [0, 1]))
                gd = gpad[slot, :n]
                np.matmul(gy, wp.T, out=gd[:, :L])
                p_wd = np.empty_like(wd)
                for j in range(k):
                    p_wd[:, j] = np.einsum("blc,blc->c", gd[:, :L], hp[b, j : j + L])
                _taps(gd, taps[::-1], gy, tmp[slot, :n])  # gy: now the layer-norm output's gradient
                _, xh, iv = layer_norm_array(xv[b], gl, bl)
                x.grad[b] += g[b] + layer_norm_grad_array(gy, xh, iv, gl)
                return np.einsum("blc,blc->c", gy, xh), gy.sum(axis=(0, 1)), p_wd, p_wp

            add_partials((g_lg, g_lb, g_wd, g_wp), map_blocks(stages, blocks))
            for (_, p), gp in zip(params, sums):
                _accum(p, gp, own=True)

        return Tensor(out, (x,) + tuple(p for _, p in params), back)

    def step(self, x_t: np.ndarray, plan: ConvDecode) -> np.ndarray:
        """One-token eval-mode continuation on plain arrays; returns the
        block's output [B, 1, d] for x_t [B, 1, d].

        ``plan`` (:class:`ConvDecode`) holds the depth-wise window
        [B, kernel, d]: rows 0..kernel-2 are the previous kernel-1
        depth-wise inputs, oldest first, and the last row takes this token's
        layer-norm output.  The depth-wise output is the last row of
        :meth:`forward`'s depth-wise stage over that window: the same
        products, summed in tap order.  The window then shifts one row
        toward the front in place.
        """
        p, win = plan, plan.window
        win[:, -1:] = layer_norm_array(x_t, p.ln_gain, p.ln_bias)[0]
        np.multiply(win, p.taps, out=p.products)
        h = np.add.reduce(p.products, axis=1, keepdims=True) @ p.pw_w
        win[:, :-1] = win[:, 1:]
        h -= p.bn_mean  # eval batch norm: ((h - mean) * inv) * gain + bias
        h *= p.bn_inv
        h *= p.bn_gain
        h += p.bn_bias
        out = swish_array(h)[0]
        out += x_t
        return out


class ConvDecode:
    """What :meth:`TemporalConvModule.step` reads over one decode: the
    block's parameter arrays, the depth-wise taps as contiguous rows
    [kernel, d], the batch-norm running mean and scale
    ``1/sqrt(running_var + eps)``, and the depth-wise window it updates.
    Built from the state of the block when it is made, so it must not
    outlive a change to the parameters or statistics."""

    __slots__ = ("ln_gain", "ln_bias", "taps", "pw_w", "bn_mean", "bn_inv", "bn_gain", "bn_bias", "window", "products")

    def __init__(self, block: TemporalConvModule, buf: np.ndarray):
        """``buf``: the last kernel-1 depth-wise inputs [B, kernel-1, d], as
        :meth:`TemporalConvModule.forward` captures them."""
        self.ln_gain, self.ln_bias, wd, self.pw_w, self.bn_gain, self.bn_bias = (p.value for _, p in block.named_params())
        self.taps = np.ascontiguousarray(wd.T)
        self.bn_inv = batch_norm_eval_scale(block.bn_state)
        self.bn_mean = block.bn_state.running_mean
        B, k1, d = buf.shape
        self.window = np.empty((B, k1 + 1, d))
        self.window[:, :k1] = buf
        self.products = np.empty_like(self.window)
