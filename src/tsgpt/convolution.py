"""Convolution-subsampling tokenizer and the temporal convolution block.

Both use causal (left-only) padding: a decoder-only generative stack must
never read future timesteps.  The tokenizer halves the sequence twice
(kernel 3, stride 2, channel count preserved), so 4 | L gives exactly L/4
tokens.  The temporal block has one layout: a residual of layer norm, a
bias-free depth-wise stage that never mixes channels, a bias-free
point-wise stage that never mixes timesteps, then batch norm and swish.
Batch-norm statistics are batch global during training; causality is
exact in eval mode, which is the mode autoregressive decoding runs in.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .tensor import (
    BatchNormState,
    Rng,
    Tensor,
    add,
    batch_norm,
    batch_norm_eval_array,
    conv1d,
    depthwise_conv1d,
    layer_norm,
    layer_norm_array,
    matmul,
    swish,
    swish_array,
)


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

    def forward(self, x) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
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

    def forward(self, x, train: bool, valid: np.ndarray | None = None, capture: dict | None = None) -> Tensor:
        """Residual block forward; train mode normalizes by the batch
        statistics and folds them into the running ones.  ``capture``, when
        given, receives under "dw_input" the buffer :meth:`step` continues
        the sequence from: the depth-wise stage's last kernel-1 inputs,
        zero-padded in front when the sequence is shorter."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        h = layer_norm(x, self.ln_gain, self.ln_bias)
        if capture is not None:
            B, L, d = h.shape
            keep = self.kernel - 1
            n = min(keep, L)
            buf = np.zeros((B, keep, d))
            buf[:, keep - n :, :] = h.value[:, L - n :, :]
            capture["dw_input"] = buf
        h = matmul(depthwise_conv1d(h, self.dw_w), self.pw_w)
        h = batch_norm(h, self.bn_gain, self.bn_bias, self.bn_state, train=train, valid=valid)
        return add(x, swish(h))

    def step(self, x_t: np.ndarray, buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One-token eval-mode continuation on plain arrays.

        x_t: [B, 1, d].  ``buf`` holds the depth-wise stage's previous
        kernel-1 inputs [B, kernel-1, d], as :meth:`forward` captures it;
        returns the output and the buffer advanced by this token.  The
        depth-wise output is the last row of :func:`depthwise_conv1d` over
        buffer plus token: the same products, summed in tap order.
        """
        h = layer_norm_array(x_t, self.ln_gain.value, self.ln_bias.value)[0]
        window = np.concatenate([buf, h], axis=1)
        h = (window * self.dw_w.value.T).sum(axis=1, keepdims=True) @ self.pw_w.value
        h = batch_norm_eval_array(h, self.bn_gain.value, self.bn_bias.value, self.bn_state)[0]
        return x_t + swish_array(h)[0], window[:, 1:, :]
