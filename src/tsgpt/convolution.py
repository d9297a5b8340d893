"""Convolution-subsampling tokenizer and the temporal convolution block.

Both use causal (left-only) padding: a decoder-only generative stack must
never read future timesteps.  The tokenizer halves the sequence twice
(kernel 3, stride 2, channel count preserved), so 4 | L gives exactly L/4
tokens.  The temporal block is a residual of layer norm, a depth-wise
stage that never mixes channels, a point-wise stage that never mixes
timesteps, then batch norm and swish.  Batch-norm statistics are batch
global during training; causality is exact in eval mode, which is the mode
autoregressive decoding runs in.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InputError
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
    linear,
    swish,
    swish_array,
)

CONV_VARIANTS = (
    "depthwise_pointwise",
    "pointwise_depthwise_pointwise",
    "depthwise_only",
    "pointwise_only",
    "none",
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
        self.channels = channels
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
    """Residual block: layer norm, conv stages, batch norm, swish.

    The stage list is selected by ``variant``; "none" constructs a pure
    identity with no parameters (the ablation setting).
    """

    def __init__(self, d: int, kernel: int, variant: str, rng: Rng, momentum: float = 0.1):
        if variant not in CONV_VARIANTS:
            raise ConfigError(f"unknown conv variant {variant!r}; choose from {CONV_VARIANTS}")
        if kernel < 1:
            raise ConfigError(f"conv kernel must be >= 1, got {kernel}")
        self.kernel = kernel
        self.variant = variant
        self._params: list[tuple[str, Tensor]] = []
        if variant == "none":
            self.bn_state = None
            return

        self.ln_gain = Tensor(np.ones(d))
        self.ln_bias = Tensor(np.zeros(d))
        self._params += [("ln_gain", self.ln_gain), ("ln_bias", self.ln_bias)]

        stage_kinds = {
            "depthwise_pointwise": ("dw", "pw"),
            "pointwise_depthwise_pointwise": ("pw", "dw", "pw"),
            "depthwise_only": ("dw",),
            "pointwise_only": ("pw",),
        }[variant]
        self.stages: list[tuple[str, Tensor, Tensor]] = []
        for i, kind in enumerate(stage_kinds):
            if kind == "dw":
                w = _uniform_init(rng.child(f"dw{i}"), (d, kernel), kernel)
            else:
                w = _uniform_init(rng.child(f"pw{i}"), (d, d), d)
            b = Tensor(np.zeros(d))
            self.stages.append((kind, w, b))
            self._params += [(f"stage{i}_{kind}_w", w), (f"stage{i}_{kind}_b", b)]

        self.bn_gain = Tensor(np.ones(d))
        self.bn_bias = Tensor(np.zeros(d))
        self.bn_state = BatchNormState(momentum)
        self._params += [("bn_gain", self.bn_gain), ("bn_bias", self.bn_bias)]

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self._params)

    def forward(
        self,
        x,
        train: bool,
        valid: np.ndarray | None = None,
        update_stats: bool = True,
        capture: dict | None = None,
    ) -> Tensor:
        """Residual block forward.  ``capture``, when given, receives under
        "dw_inputs" the buffers :meth:`step` continues the sequence from: the
        last kernel-1 inputs of each depth-wise stage, zero-padded in front
        when the sequence is shorter."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if self.variant == "none":
            if capture is not None:
                capture["dw_inputs"] = []
            return x
        h = layer_norm(x, self.ln_gain, self.ln_bias)
        dw_inputs = []
        for kind, w, b in self.stages:
            if kind == "dw":
                if capture is not None:
                    B, L, d = h.shape
                    keep = self.kernel - 1
                    n = min(keep, L)
                    buf = np.zeros((B, keep, d))
                    buf[:, keep - n :, :] = h.value[:, L - n :, :]
                    dw_inputs.append(buf)
                h = depthwise_conv1d(h, w, b)
            else:
                h = linear(h, w, b)
        if capture is not None:
            capture["dw_inputs"] = dw_inputs
        h = batch_norm(h, self.bn_gain, self.bn_bias, self.bn_state, train=train, update_stats=update_stats, valid=valid)
        return add(x, swish(h))

    def step(self, x_t: np.ndarray, bufs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        """One-token eval-mode continuation on plain arrays.

        x_t: [B, 1, d].  ``bufs`` holds each depth-wise stage's previous
        kernel-1 inputs [B, kernel-1, d], as :meth:`forward` captures them;
        returns the output and the buffers advanced by this token.  The
        depth-wise output is the last row of :func:`depthwise_conv1d` over
        buffer plus token: the same products, summed in tap order.
        """
        if self.variant == "none":
            return x_t, bufs
        h = layer_norm_array(x_t, self.ln_gain.value, self.ln_bias.value)[0]
        new_bufs = []
        for kind, w, b in self.stages:
            if kind == "dw":
                window = np.concatenate([bufs[len(new_bufs)], h], axis=1)
                h = (window * w.value.T).sum(axis=1, keepdims=True) + b.value
                new_bufs.append(window[:, 1:, :])
            else:
                h = h @ w.value + b.value
        h = batch_norm_eval_array(h, self.bn_gain.value, self.bn_bias.value, self.bn_state)[0]
        return x_t + swish_array(h)[0], new_bufs
