"""Rotary position embedding and the per-head decay schedule.

Queries and keys are rotated pairwise by angles proportional to their
(integer) positions, which makes the query-key inner product a function of
relative distance only.  The exponential-decay half of the mechanism is not
applied here: scaling queries by gamma^n and keys by gamma^(-m) overflows
for long sequences, so the decay is realized entirely inside the retention
decay matrix, which is algebraically the same thing for every q-k product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .tensor import Tensor, _accum, as_f64, matmul, reshape, swapaxes

Array = np.ndarray

ROTATION_BASE = 10000.0


@dataclass(frozen=True)
class RotaryAngles:
    """Per-pair rotation frequencies theta_i = ROTATION_BASE^(-2(i-1)/d), i = 1..d/2."""

    head_dim: int
    thetas: Array = field(init=False, repr=False)

    def __post_init__(self):
        if self.head_dim % 2 != 0 or self.head_dim <= 0:
            raise ConfigError(f"rotary head_dim must be positive and even, got {self.head_dim}")
        i = np.arange(self.head_dim // 2)
        object.__setattr__(self, "thetas", as_f64(ROTATION_BASE ** (-2.0 * i / self.head_dim)))


def default_gammas(heads: int) -> Array:
    """Distinct decay windows per head: gamma_h = 1 - 2^-(5+h), h = 1..heads."""
    return np.array([1.0 - 2.0 ** (-(5 + h)) for h in range(1, heads + 1)])


def rotation_tables(positions: Array, angles: RotaryAngles) -> tuple[Array, Array]:
    """cos/sin tables of shape positions.shape + (d/2,)."""
    ang = as_f64(positions)[..., None] * angles.thetas
    return np.cos(ang), np.sin(ang)


def rotate(x, positions: Array, angles: RotaryAngles) -> Tensor:
    """Rotate consecutive feature pairs (2i-1, 2i) by position * theta_i.

    x has shape [..., L, d] with d even; ``positions`` is an integer vector
    of length L (negative values are fine), or [B, L] for per-sequence
    positions against x shaped [B, heads, L, d].  Each pair is rotated in
    its own plane, so per-pair norms are preserved.  One tape node: the
    backward applies the transposed rotation (angle -position * theta_i).
    """
    x = x if isinstance(x, Tensor) else Tensor(x)
    d = x.shape[-1]
    if d != angles.head_dim:
        raise ConfigError(f"rotate: x last dim {d} != angles head_dim {angles.head_dim}")
    positions = np.asarray(positions)
    if positions.ndim not in (1, 2) or positions.shape[-1] != x.shape[-2]:
        raise InputError(f"rotate: need {x.shape[-2]} positions, got shape {positions.shape}")
    cos, sin = rotation_tables(positions, angles)  # [..., L, d/2]
    if positions.ndim == 2:
        cos, sin = cos[:, None, :, :], sin[:, None, :, :]  # room for the head axis

    def back(g):
        _accum(x, rotate_array(g, cos, -sin), own=True)

    return Tensor(rotate_array(x.value, cos, sin), (x,), back)


def rotate_array(x: Array, cos: Array, sin: Array) -> Array:
    """The arithmetic of :func:`rotate` on a plain array, given its cos/sin
    tables: per pair, (even * cos + odd * -sin, even * sin + odd * cos)."""
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    even, odd = pairs[..., 0], pairs[..., 1]
    out = np.empty_like(pairs)
    out[..., 0] = even * cos + odd * -sin
    out[..., 1] = even * sin + odd * cos
    return out.reshape(x.shape)


def xpos_qk(
    x,
    w_q,
    w_k,
    positions: Array,
    angles: RotaryAngles,
    heads: int,
    apply_rotation: bool = True,
) -> tuple[Tensor, Tensor]:
    """Project to per-head queries/keys and apply the positional rotation.

    x: [..., L, d_model] with d_model = heads * head_dim; w_q, w_k:
    [d_model, heads * head_dim].  Returns (q, k), each
    [..., heads, L, head_dim].  Keys rotate by +m: the conjugate in the
    rotary formulation is supplied by the q.k inner product itself, which
    is what makes the product depend on n - m only.  No decay is applied
    here: the retention stage applies it.
    """
    positions = np.asarray(positions)
    if positions.ndim not in (1, 2):
        raise InputError(f"xpos_qk: positions must be [L] or [B, L], got {positions.shape}")
    if positions.shape[-1] > 1 and np.any(np.diff(positions, axis=-1) <= 0):
        raise InputError("xpos_qk: positions must be strictly increasing")
    x = x if isinstance(x, Tensor) else Tensor(x)
    dh = _val_shape(w_q)[-1] // heads
    if _val_shape(w_q)[-1] % heads != 0:
        raise ConfigError(f"xpos_qk: projection width {_val_shape(w_q)[-1]} not divisible by {heads} heads")

    q = _split_heads(matmul(x, w_q), heads)  # [..., h, L, dh]
    k = _split_heads(matmul(x, w_k), heads)
    if apply_rotation:
        if angles.head_dim != dh:
            raise ConfigError(f"xpos_qk: angles built for dim {angles.head_dim}, heads need {dh}")
        q = rotate(q, positions, angles)
        k = rotate(k, positions, angles)
    return q, k


def _val_shape(w) -> tuple[int, ...]:
    return w.shape if isinstance(w, Tensor) else np.asarray(w).shape


def _split_heads(x: Tensor, heads: int) -> Tensor:
    """[..., L, h*dh] -> [..., h, L, dh]."""
    lead = x.shape[:-2]
    L, width = x.shape[-2], x.shape[-1]
    dh = width // heads
    y = reshape(x, lead + (L, heads, dh))
    return swapaxes(y, -3, -2)


def merge_heads(x: Tensor) -> Tensor:
    """[..., h, L, dv] -> [..., L, h*dv]."""
    y = swapaxes(x, -3, -2)
    lead = y.shape[:-2]
    return reshape(y, lead + (y.shape[-2] * y.shape[-1],))
