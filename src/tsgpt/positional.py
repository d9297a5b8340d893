"""Rotary position embedding and the per-head decay schedule.

Queries and keys are rotated pairwise by angles proportional to their
(integer) positions, which makes the query-key inner product a function of
relative distance only.  The exponential-decay half of the mechanism is not
applied here: scaling queries by gamma^n and keys by gamma^(-m) overflows
for long sequences, so the decay is realized entirely inside the retention
decay matrix, which is algebraically the same thing for every q-k product.

The projection to heads and the rotation are one tape node per projection
(:func:`project_heads`): it keeps its input and the cos/sin tables, not
the product, the head split or the rotated copy, and runs one block of
whole batch rows at a time.  :func:`xpos_qk` takes the tables, not the
positions: the model builds them once per encode with
:func:`rotation_tables` (checking the positions there) and every layer
rotates by the same ones.  :func:`rotate_array` is the rotation's one
arithmetic, which the decode step also runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import Tensor, _accum, _check_matmul, add_partials, as_f64, map_blocks, row_blocks, weight_grad

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


def rotate_array(x: Array, cos: Array, sin: Array, out: Array | None = None) -> Array:
    """Rotate consecutive feature pairs (2i-1, 2i) of x [..., d] by the
    angles whose :func:`rotation_tables` are given (broadcasting against
    [..., d/2]): per pair, (even * cos + odd * -sin, even * sin + odd * cos).
    Each pair turns in its own plane, so per-pair norms are preserved, and
    ``-sin`` turns it back.  Written into ``out`` (an array of x's shape)
    when it is given."""
    pairs = x.reshape(x.shape[:-1] + (-1, 2))
    even, odd = pairs[..., 0], pairs[..., 1]
    res = np.empty_like(pairs) if out is None else out.reshape(pairs.shape)
    res[..., 0] = even * cos + odd * -sin
    res[..., 1] = even * sin + odd * cos
    return res.reshape(x.shape)


def xpos_qk(x: Tensor, w_q: Tensor, w_k: Tensor, tables: tuple[Array, Array] | None, heads: int) -> tuple[Tensor, Tensor]:
    """Project to per-head queries/keys and apply the positional rotation.

    x: [..., L, d_model] with d_model = heads * head_dim; w_q, w_k:
    [d_model, heads * head_dim].  ``tables`` is the (cos, sin) pair of
    :func:`rotation_tables` for the positions ([L, head_dim/2], or
    [B, 1, L, head_dim/2] for per-sequence positions), or None for no
    rotation.  Returns (q, k), each [..., heads, L, head_dim], one
    :func:`project_heads` node each, sharing the tables.  Keys rotate by +m:
    the conjugate in the rotary formulation is supplied by the q.k inner
    product itself, which is what makes the product depend on n - m only.
    No decay is applied here: the retention stage applies it.
    """
    width = w_q.shape[-1]
    if width % heads != 0:
        raise ConfigError(f"xpos_qk: projection width {width} not divisible by {heads} heads")
    cos, sin = (None, None) if tables is None else tables
    if cos is not None and 2 * cos.shape[-1] != width // heads:
        raise ConfigError(f"xpos_qk: tables built for dim {2 * cos.shape[-1]}, heads need {width // heads}")
    return project_heads(x, w_q, heads, cos, sin), project_heads(x, w_k, heads, cos, sin)


def project_heads(x: Tensor, w: Tensor, heads: int, cos: Array | None = None, sin: Array | None = None) -> Tensor:
    """``x @ w`` split into heads, [..., L, heads*dh] -> [..., heads, L, dh],
    then, when the tables are given, rotated by ``cos``/``sin``
    (:func:`rotation_tables` of the positions: [L, dh/2], or [B, 1, L, dh/2]
    against x [B, L, d]).

    One tape node whose value is bitwise that of matmul, reshape, swapaxes
    and a rotation by :func:`rotate_array` run in turn, as a contiguous
    array.  It keeps only its input and the tables: the backward rotates
    the gradient back and needs no forward intermediate.  Both directions
    run one block of whole batch rows at a time
    (:func:`~tsgpt.tensor.map_blocks`).
    """
    xv, wv = x.value, w.value
    _check_matmul(xv, wv, "project_heads")
    L, d = xv.shape[-2:]
    n = wv.shape[-1]
    x3 = xv.reshape((-1, L, d))
    N, dh = x3.shape[0], n // heads
    blocks = row_blocks(N, L * n)
    out = np.empty((N, heads, L, dh))

    def table(t: Array, b: slice) -> Array:
        return t[b] if t.ndim == 4 else t

    def project(b: slice, _slot: int) -> None:
        p = (x3[b] @ wv).reshape((-1, L, heads, dh)).swapaxes(1, 2)
        if cos is None:
            out[b] = p
        else:
            rotate_array(p, table(cos, b), table(sin, b), out=out[b])

    map_blocks(project, blocks)

    def back(g):
        g4 = g.reshape((N, heads, L, dh))
        gx, gw = np.empty_like(x3), np.zeros_like(wv)
        neg_sin = None if sin is None else -sin

        def grads(b: slice, _slot: int) -> tuple:
            gb = g4[b] if cos is None else rotate_array(g4[b], table(cos, b), table(neg_sin, b))
            gp = gb.swapaxes(1, 2).reshape((-1, L, n))
            np.matmul(gp, wv.T, out=gx[b])
            return (weight_grad(x3[b], gp),)

        add_partials((gw,), map_blocks(grads, blocks))
        _accum(x, gx.reshape(xv.shape), own=True)
        _accum(w, gw, own=True)

    return Tensor(out.reshape(xv.shape[:-2] + out.shape[1:]), (x, w), back)
