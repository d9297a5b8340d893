"""Retention: causal decayed attention in three equivalent forward passes.

All three forms compute, per head and per step n,

    out_n = sum_{m <= n} gamma^(t_n - t_m) (q_n . k_m) v_m

where t are integer timestamps (t_n = n for regularly sampled data).

The chunk-wise form is the one the model runs on whole sequences: parallel
intra-chunk work plus a recurrent inter-chunk state, recorded as one tape
node over ``Tensor`` q, k and v with an analytic backward (the reverse
chunk recurrence of GLA, Yang et al. arXiv 2312.06635 §4, and RetNet's
chunk-wise form).  The parallel form materializes the full decay matrix D
through generic tape ops and is the reference the model runs on request.
The recurrent form carries a d_k x d_v state one step at a time on plain
arrays and records no tape: a forward-only oracle, whose update the
model's decode step (``DecoderLayer.step``) runs.  The chunk-wise and
recurrent forms start from a zero state and return the state after their
last token as a plain array.

The chunk-wise kernel builds no geometry: it reads a :class:`ChunkPlan`,
which holds each chunk's decay mask and decay rows and depends on the
timestamps and gammas alone (RetNet, arXiv 2307.08621), so one plan serves
every layer of an encode.  The model builds it once per encode and keeps it
no longer than that encode's graph.

Cross-chunk decays are defined in timestamp space
(gamma^(t - t_last_of_previous_chunk)), the unique choice that keeps the
chunk-wise form exactly equal to the recurrent one under irregular gaps;
for consecutive integer timestamps it reduces to the familiar
zeta_j = gamma^j and gamma^B factors.

Shape conventions: q, k are [lead..., L, d_k], v is [lead..., L, d_v],
where lead is (), (heads,) or (batch, heads).  ``gamma`` is a scalar or a
per-head vector aligned with axis -3.  Shared timestamps are 1-D [L];
per-sequence timestamps are [B, L], in which case lead must be (B, heads).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError
from .tensor import Tensor, _accum, _unbroadcast, as_f64, matmul, mul, swapaxes

Array = np.ndarray


def _check_timestamps(t) -> Array:
    t = np.asarray(t)
    if not np.issubdtype(t.dtype, np.integer):
        raise InputError(f"timestamps must be integers, got dtype {t.dtype}")
    if t.ndim not in (1, 2):
        raise InputError(f"timestamps must be [L] or [B, L], got shape {t.shape}")
    if t.shape[-1] > 1 and np.any(np.diff(t, axis=-1) < 0):
        raise InputError("timestamps must be non-decreasing")
    return t


@dataclass(frozen=True)
class DecayMask:
    """Lower-triangular decay matrix D with D[n, m] = gamma^(t_n - t_m)."""

    matrix: Array

    @classmethod
    def build(cls, gamma, length: int | None = None, timestamps=None) -> "DecayMask":
        """Regular mask needs ``length``; irregular mask takes timestamps.

        Support is strictly-lower-triangular-plus-diagonal in index order
        (diagonal = gamma^0 = 1, with the 0^0 = 1 convention for equal
        timestamps).  Output shape: [L, L] for scalar gamma, [h, L, L] for
        per-head gamma, with an extra leading batch axis (and broadcast
        head axis) for per-sequence timestamps [B, L].
        """
        g = np.asarray(gamma, dtype=np.float64)
        if np.any(g < 0) or np.any(g > 1):
            # 0 is allowed here (memoryless limit, 0^0 = 1 on the diagonal);
            # per-head schedules are restricted to (0, 1] separately.
            raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
        if timestamps is None:
            if length is None:
                raise InputError("DecayMask.build: need length or timestamps")
            t = np.arange(length, dtype=np.int64)
        else:
            t = _check_timestamps(timestamps)
            length = t.shape[-1]
        gaps = t[..., :, None] - t[..., None, :]
        tril = np.tril(np.ones((length, length), dtype=bool))
        gaps *= tril  # 0 above the diagonal: gamma^0 there, never gamma to a negative power
        if t.ndim == 2:
            gaps = gaps[:, None, :, :]  # room for the head axis
        d = g**gaps if g.ndim == 0 else g[:, None, None] ** gaps
        d *= tril  # each entry in [0, 1], so this is np.where(tril, d, 0.0) bitwise
        return cls(as_f64(d))

    @property
    def length(self) -> int:
        return self.matrix.shape[-1]


def _decay_factor(gamma, exponent) -> Array:
    """gamma ** exponent shaped to broadcast against lead dims + (d_k, d_v).

    ``exponent`` is a timestamp gap: 0-D for shared timestamps, [B] for
    per-sequence ones.
    """
    g = np.asarray(gamma, dtype=np.float64)
    e = np.asarray(exponent, dtype=np.float64)
    if e.ndim > 0:
        e = e[..., None]  # head-axis placeholder: [B, 1]
    fac = g**e
    if fac.ndim > 0:
        fac = fac[..., None, None]
    return fac


def _decay_rows(gamma, exponents, batched: bool) -> Array:
    """Column vector [..., rows, 1] of gamma ** exponents for row scaling."""
    g = np.asarray(gamma, dtype=np.float64)
    e = np.asarray(exponents, dtype=np.float64)
    if batched:
        e = e[..., None, :]  # [B, 1, rows]
    if g.ndim > 0:
        if not batched:
            e = e[None, :]  # [1, rows]
        d = g[:, None] ** e  # [h, rows] or [B, h, rows]
    else:
        d = g**e
    return d[..., None]


class Chunk(NamedTuple):
    """Rows [lo, hi) of a sequence and the decays the chunk-wise form
    applies to them: the chunk's decay mask D_c, ``zeta`` (rows
    gamma^(t - t_last of the previous chunk)) and ``fac`` (gamma^span of
    this chunk's last timestamp over the previous one's), both None on the
    first chunk, and ``tail`` (rows gamma^(t_last - t))."""

    lo: int
    hi: int
    mask: Array
    zeta: Array | None
    tail: Array
    fac: Array | None


@dataclass(frozen=True)
class ChunkPlan:
    """What :func:`retention_chunkwise` reads of a sequence's geometry, one
    :class:`Chunk` per ``chunk_size`` rows (the last may be ragged).  It is
    a function of the timestamps and gammas only, so every layer of one
    encode reads the same plan."""

    length: int
    chunks: tuple[Chunk, ...]

    @classmethod
    def build(cls, timestamps, gamma, chunk_size: int) -> "ChunkPlan":
        """Plan for timestamps [L] or [B, L], validated once here.  A chunk
        reuses the previous chunk's mask when its timestamps relative to its
        first one repeat (every full chunk of a regular sequence)."""
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        t = _check_timestamps(timestamps)
        L = t.shape[-1]
        batched = t.ndim == 2
        chunks, mask, rel_prev, prev_last = [], None, None, None
        for lo in range(0, L, chunk_size):
            hi = min(lo + chunk_size, L)
            t_c = t[..., lo:hi]
            rel = t_c - t_c[..., :1]
            if mask is None or not np.array_equal(rel, rel_prev):
                mask, rel_prev = DecayMask.build(gamma, timestamps=t_c).matrix, rel
            last = t_c[..., -1]
            zeta = fac = None
            if prev_last is not None:
                zeta = _decay_rows(gamma, t_c - prev_last[..., None], batched)
                fac = _decay_factor(gamma, last - prev_last)
            tail = _decay_rows(gamma, last[..., None] - t_c, batched)
            chunks.append(Chunk(lo, hi, mask, zeta, tail, fac))
            prev_last = last
        return cls(L, tuple(chunks))


def retention_parallel(q: Tensor, k: Tensor, v: Tensor, mask: DecayMask) -> Tensor:
    """(q k^T elementwise-decayed) v over a full sequence."""
    L = q.shape[-2]
    if mask.length != L:
        raise InputError(f"decay mask built for length {mask.length}, sequence has {L}")
    if k.shape[-2] != L or v.shape[-2] != L:
        raise InputError(f"q/k/v lengths disagree: {q.shape} {k.shape} {v.shape}")
    scores = matmul(q, swapaxes(k, -1, -2))
    return matmul(mul(scores, mask.matrix), v)


def retention_recurrent(q, k, v, timestamps, gamma) -> tuple[Array, Array]:
    """Step-by-step form on plain arrays, recording no tape:
    s_n = gamma^dt s_(n-1) + k_n^T v_n, out_n = q_n s_n.

    Returns (out, s): s is the state after the last token, the running
    per-head summary sum_m gamma^(t_last - t_m) k_m^T v_m.
    """
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    L = q.shape[-2]
    t = np.arange(L, dtype=np.int64) if timestamps is None else _check_timestamps(timestamps)
    if t.shape[-1] != L:
        raise InputError(f"timestamps length {t.shape[-1]} != sequence length {L}")

    s = np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1]))
    last_t = t[..., 0]
    outs = []
    for n in range(L):
        t_n = t[..., n]
        k_n, v_n = k[..., n : n + 1, :], v[..., n : n + 1, :]
        s = s * _decay_factor(gamma, t_n - last_t) + np.swapaxes(k_n, -1, -2) @ v_n
        outs.append(q[..., n : n + 1, :] @ s)
        last_t = t_n
    return np.concatenate(outs, axis=-2), s


def retention_chunkwise(q: Tensor, k: Tensor, v: Tensor, plan: ChunkPlan) -> tuple[Tensor, Array]:
    """Parallel within chunks, recurrent across them; equals the other forms.

    Per chunk of ``plan``: intra-chunk term (q_c k_c^T . D_c) v_c plus
    inter-chunk term (q_c s) scaled row-wise by zeta; the state update
    weights the chunk's k^T v rows by tail (the last row of its decay
    matrix) and carries the previous state decayed by fac, the chunk's
    total timestamp span.  The first chunk has no inter-chunk term, so a
    sequence that fits in one chunk runs exactly the parallel form's
    arithmetic.  Returns (out, s), s being the state after the last token
    as a plain array.

    One tape node over (q, k, v).  The forward runs on arrays and keeps each
    chunk's incoming state.  The backward sweeps the chunks in reverse,
    carrying dS (0 after the last chunk): with dP = (dO v^T) . D,
    dq = dP k + (zeta dO) s_prev^T, dk = dP^T q + (tail v) dS^T,
    dv = (q k^T . D)^T dO + tail (k dS) and dS_prev = q^T (zeta dO) + fac dS.
    """
    qv, kv, vv = q.value, k.value, v.value
    L = qv.shape[-2]
    if plan.length != L:
        raise InputError(f"chunk plan covers length {plan.length}, sequence has {L}")

    s = out = None
    s_in = []  # the state entering each chunk
    for lo, hi, mask, zeta, tail, fac in plan.chunks:
        q_c, k_c, v_c = as_f64(qv[..., lo:hi, :]), as_f64(kv[..., lo:hi, :]), as_f64(vv[..., lo:hi, :])
        k_t = as_f64(np.swapaxes(k_c, -1, -2))
        out_c = q_c @ k_t
        out_c *= mask
        out_c = out_c @ v_c
        if s is not None:
            out_c = out_c + (q_c @ s) * zeta
        if out is None:
            out = np.empty(out_c.shape[:-2] + (L, out_c.shape[-1]))
        out[..., lo:hi, :] = out_c

        chunk_s = k_t @ (v_c * tail)
        if s is not None:
            chunk_s = chunk_s + s * fac
        s_in.append(s)
        s = chunk_s

    def back(g):
        dq = np.empty(g.shape[:-1] + qv.shape[-1:])
        dk = np.empty(g.shape[:-1] + kv.shape[-1:])
        dv = np.empty(g.shape)
        ds = None  # gradient of the state leaving the current chunk
        for (lo, hi, mask_c, zeta_c, tail_c, fac_c), s_prev in zip(reversed(plan.chunks), reversed(s_in)):
            q_c, k_c, v_c, g_c = (as_f64(x[..., lo:hi, :]) for x in (qv, kv, vv, g))
            dp = (g_c @ np.swapaxes(v_c, -1, -2)) * mask_c
            dq_c = dp @ k_c
            dk_c = np.swapaxes(dp, -1, -2) @ q_c
            dv_c = np.swapaxes((q_c @ np.swapaxes(k_c, -1, -2)) * mask_c, -1, -2) @ g_c
            if ds is not None:
                dk_c += (v_c * tail_c) @ np.swapaxes(ds, -1, -2)
                dv_c += tail_c * (k_c @ ds)
            if s_prev is not None:
                gz = g_c * zeta_c
                dq_c += gz @ np.swapaxes(s_prev, -1, -2)
                ds_prev = np.swapaxes(q_c, -1, -2) @ gz
                ds = ds_prev if ds is None else ds_prev + ds * fac_c
            dq[..., lo:hi, :], dk[..., lo:hi, :], dv[..., lo:hi, :] = dq_c, dk_c, dv_c
        for x, d in ((q, dq), (k, dk), (v, dv)):
            _accum(x, _unbroadcast(d, x.shape), own=True)

    return Tensor(out, (q, k, v), back), s
