"""Retention: causal decayed attention in three equivalent forward passes.

All three forms compute, per head and per step n,

    out_n = sum_{m <= n} gamma^(t_n - t_m) (q_n . k_m) v_m

where t are integer timestamps (t_n = n for regularly sampled data).

The chunk-wise form is the one the model runs on whole sequences: parallel
intra-chunk work plus a recurrent inter-chunk state, recorded as one tape
node over ``Tensor`` q, k and v with an analytic backward (the reverse
chunk recurrence of GLA, Yang et al. arXiv 2312.06635 §4, and RetNet's
chunk-wise form).  The parallel form materializes the full decay matrix D
and is the reference the model runs on request: one tape node over q, k
and v, bitwise the composite of product and elementwise nodes it replaces.
The recurrent form carries a d_k x d_v state one step at a time on plain
arrays and records no tape: a forward-only oracle, whose update the
model's decode step (``DecoderLayer.step``) runs.  The chunk-wise and
recurrent forms start from a zero state and return the state after their
last token as a plain array.

The chunk-wise kernel reads its geometry from a :class:`ChunkPlan`, which
holds each chunk's decay rows and depends on the timestamps and gammas
alone (RetNet, arXiv 2307.08621), so one plan serves every layer of an
encode.  Shared timestamps have their [h, C, C] masks built once per plan.
Per-sequence timestamps give every sequence its own masks, so their plan
keeps the timestamps and one :class:`PowerTable`, and the kernel gathers
each block of rows' masks as it reaches them: no mask of the whole batch
is held.  The model builds the plan once per encode and keeps it no longer
than that encode's graph.  The kernel runs its forward and backward one
block of whole batch rows at a time on the calling thread, never on the
worker of :func:`~tsgpt.tensor.map_blocks`: its ~20 small numpy calls per
chunk hold the GIL too often for two threads to gain.

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
from .tensor import Tensor, _accum, _unbroadcast, as_f64, row_blocks

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
class PowerTable:
    """The powers of gamma that decay masks [..., C, C], C up to ``width``,
    are gathered from: built once per gamma (or one per head), widest gap
    ``span`` and width, then read by every mask :meth:`gather` makes.

    ``table`` holds ``gamma ** arange(span + 1)``, one row per head, then a
    0 that the entries above the diagonal read; :meth:`gather` indexes it by
    the integer gaps: the same ``pow`` calls as ``gamma ** gaps``, so the
    same bits.  Where ``span + 1`` exceeds ``entries`` (the mask entries per
    head it serves, e.g. under epoch-second timestamps), the table would be
    the larger array: ``table`` is None and the entries are
    ``gamma ** gaps`` directly."""

    gamma: Array  # broadcasts over a head's powers: 0-D, or [h, 1]
    table: Array | None  # [h, span + 2]
    offsets: Array | None  # [h, 1, 1]: where each head's row starts in the flat table
    tril: Array  # [width, width] bool
    upper: Array  # ~tril

    @classmethod
    def build(cls, gamma, span: int, entries: int, width: int) -> "PowerTable":
        g = np.asarray(gamma, dtype=np.float64)
        if (g < 0).any() or (g > 1).any():
            # 0 is allowed here (memoryless limit, 0^0 = 1 on the diagonal);
            # per-head schedules are restricted to (0, 1] separately.
            raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
        g_col = g if g.ndim == 0 else g[:, None]
        heads = g.size
        tril = np.tri(width, dtype=bool)
        table = offsets = None
        if span + 1 <= entries:
            powers = (g_col ** np.arange(span + 1)).reshape(heads, span + 1)
            table = np.concatenate([powers, np.zeros((heads, 1))], axis=1)
            offsets = np.arange(heads).reshape(-1, 1, 1) * (span + 2)
        return cls(g_col, table, offsets, tril, ~tril)

    def gather(self, rows: Array, out: Array | None = None) -> Array:
        """Decay masks [B, h, C, C] (h = 1 for one gamma) of the validated,
        non-decreasing timestamp rows [B, C], C at most ``width`` and no gap
        in a row above ``span``; written into ``out`` if given."""
        C = rows.shape[-1]
        tril, g, heads = self.tril[:C, :C], self.gamma, self.gamma.size
        if out is None:
            out = np.empty((len(rows), heads, C, C))
        gaps = rows[:, :, None] - rows[:, None, :]
        if self.table is None:
            gaps *= tril  # gamma^0 above the diagonal, never gamma to a negative power
            np.power(g[..., None], gaps[:, None], out=out)
            out *= tril  # each entry in [0, 1]: np.where(tril, d, 0.0) bitwise
        else:
            np.copyto(gaps, self.table.shape[1] - 1, where=self.upper[:C, :C])
            index = gaps[:, None] if heads == 1 else gaps[:, None] + self.offsets
            self.table.take(index, out=out, mode="clip")
        return out


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

        The entries are gathered from a :class:`PowerTable` spanning the
        widest gap, one block of batch rows at a time
        (:func:`~tsgpt.tensor.row_blocks`).
        """
        if timestamps is None:
            if length is None:
                raise InputError("DecayMask.build: need length or timestamps")
            t = np.arange(length, dtype=np.int64)
        else:
            t = _check_timestamps(timestamps)
            length = t.shape[-1]
        rows = t if t.ndim == 2 else t[None]  # [B, L]; one row for shared timestamps
        span = int((rows[:, -1] - rows[:, 0]).max()) if rows.size else 0
        powers = PowerTable.build(gamma, span, rows.size * length, length)
        heads = powers.gamma.size
        mask = np.empty((len(rows), heads, length, length))
        for b in row_blocks(len(rows), heads * length * length):
            powers.gather(rows[b], out=mask[b])
        if t.ndim == 1:
            mask = mask[0, 0] if powers.gamma.ndim == 0 else mask[0]
        return cls(mask)

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
    applies to them: the chunk's decay mask D_c (None under per-sequence
    timestamps, whose masks :meth:`ChunkPlan.mask` gathers a block of rows
    at a time), ``zeta`` (rows gamma^(t - t_last of the previous chunk)) and
    ``fac`` (gamma^span of this chunk's last timestamp over the previous
    one's), both None on the first chunk, and ``tail`` (rows
    gamma^(t_last - t))."""

    lo: int
    hi: int
    mask: Array | None
    zeta: Array | None
    tail: Array
    fac: Array | None


@dataclass(frozen=True)
class ChunkPlan:
    """What :func:`retention_chunkwise` reads of a sequence's geometry, one
    :class:`Chunk` per ``chunk_size`` rows (the last may be ragged).  It is
    a function of the timestamps and gammas only, so every layer of one
    encode reads the same plan.  ``batch`` is B for per-sequence timestamps
    [B, L], whose chunk arrays lead with a batch axis, and None for shared
    ones.  Shared timestamps have their masks built here, one reused
    [h, C, C] mask for every chunk of the same relative timestamps.
    Per-sequence ones keep the timestamps ``times`` and one
    :class:`PowerTable` ``powers`` for all their chunks, O(B L) bytes where
    the masks would be O(B L C): :meth:`mask` gathers a chunk's mask for the
    batch rows the kernel is running."""

    length: int
    batch: int | None
    chunks: tuple[Chunk, ...]
    times: Array | None = None
    powers: PowerTable | None = None

    @classmethod
    def build(cls, timestamps, gamma, chunk_size: int) -> "ChunkPlan":
        """Plan for timestamps [L] or [B, L], validated once here.  A chunk
        of shared timestamps reuses the previous chunk's mask when its
        timestamps relative to its first one repeat (every full chunk of a
        regular sequence)."""
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        t = _check_timestamps(timestamps)
        L = t.shape[-1]
        batched = t.ndim == 2
        chunks, mask, rel_prev, prev_last, span = [], None, None, None, 0
        for lo in range(0, L, chunk_size):
            hi = min(lo + chunk_size, L)
            t_c = t[..., lo:hi]
            last = t_c[..., -1]
            if batched:
                span = max(span, int((last - t_c[:, 0]).max(initial=0)))
            else:
                rel = t_c - t_c[0]
                if mask is None or not np.array_equal(rel, rel_prev):
                    mask, rel_prev = DecayMask.build(gamma, timestamps=t_c).matrix, rel
            zeta = fac = None
            if prev_last is not None:
                zeta = _decay_rows(gamma, t_c - prev_last[..., None], batched)
                fac = _decay_factor(gamma, last - prev_last)
            tail = _decay_rows(gamma, last[..., None] - t_c, batched)
            chunks.append(Chunk(lo, hi, mask, zeta, tail, fac))
            prev_last = last
        if not batched:
            return cls(L, None, tuple(chunks))
        width = min(chunk_size, L)
        return cls(L, t.shape[0], tuple(chunks), t, PowerTable.build(gamma, span, t.size * width, width))

    def mask(self, chunk: Chunk, rows: slice = slice(None)) -> Array:
        """``chunk``'s decay mask: the one built for shared timestamps, or
        for per-sequence ones the [rows, h, C, C] mask of the batch rows
        ``rows``, gathered anew."""
        if self.powers is None:
            return chunk.mask
        return self.powers.gather(self.times[rows, chunk.lo : chunk.hi])


def retention_parallel(q: Tensor, k: Tensor, v: Tensor, mask: DecayMask) -> Tensor:
    """(q k^T elementwise-decayed) v over a full sequence, as one tape node
    over (q, k, v).

    The node keeps k^T and the decayed scores P = (q k^T) . D.  The
    backward forms dS = (dO v^T) . D (summed down to the scores' shape where
    D has more leading axes), dq = dS k, dk = (q^T dS)^T and dv = P^T dO.
    Value and gradients are bitwise those of the composite of product,
    transpose and elementwise nodes: the same products on operands of the
    same memory order (the BLAS may round a product of a transposed view
    differently from one of a copy), in the same order.
    """
    qv, kv, vv = q.value, k.value, v.value
    L = qv.shape[-2]
    if mask.length != L:
        raise InputError(f"decay mask built for length {mask.length}, sequence has {L}")
    if kv.shape[-2] != L or vv.shape[-2] != L:
        raise InputError(f"q/k/v lengths disagree: {qv.shape} {kv.shape} {vv.shape}")
    k_t = as_f64(np.swapaxes(kv, -1, -2))  # a C-ordered copy, as the composite's transpose node made it
    scores = qv @ k_t
    scores_shape = scores.shape
    p = scores * mask.matrix
    out = p @ vv

    def back(g):
        ds = _unbroadcast((g @ np.swapaxes(vv, -1, -2)) * mask.matrix, scores_shape)
        _accum(q, _unbroadcast(ds @ np.swapaxes(k_t, -1, -2), qv.shape), own=True)
        _accum(k, np.swapaxes(_unbroadcast(np.swapaxes(qv, -1, -2) @ ds, k_t.shape), -1, -2))
        _accum(v, _unbroadcast(np.swapaxes(p, -1, -2) @ g, vv.shape), own=True)

    return Tensor(out, (q, k, v), back)


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

    Both directions run one block of whole batch rows at a time
    (:func:`~tsgpt.tensor.row_blocks`, sized by a block's widest score
    array [rows, heads, C, C]) on the calling thread, and write into
    arrays allocated here: the output, the final state and the input
    gradients.  A per-sequence plan's decays are sliced to the block's
    rows, and each chunk's mask is gathered for those rows alone
    (:meth:`ChunkPlan.mask`), in the forward and again in the backward.  q
    of lead () or (heads,) runs as one block.  A zero-length sequence gives
    an empty output and the zero state.
    """
    qv, kv, vv = q.value, k.value, v.value
    L = qv.shape[-2]
    if plan.length != L:
        raise InputError(f"chunk plan covers length {plan.length}, sequence has {L}")
    lead = qv.shape[:-2]
    if plan.batch is not None and lead[:1] != (plan.batch,):
        raise InputError(f"chunk plan covers a batch of {plan.batch}, q has lead dims {lead}")
    chunks = plan.chunks
    width = chunks[0].hi - chunks[0].lo if chunks else 0  # the widest: only the last chunk may be ragged
    blocks = row_blocks(lead[0], lead[1] * width * width) if len(lead) == 2 else [slice(None)]
    out = np.empty(lead + (L, vv.shape[-1]))
    s_out = np.empty(lead + (qv.shape[-1], vv.shape[-1]))
    # Per block, the states entering chunks 1.. as the products made them.  One
    # array for them all, held from forward to backward, made each B=8, L=1025
    # train step take ~8,200 page faults where this takes almost none.
    s_in = []

    def block_chunk(c: Chunk, b: slice) -> Chunk:
        """``c`` with its mask for the rows ``b`` and a per-sequence plan's
        decays cut to them."""
        if plan.batch is None:
            return c
        return Chunk(c.lo, c.hi, plan.mask(c, b), *(None if x is None else x[b] for x in c[3:]))

    for b in blocks:
        qb, kb, vb, ob = qv[b], kv[b], vv[b], out[b]
        s, entering = None, []
        for c in chunks:
            lo, hi, mask, zeta, tail, fac = block_chunk(c, b)
            q_c, k_c, v_c = as_f64(qb[..., lo:hi, :]), as_f64(kb[..., lo:hi, :]), as_f64(vb[..., lo:hi, :])
            k_t = as_f64(np.swapaxes(k_c, -1, -2))
            out_c = q_c @ k_t
            out_c *= mask
            out_c = out_c @ v_c
            if s is not None:
                out_c += (q_c @ s) * zeta
                entering.append(s)
            ob[..., lo:hi, :] = out_c
            chunk_s = k_t @ (v_c * tail)
            if s is not None:
                chunk_s += s * fac
            s = chunk_s
        s_out[b] = 0.0 if s is None else s  # no chunks: the zero state
        s_in.append(entering)

    def back(g):
        dq = np.empty(g.shape[:-1] + qv.shape[-1:])
        dk = np.empty(g.shape[:-1] + kv.shape[-1:])
        dv = np.empty(g.shape)
        for b, entering in zip(blocks, s_in):
            qb, kb, vb, gb, dqb, dkb, dvb = qv[b], kv[b], vv[b], g[b], dq[b], dk[b], dv[b]
            ds = None  # gradient of the state leaving the current chunk
            for i in reversed(range(len(chunks))):
                lo, hi, mask_c, zeta_c, tail_c, fac_c = block_chunk(chunks[i], b)
                q_c, k_c, v_c, g_c = (as_f64(x[..., lo:hi, :]) for x in (qb, kb, vb, gb))
                dp = (g_c @ np.swapaxes(v_c, -1, -2)) * mask_c
                dq_c = dp @ k_c
                dk_c = np.swapaxes(dp, -1, -2) @ q_c
                dv_c = np.swapaxes((q_c @ np.swapaxes(k_c, -1, -2)) * mask_c, -1, -2) @ g_c
                if ds is not None:
                    dk_c += (v_c * tail_c) @ np.swapaxes(ds, -1, -2)
                    dv_c += tail_c * (k_c @ ds)
                if i > 0:
                    s_prev = entering[i - 1]
                    gz = g_c * zeta_c
                    dq_c += gz @ np.swapaxes(s_prev, -1, -2)
                    ds_prev = np.swapaxes(q_c, -1, -2) @ gz
                    ds = ds_prev if ds is None else ds_prev + ds * fac_c
                dqb[..., lo:hi, :], dkb[..., lo:hi, :], dvb[..., lo:hi, :] = dq_c, dk_c, dv_c
        for x, d in ((q, dq), (k, dk), (v, dv)):
            _accum(x, _unbroadcast(d, x.shape), own=True)

    return Tensor(out, (q, k, v), back), s_out
