import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt.errors import ConfigError, InputError
from tsgpt.retention import (
    ChunkPlan,
    DecayMask,
    _decay_factor,
    _decay_rows,
    retention_chunkwise,
    retention_parallel,
    retention_recurrent,
)
from tsgpt import tensor
from tsgpt.tensor import Rng, Tensor, backward, no_grad, row_blocks

from oracles import (
    decay_mask_direct,
    finite_diff_grad,
    mul,
    rel_err,
    retention_chunkwise_taped,
    retention_parallel_taped,
    retention_recurrent_taped,
    tsum,
)


def _qkv(rng, lead, L, dk, dv):
    return (
        rng.normal(lead + (L, dk)),
        rng.normal(lead + (L, dk)),
        rng.normal(lead + (L, dv)),
    )


def _irregular_ts(rng, L, batch=None):
    shape = (L,) if batch is None else (batch, L)
    gaps = rng.integers(1, 7, shape)
    return np.cumsum(gaps, axis=-1).astype(np.int64)


def _chunkwise(q, k, v, t, gamma, chunk_size):
    """The chunk-wise form over timestamps ``t`` (None: 0 .. L-1); array
    operands are wrapped in Tensors."""
    q, k, v = (x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v))
    t = np.arange(q.shape[-2]) if t is None else t
    return retention_chunkwise(q, k, v, ChunkPlan.build(t, gamma, chunk_size))


def _parallel(q, k, v, mask):
    """The parallel form; array operands are wrapped in Tensors."""
    q, k, v = (x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v))
    return retention_parallel(q, k, v, mask)


# ---------------------------------------------------------------------------
# decay mask
# ---------------------------------------------------------------------------


def test_mask_regular_matches_loop_oracle():
    g = 0.9
    L = 6
    got = DecayMask.build(g, length=L).matrix
    want = np.zeros((L, L))
    for n in range(L):
        for m in range(L):
            want[n, m] = g ** (n - m) if n >= m else 0.0
    np.testing.assert_allclose(got, want, atol=0, rtol=0)


def test_mask_irregular_matches_eq_oracle():
    g = 0.8
    t = np.array([1, 3, 4, 9, 9, 20])
    got = DecayMask.build(g, timestamps=t).matrix
    L = len(t)
    want = np.zeros((L, L))
    for n in range(L):
        for m in range(n + 1):
            want[n, m] = g ** (t[n] - t[m])
    np.testing.assert_allclose(got, want, atol=1e-15, rtol=0)
    # equal timestamps decay by gamma^0 = 1
    assert got[4, 3] == 1.0


def test_mask_irregular_reduces_to_regular_bitwise():
    for L in (1, 2, 5, 17, 64):
        reg = DecayMask.build(0.95, length=L).matrix
        irr = DecayMask.build(0.95, timestamps=np.arange(1, L + 1)).matrix
        assert reg.tobytes() == irr.tobytes()


def test_mask_diagonal_is_one_even_for_gamma_zero():
    m = DecayMask.build(0.0, length=4).matrix
    np.testing.assert_array_equal(np.diag(m), np.ones(4))
    assert m.sum() == 4.0  # nothing off-diagonal survives


def test_mask_per_head_and_batched_shapes():
    assert DecayMask.build(np.array([0.9, 0.8]), length=5).matrix.shape == (2, 5, 5)
    ts = np.array([[1, 2, 5], [2, 4, 9]])
    assert DecayMask.build(0.9, timestamps=ts).matrix.shape == (2, 1, 3, 3)
    assert DecayMask.build(np.array([0.9, 0.8]), timestamps=ts).matrix.shape == (2, 2, 3, 3)


def test_mask_rejects_decreasing_timestamps_and_bad_gamma():
    with pytest.raises(InputError):
        DecayMask.build(0.9, timestamps=np.array([3, 2, 1]))
    with pytest.raises(ConfigError):
        DecayMask.build(1.5, length=3)
    with pytest.raises(ConfigError):
        DecayMask.build(-0.1, length=3)


MASK_TIMESTAMPS = {
    # name: timestamps
    "regular": np.arange(9),
    "repeated": np.array([2, 2, 3, 7, 7, 7, 8]),
    "batched": np.array([[1, 2, 5, 9, 9], [3, 3, 4, 30, 31], [0, 1, 2, 3, 4]]),
    "table_fills_the_mask": np.array([0, 3]),  # span + 1 == 4 entries: the table
    "table_exceeds_the_mask": np.array([0, 4]),  # span + 1 == 5 > 4 entries: direct powers
    "batched_direct": np.array([[0, 40], [5, 6]]),
    "no_rows": np.zeros((0, 3), dtype=np.int64),
    "no_positions": np.zeros((2, 0), dtype=np.int64),
}


@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 0.9, np.array([0.0, 0.5, 1.0]), np.array([0.98, 0.7])])
@pytest.mark.parametrize("name", sorted(MASK_TIMESTAMPS))
def test_mask_is_the_direct_power_expression_bitwise(name, gamma):
    """Table or direct powers, the mask is bitwise ``gamma ** gaps``."""
    t = MASK_TIMESTAMPS[name]
    got = DecayMask.build(gamma, timestamps=t).matrix
    want = decay_mask_direct(gamma, t)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_mask_of_a_huge_span_builds_no_span_sized_table():
    """Epoch-scale gaps take the direct powers: the result is the direct
    expression and nothing near the span's size is allocated."""
    for t in (np.array([0, 10**12]), np.array([[0, 10**12], [7, 8]])):
        for gamma in (0.5, np.array([0.9, 1.0])):
            tracemalloc.start()
            try:
                got = DecayMask.build(gamma, timestamps=t).matrix
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == decay_mask_direct(gamma, t).tobytes()
            assert peak < 64 * 1024


def test_mask_writes_per_sequence_rows_by_blocks(monkeypatch):
    """With blocks of one row, a per-sequence mask is the direct expression
    and each row is that row's mask built alone."""
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", 1)
    t = MASK_TIMESTAMPS["batched"]
    gammas = np.array([0.9, 0.6])
    got = DecayMask.build(gammas, timestamps=t).matrix
    assert got.tobytes() == decay_mask_direct(gammas, t).tobytes()
    for i in range(len(t)):
        assert got[i : i + 1].tobytes() == DecayMask.build(gammas, timestamps=t[i : i + 1]).matrix.tobytes()


@given(st.floats(min_value=0.05, max_value=1.0), st.integers(min_value=2, max_value=12))
@settings(max_examples=40, deadline=None)
def test_mask_monotone_decay_property(g, L):
    m = DecayMask.build(g, length=L).matrix
    for n in range(L):
        row = m[n, : n + 1]
        assert np.all(np.diff(row) >= 0)  # older entries never larger


# ---------------------------------------------------------------------------
# parallel form
# ---------------------------------------------------------------------------


def test_parallel_single_step():
    rng = Rng(0)
    q, k, v = _qkv(rng, (), 1, 4, 3)
    out = _parallel(q, k, v, DecayMask.build(0.9, length=1))
    want = (q[0] @ k[0]) * v[0]
    np.testing.assert_allclose(out.value[0], want, atol=1e-15)


def test_parallel_memoryless_gamma_zero():
    rng = Rng(1)
    q, k, v = _qkv(rng, (), 5, 4, 3)
    out = _parallel(q, k, v, DecayMask.build(0.0, length=5))
    for n in range(5):
        np.testing.assert_allclose(out.value[n], (q[n] @ k[n]) * v[n], atol=1e-12)


def test_parallel_matches_double_loop_oracle():
    rng = Rng(7)
    L, d = 8, 4
    q, k, v = _qkv(rng, (), L, d, d)
    g = 0.85
    out = _parallel(q, k, v, DecayMask.build(g, length=L)).value
    want = np.zeros((L, d))
    for n in range(L):
        for m in range(n + 1):
            want[n] += g ** (n - m) * float(q[n] @ k[m]) * v[m]
    assert np.max(np.abs(out - want)) < 1e-10


def test_parallel_mask_length_mismatch():
    rng = Rng(2)
    q, k, v = _qkv(rng, (), 4, 2, 2)
    with pytest.raises(InputError):
        _parallel(q, k, v, DecayMask.build(0.9, length=5))


@pytest.mark.parametrize("lead, gammas, per_sequence", [
    ((2, 3), 0.9, False),
    ((2, 3), (0.98, 0.9, 0.7), False),
    ((2, 3), (0.98, 0.9, 0.7), True),
    ((2, 3), 0.9, True),
    ((3,), 0.9, False),
    ((), (0.98, 0.9, 0.7), False),  # the mask has more leading axes than the scores
])
def test_parallel_is_one_node_bitwise_its_composite(lead, gammas, per_sequence):
    rng = Rng(19)
    L = 33  # with d_k = 16, a product with a transposed view of k rounds differently from one with a copy
    q, k, v = _qkv(rng, lead, L, 16, 3)
    t = _irregular_ts(rng, L, batch=lead[0]) if per_sequence else _irregular_ts(rng, L)
    mask = DecayMask.build(np.asarray(gammas), timestamps=t)
    fused, ref = [Tensor(a) for a in (q, k, v)], [Tensor(a) for a in (q, k, v)]
    out, want = retention_parallel(*fused, mask), retention_parallel_taped(*ref, mask)
    assert out._parents == tuple(fused)
    assert out.value.tobytes() == want.value.tobytes()
    weights = rng.normal(out.shape)
    backward(tsum(mul(out, weights)))
    backward(tsum(mul(want, weights)))
    for f, r in zip(fused, ref):
        assert f.grad.shape == r.grad.shape and f.grad.tobytes() == r.grad.tobytes()


# ---------------------------------------------------------------------------
# recurrent form
# ---------------------------------------------------------------------------


def test_recurrent_regular_equals_parallel():
    rng = Rng(3)
    L = 12
    q, k, v = _qkv(rng, (), L, 4, 4)
    par = _parallel(q, k, v, DecayMask.build(0.9, length=L)).value
    rec, _ = retention_recurrent(q, k, v, None, 0.9)
    assert np.max(np.abs(par - rec)) < 1e-10


def test_recurrent_one_gap_hand_case():
    # two steps with a gap of g: carried state scales by gamma^g
    gamma, gap = 0.5, 3
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    k = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[2.0, 0.0], [0.0, 0.0]])
    t = np.array([1, 1 + gap])
    out, state = retention_recurrent(q, k, v, t, gamma)
    # step 1: s = k1^T v1, out1 = (q1.k1) v1 = 2
    assert out[0, 0] == 2.0
    # step 2: s scaled by gamma^gap, k2 = v2 = 0, out2 = gamma^gap * 2
    assert abs(out[1, 0] - gamma**gap * 2.0) < 1e-15
    # and the state leaving step 2 is k1^T v1 decayed over the gap
    np.testing.assert_array_equal(state, [[gamma**gap * 2.0, 0.0], [0.0, 0.0]])


def test_recurrent_irregular_equals_parallel_with_irregular_mask():
    rng = Rng(5)
    L = 12
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    par = _parallel(q, k, v, DecayMask.build(0.9, timestamps=t)).value
    rec, _ = retention_recurrent(q, k, v, t, 0.9)
    assert np.max(np.abs(par - rec)) < 1e-10


def test_recurrent_state_closed_form():
    rng = Rng(8)
    L, dk, dv = 9, 3, 5
    q, k, v = _qkv(rng, (), L, dk, dv)
    t = _irregular_ts(rng, L)
    g = 0.9
    _, state = retention_recurrent(q, k, v, t, g)
    want = np.zeros((dk, dv))
    for m in range(L):
        want += g ** (t[-1] - t[m]) * np.outer(k[m], v[m])
    assert np.max(np.abs(state - want)) < 1e-10


@pytest.mark.parametrize("per_sequence", [False, True])
@pytest.mark.parametrize("per_head", [False, True])
@pytest.mark.parametrize("L", [1, 9])
def test_recurrent_on_arrays_is_the_taped_loop_bitwise(per_sequence, per_head, L):
    """The array form runs the taped loop's float operations in its order:
    output and state are bitwise the oracle's, as plain arrays."""
    rng = Rng(9).child(f"{per_sequence}-{per_head}-{L}")
    B, h = 2, 3
    q, k, v = _qkv(rng, (B, h), L, 4, 3)
    t = _irregular_ts(rng, L, batch=B if per_sequence else None)
    gamma = np.array([0.97, 0.9, 0.6]) if per_head else 0.9
    out, state = retention_recurrent(q, k, v, t, gamma)
    ref_out, ref_state = retention_recurrent_taped(q, k, v, t, gamma)
    assert type(out) is np.ndarray and type(state) is np.ndarray
    assert out.tobytes() == ref_out.value.tobytes()
    assert state.tobytes() == ref_state.tobytes()


def test_recurrent_rejects_decreasing_timestamps():
    rng = Rng(10)
    q, k, v = _qkv(rng, (), 3, 2, 2)
    with pytest.raises(InputError):
        retention_recurrent(q, k, v, np.array([5, 4, 6]), 0.9)


# ---------------------------------------------------------------------------
# chunk-wise form
# ---------------------------------------------------------------------------


def _bounds(plan):
    return [(c.lo, c.hi) for c in plan.chunks]


def test_chunk_plan_boundaries():
    assert _bounds(ChunkPlan.build(np.arange(10), 0.9, 4)) == [(0, 4), (4, 8), (8, 10)]
    assert _bounds(ChunkPlan.build(np.arange(8), 0.9, 4)) == [(0, 4), (4, 8)]
    assert _bounds(ChunkPlan.build(np.arange(3), 0.9, 64)) == [(0, 3)]
    with pytest.raises(ConfigError):
        ChunkPlan.build(np.arange(8), 0.9, 0)
    with pytest.raises(InputError):
        ChunkPlan.build(np.array([3, 2, 1]), 0.9, 2)


@pytest.mark.parametrize("batched", [False, True])
def test_chunk_plan_arrays_are_the_per_chunk_builds_bitwise(batched):
    """Each chunk's mask (read through ``ChunkPlan.mask``, which gathers a
    per-sequence chunk's), zeta, tail and span factor are bitwise what
    ``DecayMask.build``, ``_decay_rows`` and ``_decay_factor`` give for that
    chunk's timestamps alone."""
    rng = Rng(14)
    t = _irregular_ts(rng, 11, batch=3 if batched else None)
    gammas = np.array([0.98, 0.9])
    plan = ChunkPlan.build(t, gammas, 4)
    assert plan.length == 11 and _bounds(plan) == [(0, 4), (4, 8), (8, 11)]
    prev = None
    for c in plan.chunks:
        t_c = t[..., c.lo : c.hi]
        last = t_c[..., -1]
        assert plan.mask(c).tobytes() == DecayMask.build(gammas, timestamps=t_c).matrix.tobytes()
        assert c.tail.tobytes() == _decay_rows(gammas, last[..., None] - t_c, batched).tobytes()
        if prev is None:
            assert c.zeta is None and c.fac is None
        else:
            assert c.zeta.tobytes() == _decay_rows(gammas, t_c - prev[..., None], batched).tobytes()
            assert c.fac.tobytes() == _decay_factor(gammas, last - prev).tobytes()
        prev = last


# Per-sequence timestamps whose chunks read the plan's table of powers, and
# epoch seconds, whose gaps outrun the masks' entries: no table, direct powers.
GATHER_TIMESTAMPS = {
    "table": lambda rng: _irregular_ts(rng, 11, batch=5),
    "epoch_seconds": lambda rng: 1_700_000_000 + np.cumsum(rng.integers(1, 90_000, (5, 11)), axis=-1),
}


@pytest.mark.parametrize("gamma", [0.9, np.array([0.98, 0.9]), np.array([0.5, 1.0, 0.0])])
@pytest.mark.parametrize("name", sorted(GATHER_TIMESTAMPS))
def test_per_sequence_chunk_masks_are_gathered_per_block_bitwise(name, gamma):
    """For several blocks of rows, a per-sequence chunk's gathered mask is
    bitwise ``DecayMask.build`` on that block's timestamps of the chunk, for
    one shared gamma and per-head gammas, from the plan's table or, where
    the span outruns it, from direct powers."""
    t = GATHER_TIMESTAMPS[name](Rng(15)).astype(np.int64)
    plan = ChunkPlan.build(t, gamma, 4)
    assert plan.batch == 5 and all(c.mask is None for c in plan.chunks)
    assert (plan.powers.table is None) == (name == "epoch_seconds")
    for rows in (slice(None), slice(0, 1), slice(1, 4), slice(4, 5), slice(2, 2)):
        for c in plan.chunks:
            want = DecayMask.build(gamma, timestamps=t[rows, c.lo : c.hi]).matrix
            got = plan.mask(c, rows)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (rows, c.lo)


def test_per_sequence_plan_holds_no_mask_of_the_batch():
    """At the benchmark cohort's shape (B=400, L=61, one chunk), a
    per-sequence plan allocates O(B L) bytes: its tail rows, a table of
    powers no longer than the widest gap and the triangle masks (the
    timestamps are the caller's array), where one [B, 1, L, L] mask would
    be 11.9 MB."""
    B, L = 400, 61
    t = _irregular_ts(Rng(16), L, batch=B)
    span = int((t[:, -1] - t[:, 0]).max())
    tracemalloc.start()
    try:
        plan = ChunkPlan.build(t, 0.9, 64)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tail_bytes, table_bytes, tri_bytes = B * L * 8, (span + 2) * 8, 2 * L * L
    assert held < tail_bytes + table_bytes + tri_bytes + 16 * 1024, held
    assert plan.times is t and plan.powers.table.nbytes == table_bytes


def test_chunk_plan_shares_a_mask_between_chunks_of_equal_relative_timestamps():
    plan = ChunkPlan.build(np.arange(1, 11), 0.9, 4)  # chunks 1..4, 5..8, 9..10
    assert plan.chunks[1].mask is plan.chunks[0].mask
    assert plan.chunks[2].mask.shape == (2, 2)


def test_chunkwise_single_chunk_equals_parallel():
    # a sequence that fits in one chunk runs the parallel form's arithmetic
    rng = Rng(11)
    gammas = np.array([0.98, 0.9])
    for L in (1, 7, 61):
        q, k, v = _qkv(rng, (), L, 4, 4)
        par = _parallel(q, k, v, DecayMask.build(0.9, length=L)).value
        out, _ = _chunkwise(q, k, v, None, 0.9, 64)
        np.testing.assert_array_equal(out.value, par)

        q, k, v = _qkv(rng, (3, 2), L, 4, 4)
        t = _irregular_ts(rng, L, batch=3)
        par = _parallel(q, k, v, DecayMask.build(gammas, timestamps=t)).value
        out, _ = _chunkwise(q, k, v, t, gammas, 64)
        np.testing.assert_array_equal(out.value, par)


def test_chunkwise_unit_chunks_equal_recurrent():
    rng = Rng(12)
    L = 7
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    rec, rst = retention_recurrent(q, k, v, t, 0.9)
    out, cst = _chunkwise(q, k, v, t, 0.9, 1)
    assert np.max(np.abs(out.value - rec)) < 1e-12
    assert np.max(np.abs(cst - rst)) < 1e-12


@pytest.mark.parametrize("irregular", [False, True])
def test_chunkwise_ragged_matches_recurrent(irregular):
    rng = Rng(13)
    L, B = 10, 4
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L) if irregular else None
    rec, rst = retention_recurrent(q, k, v, t, 0.9)
    out, cst = _chunkwise(q, k, v, t, 0.9, B)
    assert np.max(np.abs(out.value - rec)) < 1e-9
    assert np.max(np.abs(cst - rst)) < 1e-9


# ---------------------------------------------------------------------------
# cross-form sweep (batched, multi-head)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("irregular", [False, True])
def test_three_forms_agree_batched_multihead(irregular):
    rng = Rng(15)
    Bq, h, L, d = 2, 3, 20, 4
    q, k, v = _qkv(rng, (Bq, h), L, d, d)
    gammas = np.array([0.98, 0.9, 0.7])
    t = _irregular_ts(rng, L, batch=Bq) if irregular else None
    mask = DecayMask.build(gammas, length=L) if t is None else DecayMask.build(gammas, timestamps=t)
    par = _parallel(q, k, v, mask).value
    rec, _ = retention_recurrent(q, k, v, t, gammas)
    chk, _ = _chunkwise(q, k, v, t, gammas, 6)
    assert np.max(np.abs(par - rec)) < 1e-9
    assert np.max(np.abs(par - chk.value)) < 1e-9


def test_head_permutation_oracle():
    # permuting the per-head decay schedule together with the per-head
    # inputs permutes per-head outputs; permuting the projection's row
    # blocks to match leaves the concatenated-then-projected result intact
    rng = Rng(21)
    h, L, d, D = 3, 6, 4, 5
    q, k, v = _qkv(rng, (h,), L, d, d)
    gammas = np.array([0.95, 0.8, 0.6])
    w_out = rng.normal((h * d, D))
    perm = np.array([2, 0, 1])

    out = _parallel(q, k, v, DecayMask.build(gammas, length=L)).value
    out_p = _parallel(q[perm], k[perm], v[perm], DecayMask.build(gammas[perm], length=L)).value
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    merged = out.transpose(1, 0, 2).reshape(L, h * d)
    merged_p = out_p.transpose(1, 0, 2).reshape(L, h * d)
    w_perm = w_out.reshape(h, d, D)[perm].reshape(h * d, D)
    np.testing.assert_allclose(merged_p @ w_perm, merged @ w_out, atol=1e-12)


def test_causality_perturbation():
    rng = Rng(16)
    L = 10
    q, k, v = _qkv(rng, (), L, 4, 4)
    mask = DecayMask.build(0.9, length=L)
    base = _parallel(q, k, v, mask).value
    kp, vp = k.copy(), v.copy()
    kp[7] += 10.0
    vp[7] -= 3.0
    pert = _parallel(q, kp, vp, mask).value
    np.testing.assert_array_equal(base[:7], pert[:7])
    assert np.any(base[7:] != pert[7:])


def test_retention_gradients_flow_through_all_forms():
    rng = Rng(17)
    L = 5
    q, k, v = _qkv(rng, (), L, 3, 3)
    t = _irregular_ts(rng, L)

    def loss_of(form, want_tensors=False):
        qt, kt, vt = Tensor(q), Tensor(k), Tensor(v)
        if form == "parallel":
            out = retention_parallel(qt, kt, vt, DecayMask.build(0.9, timestamps=t))
        elif form == "recurrent":
            out, _ = retention_recurrent_taped(qt, kt, vt, t, 0.9)
        else:
            out, _ = _chunkwise(qt, kt, vt, t, 0.9, 2)
        loss = tsum(mul(out, out))
        if want_tensors:
            return loss, (qt, kt, vt)
        return loss.value

    for form in ("parallel", "recurrent", "chunkwise"):
        loss, tensors = loss_of(form, want_tensors=True)
        backward(loss)
        for arr, tsr in zip((q, k, v), tensors):
            fd = finite_diff_grad(lambda: loss_of(form), arr)
            assert rel_err(tsr.grad, fd) < 1e-4, form


# ---------------------------------------------------------------------------
# fused chunk-wise op: one tape node with an analytic backward
# ---------------------------------------------------------------------------

FUSED_CASES = {
    # name: (per-sequence timestamps, L, chunk_size)
    "shared_ragged": (False, 7, 3),
    "batched_ragged": (True, 7, 3),
    "shared_single_chunk": (False, 6, 64),
    "batched_single_chunk": (True, 6, 64),
    "shared_unit_chunks": (False, 5, 1),
    "batched_unit_chunks": (True, 5, 1),
}


def _fused_case(name):
    batched, L, chunk = FUSED_CASES[name]
    rng = Rng(31)
    B, h, d = 2, 3, 3
    q, k, v = _qkv(rng, (B, h), L, d, d)
    gaps = rng.integers(0, 4, (B, L) if batched else (L,))  # 0 gaps: equal timestamps
    t = np.cumsum(gaps, axis=-1).astype(np.int64) + 2
    weights = rng.normal((B, h, L, d))
    return (q, k, v), t, np.array([1.0, 0.9, 0.6]), chunk, weights


def _fused_loss(fn, arrays, t, gammas, chunk, weights):
    """Loss of ``_chunkwise`` or ``retention_chunkwise_taped`` (same arguments)."""
    tensors = [Tensor(a) for a in arrays]
    out, state = fn(*tensors, t, gammas, chunk)
    return tsum(mul(out, weights)), out, state, tensors


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_chunkwise_fused_gradient_matches_finite_differences(name):
    arrays, t, gammas, chunk, weights = _fused_case(name)
    loss, out, _, tensors = _fused_loss(_chunkwise, arrays, t, gammas, chunk, weights)
    assert out._parents == tuple(tensors)  # one tape node over (q, k, v)
    backward(loss)
    for arr, tsr in zip(arrays, tensors):
        fd = finite_diff_grad(
            lambda: _fused_loss(_chunkwise, arrays, t, gammas, chunk, weights)[0].value, arr)
        assert rel_err(tsr.grad, fd) < 1e-7, name


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_chunkwise_fused_equals_taped_oracle(name):
    arrays, t, gammas, chunk, weights = _fused_case(name)
    loss, out, state, tensors = _fused_loss(_chunkwise, arrays, t, gammas, chunk, weights)
    ref_loss, ref_out, ref_state, ref_tensors = _fused_loss(
        retention_chunkwise_taped, arrays, t, gammas, chunk, weights)
    np.testing.assert_array_equal(out.value, ref_out.value)
    np.testing.assert_array_equal(state, ref_state.value)
    assert type(state) is np.ndarray  # the returned state carries no tape
    backward(loss)
    backward(ref_loss)
    for got, want in zip(tensors, ref_tensors):
        scale = np.max(np.abs(want.grad))
        assert np.max(np.abs(got.grad - want.grad)) <= 1e-10 * scale, name


# ---------------------------------------------------------------------------
# blocked chunk-wise kernel: rows run by blocks are the rows run alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("per_sequence", [False, True])
@pytest.mark.parametrize("per_head", [False, True])
def test_chunkwise_blocks_are_rows_run_alone_bitwise(per_sequence, per_head, monkeypatch):
    """With blocks small enough that a batch spans several, each row's
    output, state and q/k/v gradients are bitwise that row run alone (a
    ragged last chunk included), and an eval call gives the same output."""
    B, h, L, d, chunk = 7, 2, 11, 3, 4  # chunks 0..4, 4..8, 8..11
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", 2 * h * chunk * chunk)
    assert len(row_blocks(B, h * chunk * chunk)) == 4  # blocks of 2, 2, 2, 1 rows
    rng = Rng(41).child(f"{per_sequence}-{per_head}")
    arrays = _qkv(rng, (B, h), L, d, d)
    t = _irregular_ts(rng, L, batch=B if per_sequence else None)
    gamma = np.array([0.97, 0.6]) if per_head else 0.9
    weights = rng.normal((B, h, L, d))

    def run(rows):
        ts = t[rows] if per_sequence else t
        tensors = [Tensor(a[rows]) for a in arrays]
        out, state = _chunkwise(*tensors, ts, gamma, chunk)
        backward(tsum(mul(out, weights[rows])))
        with no_grad():
            assert _chunkwise(*(a[rows] for a in arrays), ts, gamma, chunk)[0].value.tobytes() == out.value.tobytes()
        return out.value, state, [x.grad for x in tensors]

    out, state, grads = run(slice(None))
    for i in range(B):
        out_i, state_i, grads_i = run(slice(i, i + 1))
        assert out[i : i + 1].tobytes() == out_i.tobytes(), i
        assert state[i : i + 1].tobytes() == state_i.tobytes(), i
        for g, g_i in zip(grads, grads_i):
            assert g[i : i + 1].tobytes() == g_i.tobytes(), i


def test_chunkwise_rejects_a_plan_for_another_batch():
    rng = Rng(42)
    q, k, v = _qkv(rng, (3, 2), 5, 4, 4)
    plan = ChunkPlan.build(_irregular_ts(rng, 5, batch=2), 0.9, 4)
    with pytest.raises(InputError, match="batch of 2"):
        retention_chunkwise(Tensor(q), Tensor(k), Tensor(v), plan)


@pytest.mark.parametrize("per_sequence", [False, True])
def test_chunkwise_of_a_zero_length_sequence_is_empty_with_the_zero_state(per_sequence):
    q, k, v = (Tensor(np.ones((2, 1, 0, 3))) for _ in range(3))
    t = np.zeros((2, 0) if per_sequence else (0,), dtype=np.int64)
    out, state = _chunkwise(q, k, v, t, 0.9, 4)
    assert out.shape == (2, 1, 0, 3)
    assert state.shape == (2, 1, 3, 3) and not state.any()
    backward(tsum(out))
    assert all(x.grad.shape == (2, 1, 0, 3) for x in (q, k, v))


def test_chunkwise_eval_call_at_the_cohort_shape_allocates_blocks_not_the_batch():
    """An eval call at the benchmark cohort's shape ([400, 2, 61, 8], one
    chunk of per-sequence timestamps) peaks below its output and states plus
    a few blocks' score arrays; the whole batch's [400, 2, 61, 61] scores
    would be 24 MB."""
    B, h, L, d = 400, 2, 61, 8
    rng = Rng(43)
    q, k, v = (Tensor(a) for a in _qkv(rng, (B, h), L, d, d))
    plan = ChunkPlan.build(_irregular_ts(rng, L, batch=B), 0.9, 64)
    rows = row_blocks(B, h * L * L)[0].stop
    block = rows * h * L * L * 8
    out_bytes, state_bytes = B * h * L * d * 8, B * h * d * d * 8
    with no_grad():
        tracemalloc.start()
        try:
            out, state = retention_chunkwise(q, k, v, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.value.nbytes == out_bytes and state.nbytes == state_bytes
    assert peak < out_bytes + state_bytes + 4 * block, (peak, block)
