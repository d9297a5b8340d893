import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt.errors import ConfigError, InputError
from tsgpt.retention import (
    ChunkPlan,
    DecayMask,
    retention_chunkwise,
    retention_parallel,
    retention_recurrent,
)
from tsgpt.tensor import Rng, Tensor, backward, tsum


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
    out = retention_parallel(q, k, v, DecayMask.build(0.9, length=1))
    want = (q[0] @ k[0]) * v[0]
    np.testing.assert_allclose(out.value[0], want, atol=1e-15)


def test_parallel_memoryless_gamma_zero():
    rng = Rng(1)
    q, k, v = _qkv(rng, (), 5, 4, 3)
    out = retention_parallel(q, k, v, DecayMask.build(0.0, length=5))
    for n in range(5):
        np.testing.assert_allclose(out.value[n], (q[n] @ k[n]) * v[n], atol=1e-12)


def test_parallel_matches_double_loop_oracle():
    rng = Rng(7)
    L, d = 8, 4
    q, k, v = _qkv(rng, (), L, d, d)
    g = 0.85
    out = retention_parallel(q, k, v, DecayMask.build(g, length=L)).value
    want = np.zeros((L, d))
    for n in range(L):
        for m in range(n + 1):
            want[n] += g ** (n - m) * float(q[n] @ k[m]) * v[m]
    assert np.max(np.abs(out - want)) < 1e-10


def test_parallel_mask_length_mismatch():
    rng = Rng(2)
    q, k, v = _qkv(rng, (), 4, 2, 2)
    with pytest.raises(InputError):
        retention_parallel(q, k, v, DecayMask.build(0.9, length=5))


# ---------------------------------------------------------------------------
# recurrent form
# ---------------------------------------------------------------------------


def test_recurrent_regular_equals_parallel():
    rng = Rng(3)
    L = 12
    q, k, v = _qkv(rng, (), L, 4, 4)
    par = retention_parallel(q, k, v, DecayMask.build(0.9, length=L)).value
    rec, _ = retention_recurrent(q, k, v, None, 0.9)
    assert np.max(np.abs(par - rec.value)) < 1e-10


def test_recurrent_one_gap_hand_case():
    # two steps with a gap of g: carried state scales by gamma^g
    gamma, gap = 0.5, 3
    q = np.array([[1.0, 0.0], [1.0, 0.0]])
    k = np.array([[1.0, 0.0], [0.0, 0.0]])
    v = np.array([[2.0, 0.0], [0.0, 0.0]])
    t = np.array([1, 1 + gap])
    out, state = retention_recurrent(q, k, v, t, gamma)
    # step 1: s = k1^T v1, out1 = (q1.k1) v1 = 2
    assert out.value[0, 0] == 2.0
    # step 2: s scaled by gamma^gap, k2 = v2 = 0, out2 = gamma^gap * 2
    assert abs(out.value[1, 0] - gamma**gap * 2.0) < 1e-15
    assert state.last_t == 1 + gap


def test_recurrent_irregular_equals_parallel_with_irregular_mask():
    rng = Rng(5)
    L = 12
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    par = retention_parallel(q, k, v, DecayMask.build(0.9, timestamps=t)).value
    rec, _ = retention_recurrent(q, k, v, t, 0.9)
    assert np.max(np.abs(par - rec.value)) < 1e-10


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
    assert np.max(np.abs(state.s.value - want)) < 1e-10


def test_recurrent_streaming_continuation():
    rng = Rng(9)
    L = 10
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    full, full_state = retention_recurrent(q, k, v, t, 0.9)
    first, st1 = retention_recurrent(q[:6], k[:6], v[:6], t[:6], 0.9)
    second, st2 = retention_recurrent(q[6:], k[6:], v[6:], t[6:], 0.9, initial=st1)
    glued = np.concatenate([first.value, second.value], axis=0)
    assert np.max(np.abs(glued - full.value)) < 1e-12
    assert np.max(np.abs(st2.s.value - full_state.s.value)) < 1e-12


def test_recurrent_rejects_decreasing_timestamps():
    rng = Rng(10)
    q, k, v = _qkv(rng, (), 3, 2, 2)
    with pytest.raises(InputError):
        retention_recurrent(q, k, v, np.array([5, 4, 6]), 0.9)


# ---------------------------------------------------------------------------
# chunk-wise form
# ---------------------------------------------------------------------------


def test_chunk_plan_boundaries():
    assert ChunkPlan.build(10, 4).boundaries == (0, 4, 8, 10)
    assert ChunkPlan.build(8, 4).boundaries == (0, 4, 8)
    assert ChunkPlan.build(3, 64).boundaries == (0, 3)
    with pytest.raises(ConfigError):
        ChunkPlan.build(8, 0)


def test_chunkwise_single_chunk_equals_parallel():
    # a sequence that fits in one chunk runs the parallel form's arithmetic
    rng = Rng(11)
    gammas = np.array([0.98, 0.9])
    for L in (1, 7, 61):
        q, k, v = _qkv(rng, (), L, 4, 4)
        par = retention_parallel(q, k, v, DecayMask.build(0.9, length=L)).value
        out, _ = retention_chunkwise(q, k, v, None, 0.9, ChunkPlan.build(L, 64))
        np.testing.assert_array_equal(out.value, par)

        q, k, v = _qkv(rng, (3, 2), L, 4, 4)
        t = _irregular_ts(rng, L, batch=3)
        par = retention_parallel(q, k, v, DecayMask.build(gammas, timestamps=t)).value
        out, _ = retention_chunkwise(q, k, v, t, gammas, ChunkPlan.build(L, 64))
        np.testing.assert_array_equal(out.value, par)


def test_chunkwise_unit_chunks_equal_recurrent():
    rng = Rng(12)
    L = 7
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    rec, rst = retention_recurrent(q, k, v, t, 0.9)
    out, cst = retention_chunkwise(q, k, v, t, 0.9, ChunkPlan.build(L, 1))
    assert np.max(np.abs(out.value - rec.value)) < 1e-12
    assert np.max(np.abs(cst.s.value - rst.s.value)) < 1e-12


@pytest.mark.parametrize("irregular", [False, True])
def test_chunkwise_ragged_matches_recurrent(irregular):
    rng = Rng(13)
    L, B = 10, 4
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L) if irregular else None
    rec, rst = retention_recurrent(q, k, v, t, 0.9)
    out, cst = retention_chunkwise(q, k, v, t, 0.9, ChunkPlan.build(L, B))
    assert np.max(np.abs(out.value - rec.value)) < 1e-9
    assert np.max(np.abs(cst.s.value - rst.s.value)) < 1e-9


def test_chunkwise_with_initial_state_continuation():
    rng = Rng(14)
    L = 12
    q, k, v = _qkv(rng, (), L, 4, 4)
    t = _irregular_ts(rng, L)
    full, _ = retention_recurrent(q, k, v, t, 0.9)
    _, st1 = retention_chunkwise(q[:5], k[:5], v[:5], t[:5], 0.9, ChunkPlan.build(5, 3))
    second, _ = retention_chunkwise(q[5:], k[5:], v[5:], t[5:], 0.9, ChunkPlan.build(7, 3), initial=st1)
    assert np.max(np.abs(second.value - full.value[5:])) < 1e-10


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
    par = retention_parallel(q, k, v, mask).value
    rec, _ = retention_recurrent(q, k, v, t, gammas)
    chk, _ = retention_chunkwise(q, k, v, t, gammas, ChunkPlan.build(L, 6))
    assert np.max(np.abs(par - rec.value)) < 1e-9
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

    out = retention_parallel(q, k, v, DecayMask.build(gammas, length=L)).value
    out_p = retention_parallel(q[perm], k[perm], v[perm], DecayMask.build(gammas[perm], length=L)).value
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
    base = retention_parallel(q, k, v, mask).value
    kp, vp = k.copy(), v.copy()
    kp[7] += 10.0
    vp[7] -= 3.0
    pert = retention_parallel(q, kp, vp, mask).value
    np.testing.assert_array_equal(base[:7], pert[:7])
    assert np.any(base[7:] != pert[7:])


def test_retention_gradients_flow_through_all_forms():
    from oracles import finite_diff_grad, rel_err

    rng = Rng(17)
    L = 5
    q, k, v = _qkv(rng, (), L, 3, 3)
    t = _irregular_ts(rng, L)

    def loss_of(form, want_tensors=False):
        qt, kt, vt = Tensor(q), Tensor(k), Tensor(v)
        if form == "parallel":
            out = retention_parallel(qt, kt, vt, DecayMask.build(0.9, timestamps=t))
        elif form == "recurrent":
            out, _ = retention_recurrent(qt, kt, vt, t, 0.9)
        else:
            out, _ = retention_chunkwise(qt, kt, vt, t, 0.9, ChunkPlan.build(L, 2))
        loss = tsum(out * out)
        if want_tensors:
            return loss, (qt, kt, vt)
        return loss.value

    for form in ("parallel", "recurrent", "chunkwise"):
        loss, tensors = loss_of(form, want_tensors=True)
        backward(loss)
        for arr, tsr in zip((q, k, v), tensors):
            fd = finite_diff_grad(lambda: loss_of(form), arr)
            assert rel_err(tsr.grad, fd) < 1e-4, form
