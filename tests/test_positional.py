import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt import tensor
from tsgpt.datagen import SequenceBatch
from tsgpt.errors import ConfigError, InputError
from tsgpt.positional import RotaryAngles, default_gammas, project_heads, rotate_array, rotation_tables, xpos_qk
from tsgpt.tensor import Rng, Tensor, backward, mul, no_grad, tsum

from oracles import finite_diff_grad, merge_heads, project_heads_taped, rel_err, rotate, split_heads


def _rotated(x, positions, angles):
    """x [L, d] rotated by ``positions`` [L]: the arithmetic ``project_heads`` runs."""
    return rotate_array(x, *rotation_tables(np.asarray(positions), angles))


def test_theta_schedule_formula_and_monotonicity():
    for d in (2, 4, 8, 16):
        ang = RotaryAngles(d)
        want = np.array([10000.0 ** (-2.0 * (i - 1) / d) for i in range(1, d // 2 + 1)])
        np.testing.assert_allclose(ang.thetas, want, rtol=0, atol=0)
        assert ang.thetas[0] == 1.0
        assert np.all(np.diff(ang.thetas) < 0) or d == 2
        assert np.all(ang.thetas > 0)


def test_odd_head_dim_rejected():
    with pytest.raises(ConfigError):
        RotaryAngles(3)


def test_rotate_position_zero_is_identity():
    x = Rng(1).normal((5, 8))
    out = _rotated(x, np.zeros(5, dtype=int), RotaryAngles(8))
    np.testing.assert_array_equal(out, x)


def test_rotate_quarter_turn():
    ang = RotaryAngles(2)
    object.__setattr__(ang, "thetas", np.array([np.pi / 2]))
    out = _rotated(np.array([[1.0, 0.0]]), np.array([1]), ang)
    assert np.max(np.abs(out - np.array([[0.0, 1.0]]))) < 1e-12


def test_rotate_shift_invariance_oracle():
    # direct evaluation over shifts s in {-3..3}, seed 11
    rng = Rng(11)
    q = rng.normal((1, 6))
    k = rng.normal((1, 6))
    ang = RotaryAngles(6)
    n, m = 5, 2
    base = float((_rotated(q, [n], ang) * _rotated(k, [m], ang)).sum())
    for s in range(-3, 4):
        shifted = float((_rotated(q, [n + s], ang) * _rotated(k, [m + s], ang)).sum())
        assert abs(base - shifted) < 1e-10


def test_rotate_norm_preservation():
    rng = Rng(3)
    x = rng.normal((7, 12))
    for pos in ([0, 1, 5, 9, 100, 1000, 54321],):
        out = _rotated(x, pos, RotaryAngles(12))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1), np.linalg.norm(x, axis=-1), atol=1e-10, rtol=0
        )


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_rotate_norm_preserved_property(p0, half):
    d = 2 * half
    x = Rng(17).normal((3, d))
    out = _rotated(x, [p0, p0 + 1, p0 + 7], RotaryAngles(d))
    assert np.max(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(x, axis=-1))) < 1e-10


@pytest.mark.parametrize("per_sequence", [False, True])
def test_rotate_gradient_matches_finite_differences(per_sequence):
    rng = Rng(21)
    x = rng.normal((2, 3, 5, 6))  # [B, heads, L, d]
    weights = rng.normal(x.shape)
    ang = RotaryAngles(6)
    pos = np.array([[0, 2, 3, 7, 9], [1, 4, 5, 6, 11]]) if per_sequence else np.array([-2, 0, 1, 5, 6])

    def loss(t):
        return tsum(mul(rotate(t, pos, ang), weights))

    t = Tensor(x)
    out = rotate(t, pos, ang)
    assert out._parents == (t,) and out._backward is not None  # one tape node
    backward(loss(t))
    fd = finite_diff_grad(lambda: loss(Tensor(x)).value, x)
    assert rel_err(t.grad, fd) < 1e-8


def test_default_gammas_formula():
    want = [1 - 2.0 ** (-6), 1 - 2.0 ** (-7), 1 - 2.0 ** (-8), 1 - 2.0 ** (-9)]
    assert default_gammas(4).tolist() == want


def _tables(positions, angles):
    return rotation_tables(np.asarray(positions), angles)


def test_xpos_qk_single_token_identity_weights():
    x = Rng(2).normal((1, 4))
    q, k = xpos_qk(Tensor(x), Tensor(np.eye(4)), Tensor(np.eye(4)), _tables([0], RotaryAngles(4)), 1)
    assert q.shape == (1, 1, 4)
    np.testing.assert_allclose(q.value[0], x, atol=1e-15)
    np.testing.assert_allclose(k.value[0], x, atol=1e-15)


def test_xpos_qk_distance_two_quarter_turn():
    ang = RotaryAngles(2)
    object.__setattr__(ang, "thetas", np.array([np.pi / 2]))
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    q, k = xpos_qk(Tensor(x), Tensor(np.eye(2)), Tensor(np.eye(2)), _tables(np.arange(4), ang), 1)
    score = float((q.value[0, 3] * k.value[0, 1]).sum())
    assert abs(score - np.cos(np.pi)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_xpos_inner_product_depends_only_on_relative_distance(d):
    # exhaustive (n, m) enumeration, L = 6
    L = 6
    rng = Rng(23 + d)
    x = rng.normal((L, 2 * d))
    wq = rng.normal((2 * d, d))
    wk = rng.normal((2 * d, d))
    q, k = xpos_qk(Tensor(x), Tensor(wq), Tensor(wk), _tables(np.arange(L), RotaryAngles(d)), 1)
    qv, kv = q.value[0], k.value[0]
    # oracle: unrotated projections evaluated at each relative distance
    base_q, base_k = x @ wq, x @ wk
    table = {}
    for n in range(L):
        for m in range(L):
            score = float(qv[n] @ kv[m])
            rel = n - m
            # same content rows must give the same score at equal distance
            key = (rel, round(float(base_q[n] @ base_k[m]), 12))
            if n - m in table and np.allclose(base_q[n] @ base_k[m], table[n - m][1], atol=1e-12):
                assert abs(score - table[n - m][0]) < 1e-10
            table.setdefault(rel, (score, base_q[n] @ base_k[m]))


def test_xpos_shift_invariance_with_identical_content():
    # same token content everywhere isolates the positional factor
    for d in (2, 4, 8):
        rng = Rng(31 + d)
        row = rng.normal((2 * d,))
        L = 8
        x = np.tile(row, (L, 1))
        wq = rng.normal((2 * d, d))
        wk = rng.normal((2 * d, d))
        q, k = xpos_qk(Tensor(x), Tensor(wq), Tensor(wk), _tables(np.arange(L), RotaryAngles(d)), 1)
        qv, kv = q.value[0], k.value[0]
        for rel in range(0, L):
            scores = [float(qv[n] @ kv[n - rel]) for n in range(rel, L)]
            assert max(scores) - min(scores) < 1e-10


def test_xpos_rejects_nonincreasing_positions():
    """An encode rotates by the start token's 0 followed by the batch's
    timestamps, so those must be strictly increasing from 1: the batch
    refuses any others when it is built, before a model sees them."""
    for timestamps in ([[0, 3]], [[2, 2]], [[3, 2]]):  # 0 would repeat the start token's
        with pytest.raises(InputError, match="strictly increasing and >= 1"):
            SequenceBatch(values=np.zeros((1, 2, 2)), timestamps=np.array(timestamps))


def test_xpos_rejects_indivisible_head_split():
    x = Tensor(Rng(5).normal((3, 6)))
    w = Tensor(Rng(6).normal((6, 5)))  # width 5 cannot split across 2 heads
    with pytest.raises(ConfigError):
        xpos_qk(x, w, w, _tables(np.arange(3), RotaryAngles(2)), 2)
    w = Tensor(Rng(6).normal((6, 4)))
    with pytest.raises(ConfigError, match="tables built for dim 4"):
        xpos_qk(x, w, w, _tables(np.arange(3), RotaryAngles(4)), 2)


def test_merge_heads_roundtrip():
    x = Tensor(Rng(9).normal((2, 5, 12)))
    split = split_heads(x, 3)
    assert split.shape == (2, 3, 5, 4)
    merged = merge_heads(split)
    np.testing.assert_array_equal(merged.value, x.value)


# B, L, heads, dh, rows per block (None: one block), positions: shared,
# per-sequence or no rotation
PROJECTION_CASES = {
    "unbatched": (None, 6, 2, 4, None, "shared"),
    "ragged-blocks": (5, 7, 2, 4, 2, "shared"),
    "per-sequence": (4, 6, 2, 2, 3, "per-sequence"),
    "no-rotation": (5, 5, 3, 2, 2, None),
}


def _projection_inputs(case):
    B, L, heads, dh, rows, kind = PROJECTION_CASES[case]
    rng = Rng(60)
    lead = () if B is None else (B,)
    d = heads * dh + 1
    x, w = rng.normal(lead + (L, d)), rng.normal((d, heads * dh))
    positions = None
    if kind == "shared":
        positions = np.arange(2, 2 * L + 2, 2)
    elif kind == "per-sequence":
        positions = np.cumsum(rng.integers(1, 4, (B, L)), axis=1)
    weights = rng.normal(lead + (heads, L, dh))
    if B is not None:  # a padded batch: the last positions of two rows count for nothing
        weights[0, :, L // 2 :] = 0.0
        weights[-1, :, L - 1 :] = 0.0
    return x, w, heads, dh, rows, positions, weights


def _project(x, w, heads, dh, positions, taped=False):
    """The fused projection (the query of ``xpos_qk`` when rotating) or its oracle."""
    angles = None if positions is None else RotaryAngles(dh)
    if taped:
        return project_heads_taped(x, w, heads, positions, angles)
    if positions is None:
        return project_heads(x, w, heads)
    cos, sin = _tables(positions, angles)
    if positions.ndim == 2:
        cos, sin = cos[:, None], sin[:, None]  # room for the head axis
    return xpos_qk(x, w, w, (cos, sin), heads)[0]


@pytest.mark.parametrize("case", list(PROJECTION_CASES))
def test_project_heads_equals_composite_oracle(case, monkeypatch):
    """The value is bitwise matmul, head split and rotate run as Tensor ops,
    as a contiguous array, on the tape or not; gradients agree within 1e-12."""
    x, w, heads, dh, rows, positions, weights = _projection_inputs(case)
    if rows is not None:
        monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", rows * x.shape[-2] * heads * dh)
    with no_grad():
        eval_out = _project(Tensor(x), Tensor(w), heads, dh, positions)
    xs, ws = [Tensor(x), Tensor(x)], [Tensor(w), Tensor(w)]
    outs = [_project(xs[i], ws[i], heads, dh, positions, taped=i == 1) for i in range(2)]
    assert outs[0].value.flags.c_contiguous and outs[0].shape == weights.shape
    assert outs[0].value.tobytes() == outs[1].value.tobytes() == eval_out.value.tobytes()
    for o in outs:
        backward(tsum(mul(o, weights)))
    assert rel_err(xs[0].grad, xs[1].grad) < 1e-12
    assert rel_err(ws[0].grad, ws[1].grad) < 1e-12


@pytest.mark.parametrize("case", ["ragged-blocks", "per-sequence"])
def test_project_heads_gradients_match_finite_differences(case, monkeypatch):
    x, w, heads, dh, rows, positions, weights = _projection_inputs(case)
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", rows * x.shape[-2] * heads * dh)
    xt, wt = Tensor(x), Tensor(w)
    backward(tsum(mul(_project(xt, wt, heads, dh, positions), weights)))

    def loss():
        with no_grad():
            return tsum(mul(_project(Tensor(x), Tensor(w), heads, dh, positions), weights)).value

    assert rel_err(xt.grad, finite_diff_grad(loss, x)) < 1e-7
    assert rel_err(wt.grad, finite_diff_grad(loss, w)) < 1e-7


def test_xpos_qk_shares_its_tables_and_keeps_only_its_input():
    """q and k are one node each over (x, w), and the tape keeps no
    product, head split or rotation of them."""
    rng = Rng(61)
    x, wq, wk = Tensor(rng.normal((2, 5, 4))), Tensor(rng.normal((4, 4))), Tensor(rng.normal((4, 4)))
    q, k = xpos_qk(x, wq, wk, _tables(np.arange(5), RotaryAngles(2)), 2)
    assert q._parents == (x, wq) and k._parents == (x, wk)
    cells = [c.cell_contents for c in q._backward.__closure__]
    kept = [c for c in cells if isinstance(c, np.ndarray) and c.size >= x.value.size]
    assert all(a is x.value or np.shares_memory(a, x.value) for a in kept)
