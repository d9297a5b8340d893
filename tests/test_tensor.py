import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt import tensor as T
from tsgpt.errors import ContractError, ShapeError, StateError

from oracles import finite_diff_grad, rel_err


def test_matmul_identity():
    m = T.Rng(0).normal((3, 3))
    out = T.matmul(Tns(np.eye(3)), Tns(m))
    np.testing.assert_array_equal(out.value, m)


def Tns(x):
    return T.Tensor(x)


def test_matmul_zero():
    a = Tns([[1.0, 2.0], [3.0, 4.0]])
    b = Tns([[0.0], [0.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.value, [[0.0], [0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = T.Rng(7)
    a = rng.normal((4, 5))
    b = rng.normal((5, 3))
    # independent oracle: explicit triple loop
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(Tns(a), Tns(b)).value
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as ei:
        T.matmul(Tns(np.zeros((2, 3))), Tns(np.zeros((4, 2))))
    assert "(2, 3)" in str(ei.value) and "(4, 2)" in str(ei.value)


def test_backward_sum_gives_ones():
    p = Tns(np.arange(12.0).reshape(3, 4))
    T.backward(T.tsum(p))
    np.testing.assert_array_equal(p.grad, np.ones((3, 4)))


def test_backward_quadratic_gives_2p():
    p = Tns(np.arange(6.0).reshape(2, 3))
    T.backward(T.tsum(T.mul(p, p)))
    np.testing.assert_allclose(p.grad, 2.0 * p.value, rtol=0, atol=0)


def test_backward_rejects_nonscalar():
    p = Tns(np.ones(3))
    with pytest.raises(ContractError):
        T.backward(T.mul(p, 2.0))


def test_backward_visits_each_node_once():
    p = Tns(np.ones(4))
    q = T.mul(p, 3.0)
    calls = {"n": 0}
    orig = q._backward

    def counting(g):
        calls["n"] += 1
        orig(g)

    q._backward = counting
    # diamond: q feeds two consumers
    loss = T.tsum(T.add(q, T.mul(q, q)))
    T.backward(loss)
    assert calls["n"] == 1
    np.testing.assert_allclose(p.grad, 3.0 * (1.0 + 2.0 * q.value), atol=1e-15)


def _fd_check(build, arrs, tol=1e-4, h=1e-5):
    """build(tensors) -> scalar Tensor; checks grads for every input."""
    tensors = [Tns(a) for a in arrs]
    loss = build(*tensors)
    T.backward(loss)
    for a, t in zip(arrs, tensors):
        fd = finite_diff_grad(lambda: build(*[Tns(x) for x in arrs]).value, a, h=h)
        assert t.grad.shape == a.shape
        assert rel_err(t.grad, fd) < tol


def test_backward_rejects_loss_that_recorded_nothing():
    x = Tns(np.ones(3))
    with T.no_grad():
        loss = T.tsum(x)
    with pytest.raises(ContractError, match="recorded no operations"):
        T.backward(loss)
    with pytest.raises(ContractError):
        T.backward(Tns(np.array(2.0)))  # a leaf
    assert x.grad is None


def test_no_grad_records_no_tape_and_nests():
    x = Tns(np.arange(3.0))
    with T.no_grad():
        with T.no_grad():
            inner = T.mul(x, 2.0)
        assert not T._grad_enabled
        outer = T.add(x, 1.0)
    assert T._grad_enabled
    for t in (inner, outer):
        assert t._parents == () and t._backward is None
    np.testing.assert_array_equal(inner.value, [0.0, 2.0, 4.0])
    np.testing.assert_array_equal(outer.value, [1.0, 2.0, 3.0])
    taped = T.mul(x, 2.0)
    assert taped._parents == (x,) and taped._backward is not None


def test_no_grad_restores_switch_after_exception():
    with pytest.raises(ShapeError):
        with T.no_grad():
            T.add(Tns(np.ones(2)), Tns(np.ones(3)))
    assert T._grad_enabled
    with pytest.raises(ShapeError):
        with T.no_grad():
            with T.no_grad():
                T.add(Tns(np.ones(2)), Tns(np.ones(3)))
    assert T._grad_enabled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_elementwise_suite(seed):
    rng = T.Rng(seed)
    x = rng.normal((3, 4))
    y = rng.normal((3, 4))
    _fd_check(lambda a, b: T.tsum(T.mul(T.add(a, b), T.sub(a, b))), [x, y])
    _fd_check(lambda a: T.tsum(T.swish(a)), [x])
    _fd_check(lambda a: T.tsum(T.power(T.add(T.mul(a, a), 1.0), 0.5)), [x])
    _fd_check(lambda a: T.tsum(T.log_softmax(a)), [x])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gradients_matmul_and_shapes(seed):
    rng = T.Rng(seed)
    a = rng.normal((2, 3, 4))
    b = rng.normal((4, 5))
    _fd_check(lambda x, y: T.tsum(T.matmul(x, y)), [a, b])
    _fd_check(lambda x: T.tsum(T.mul(T.swapaxes(x, -1, -2), 2.0)), [a])
    _fd_check(lambda x: T.tsum(T.reshape(x, (6, 4))), [a])
    _fd_check(lambda x: T.tsum(T.power(x[..., 1:3, :], 2.0)), [a])
    _fd_check(lambda x, y: T.tsum(T.concat([x, T.matmul(x, T.matmul(y, T.swapaxes(y, -1, -2)))], axis=-1)), [a, b])
    _fd_check(lambda x: T.tsum(T.broadcast_to(T.tsum(x, axis=1, keepdims=True), x.shape)), [a])


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_gradients_norms_and_convs(seed):
    rng = T.Rng(seed)
    x = rng.normal((2, 5, 4))
    gain = rng.normal((4,), scale=0.5) + 1.0
    bias = rng.normal((4,), scale=0.2)
    _fd_check(lambda a, g, b: T.tsum(T.layer_norm(a, g, b)), [x, gain, bias])

    wdw = rng.normal((4, 3))
    bdw = rng.normal((4,))
    _fd_check(lambda a, w, b: T.tsum(T.swish(T.depthwise_conv1d(a, w, b))), [x, wdw, bdw])

    wc = rng.normal((6, 4, 3))
    bc = rng.normal((6,))
    _fd_check(lambda a, w, b: T.tsum(T.conv1d(a, w, b, stride=2, pad_left=2)), [x, wc, bc])

    def bn_loss(a, g, b):
        st_ = T.BatchNormState()
        return T.tsum(T.batch_norm(a, g, b, st_, train=True, update_stats=False))

    _fd_check(bn_loss, [x, gain, bias])

    valid = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0]], dtype=np.float64)

    def bn_masked_loss(a, g, b):
        st_ = T.BatchNormState()
        out = T.batch_norm(a, g, b, st_, train=True, update_stats=False, valid=valid)
        return T.tsum(T.mul(out, valid[..., None]))

    _fd_check(bn_masked_loss, [x, gain, bias])


def test_swish_at_zero():
    assert T.swish(Tns(np.zeros(3))).value.tolist() == [0.0, 0.0, 0.0]


def test_layer_norm_constant_row_is_zero_before_affine():
    x = Tns(np.full((2, 6), 3.7))
    out = T.layer_norm(x, np.ones(6), np.zeros(6))
    assert np.max(np.abs(out.value)) < 1e-10


def test_layer_norm_standardizes_rows():
    x = Tns(T.Rng(11).normal((4, 16), scale=3.0))
    out = T.layer_norm(x, np.ones(16), np.zeros(16)).value
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4  # eps-limited


def test_batch_norm_train_then_eval_matches_with_momentum_one():
    rng = T.Rng(13)
    x = rng.normal((3, 7, 5), scale=2.0)
    gain = rng.normal((5,)) + 1.0
    bias = rng.normal((5,))
    state = T.BatchNormState(momentum=1.0)
    train_out = T.batch_norm(Tns(x), Tns(gain), Tns(bias), state, train=True)
    eval_out = T.batch_norm(Tns(x), Tns(gain), Tns(bias), state, train=False)
    assert np.max(np.abs(train_out.value - eval_out.value)) < 1e-6
    # oracle: recompute statistics by hand
    mu = x.reshape(-1, 5).mean(axis=0)
    var = x.reshape(-1, 5).var(axis=0)
    want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.max(np.abs(train_out.value - want)) < 1e-12


def test_batch_norm_eval_without_stats_raises():
    state = T.BatchNormState()
    with pytest.raises(StateError):
        T.batch_norm(Tns(np.ones((2, 3))), np.ones(3), np.zeros(3), state, train=False)


def test_rng_determinism_and_child_streams():
    a = T.Rng(99).normal((4, 4))
    b = T.Rng(99).normal((4, 4))
    assert a.tobytes() == b.tobytes()
    c1 = T.Rng(99).child("weights").normal((4,))
    c2 = T.Rng(99).child("weights").normal((4,))
    d = T.Rng(99).child("data").normal((4,))
    assert c1.tobytes() == c2.tobytes()
    assert c1.tobytes() != d.tobytes()


def test_ndar1_roundtrip_exact():
    rng = T.Rng(5)
    for shape in [(), (3,), (2, 3, 4)]:
        a = rng.normal(shape)
        buf = io.BytesIO()
        T.write_ndar1(buf, a)
        buf.seek(0)
        back = T.read_ndar1(buf)
        assert back.shape == a.shape
        assert back.tobytes() == a.tobytes()


def test_ndar1_bad_magic():
    with pytest.raises(ShapeError):
        T.read_ndar1(io.BytesIO(b"WRONG" + b"\x00" * 16))


@given(
    st.sampled_from([(3, 1), (1, 4), (3, 4), (1, 1)]),
    st.sampled_from([(3, 4), (4,), (1, 4)]),
)
@settings(max_examples=20, deadline=None)
def test_broadcasting_trailing_alignment(sa, sb):
    a, b = np.ones(sa), np.ones(sb)
    out = T.add(Tns(a), Tns(b))
    assert out.shape == np.broadcast_shapes(sa, sb)


def test_broadcast_violation_raises_not_clips():
    with pytest.raises(ShapeError):
        T.add(Tns(np.ones((3, 2))), Tns(np.ones((3, 4))))


def test_grad_shape_matches_value_shape_after_broadcast_graph():
    a = Tns(np.ones((3, 1)))
    b = Tns(np.ones((1, 4)))
    T.backward(T.tsum(T.mul(a, b)))
    assert a.grad.shape == (3, 1) and b.grad.shape == (1, 4)
