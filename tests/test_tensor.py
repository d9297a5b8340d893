import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt import tensor as T
from tsgpt.errors import ContractError, DataError, ShapeError, StateError

from oracles import (
    add,
    assert_grads_own_memory,
    batch_norm,
    broadcast_to,
    concat,
    depthwise_conv1d,
    finite_diff_grad,
    layer_norm_grad_reference,
    layer_norm_reference,
    linear_swish_grad_reference,
    rel_err,
    reshape,
    swish_grad_reference,
    swish_reference,
)


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
    loss = T.tsum(add(q, T.mul(q, q)))
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


def test_backward_consumes_the_tape():
    x = Tns(np.arange(1.0, 4.0))
    h = T.mul(x, x)
    loss = T.tsum(h)
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0 * x.value)  # the leaf keeps its gradient
    for node in (h, loss):
        assert node.grad is None and node._parents == ()
        with pytest.raises(ContractError, match="already consumed"):
            node._backward(np.ones(node.shape))
    # sweeping the same graph again names the cause instead of "recorded no operations"
    with pytest.raises(ContractError, match="already consumed"):
        T.backward(loss)
    # a new loss on a swept intermediate raises instead of silently dropping x's gradient
    x.grad = None
    with pytest.raises(ContractError, match="already consumed"):
        T.backward(T.tsum(T.mul(h, 3.0)))
    assert x.grad is None


def test_no_grad_records_no_tape_and_nests():
    x = Tns(np.arange(3.0))
    with T.no_grad():
        with T.no_grad():
            inner = T.mul(x, 2.0)
        assert not T._grad_enabled
        outer = add(x, 1.0)
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
            add(Tns(np.ones(2)), Tns(np.ones(3)))
    assert T._grad_enabled
    with pytest.raises(ShapeError):
        with T.no_grad():
            with T.no_grad():
                add(Tns(np.ones(2)), Tns(np.ones(3)))
    assert T._grad_enabled


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradients_elementwise_suite(seed):
    rng = T.Rng(seed)
    x = rng.normal((3, 4))
    y = rng.normal((3, 4))
    _fd_check(lambda a, b: T.tsum(T.mul(add(a, b), T.sub(a, b))), [x, y])
    _fd_check(lambda a: T.tsum(T.swish(a)), [x])
    _fd_check(lambda a: T.tsum(T.log_softmax(a)), [x])


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_gradients_matmul_and_shapes(seed):
    rng = T.Rng(seed)
    a = rng.normal((2, 3, 4))
    b = rng.normal((4, 5))
    _fd_check(lambda x, y: T.tsum(T.matmul(x, y)), [a, b])
    _fd_check(lambda x: T.tsum(T.mul(T.swapaxes(x, -1, -2), 2.0)), [a])
    _fd_check(lambda x: T.tsum(reshape(x, (6, 4))), [a])
    _fd_check(lambda x: T.tsum(T.mul(x[..., 1:3, :], x[..., 1:3, :])), [a])
    _fd_check(lambda x, y: T.tsum(concat([x, T.matmul(x, T.matmul(y, T.swapaxes(y, -1, -2)))], axis=-1)), [a, b])
    _fd_check(lambda x: T.tsum(broadcast_to(T.tsum(x, axis=1)[:, None], x.shape)), [a])


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_gradients_norms_and_convs(seed):
    rng = T.Rng(seed)
    x = rng.normal((2, 5, 4))
    gain = rng.normal((4,), scale=0.5) + 1.0
    bias = rng.normal((4,), scale=0.2)
    _fd_check(lambda a, g, b: T.tsum(T.layer_norm(a, g, b)), [x, gain, bias])

    wdw = rng.normal((4, 3))
    _fd_check(lambda a, w: T.tsum(T.swish(depthwise_conv1d(a, w))), [x, wdw])

    wc = rng.normal((6, 4, 3))
    bc = rng.normal((6,))
    _fd_check(lambda a, w, b: T.tsum(T.conv1d(a, w, b, stride=2, pad_left=2)), [x, wc, bc])

    # A plain sum of batch-norm outputs has zero gradient in x; weight them.
    weights = rng.normal(x.shape)

    def bn_loss(a, g, b):
        st_ = T.BatchNormState()
        return T.tsum(T.mul(batch_norm(a, g, b, st_, train=True), weights))

    _fd_check(bn_loss, [x, gain, bias])

    valid = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 0]], dtype=np.float64)

    def bn_masked_loss(a, g, b):
        # excluded positions are normalized too: their outputs carry gradient
        st_ = T.BatchNormState()
        out = batch_norm(a, g, b, st_, train=True, valid=valid)
        return add(T.tsum(T.mul(out, valid[..., None] * weights)), T.tsum(T.mul(out, 1.0 - valid[..., None])))

    _fd_check(bn_masked_loss, [x, gain, bias])

    running = T.BatchNormState()
    running.running_mean, running.running_var = rng.normal((4,)), rng.uniform((4,), 0.5, 2.0)
    _fd_check(lambda a, g, b: T.tsum(batch_norm(a, g, b, running, train=False)), [x, gain, bias])


def test_linear_is_the_composite_bitwise_in_one_node():
    rng = T.Rng(10)
    x, w, b, weights = rng.normal((2, 5, 4)), rng.normal((4, 6)), rng.normal((6,)), rng.normal((2, 5, 6))

    def composite(a, wt, bt):
        return add(T.matmul(a, wt), bt)

    fused = [Tns(v) for v in (x, w, b)]
    ref = [Tns(v) for v in (x, w, b)]
    out = T.linear(*fused)
    assert out._parents == tuple(fused)
    np.testing.assert_array_equal(out.value, composite(*ref).value)
    with T.no_grad():
        np.testing.assert_array_equal(T.linear(*fused).value, out.value)
    T.backward(T.tsum(T.mul(out, weights)))
    T.backward(T.tsum(T.mul(composite(*ref), weights)))
    for f, r in zip(fused, ref):
        np.testing.assert_array_equal(f.grad, r.grad)
    _fd_check(lambda a, wt, bt: T.tsum(T.mul(T.linear(a, wt, bt), weights)), [x, w, b])
    with pytest.raises(ShapeError, match="linear: inner dims differ"):
        T.linear(Tns(x), Tns(w.T), Tns(b))
    for bad in (np.ones(7), np.ones((3, 2, 5, 6))):
        with pytest.raises(ShapeError, match="linear: bias .* does not broadcast"):
            T.linear(Tns(x), Tns(w), Tns(bad))


def test_getitem_gradient_accumulates_repeated_and_sliced_entries():
    x = Tns(np.arange(4.0))
    T.backward(T.tsum(x[[1, 1, 2]]))
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 1.0, 0.0])

    # basic slices of one parent, overlapping each other and an elementwise use
    y = Tns(np.arange(12.0).reshape(3, 4))
    T.backward(add(add(T.tsum(T.mul(y[0:2, 1:3], 2.0)), T.tsum(y[1])), T.tsum(T.mul(y, y[..., -1:]))))
    want = 2.0 * np.pad(np.ones((2, 2)), ((0, 1), (1, 1))) + np.eye(3)[1][:, None] + y.value[:, -1:]
    want[:, -1] += y.value.sum(axis=1)
    np.testing.assert_array_equal(y.grad, want)

    rng = T.Rng(9)

    def squared_slice_sum(a):
        s = add(a[1:, ::2], a[[0, 0], 1::2])
        return T.tsum(T.mul(s, s))

    _fd_check(squared_slice_sum, [rng.normal((3, 4))])
    _fd_check(lambda a: T.tsum(T.mul(a[:, [2, 0, 2]], a[..., 1:2])), [rng.normal((2, 3))])


def test_train_batch_norm_records_one_node():
    x, gain, bias = Tns(T.Rng(3).normal((2, 5, 4))), Tns(np.ones(4)), Tns(np.zeros(4))
    for valid in (None, np.array([[1, 1, 0, 0, 0], [1, 1, 1, 1, 0]], dtype=np.float64)):
        out = batch_norm(x, gain, bias, T.BatchNormState(), train=True, valid=valid)
        assert out._parents == (x, gain, bias) and out._backward is not None


def test_swish_at_zero():
    assert T.swish(Tns(np.zeros(3))).value.tolist() == [0.0, 0.0, 0.0]


def test_layer_norm_constant_row_is_zero_before_affine():
    x = Tns(np.full((2, 6), 3.7))
    out = T.layer_norm(x, Tns(np.ones(6)), Tns(np.zeros(6)))
    assert np.max(np.abs(out.value)) < 1e-10


def test_layer_norm_standardizes_rows():
    x = Tns(T.Rng(11).normal((4, 16), scale=3.0))
    out = T.layer_norm(x, Tns(np.ones(16)), Tns(np.zeros(16))).value
    assert np.max(np.abs(out.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(out.var(axis=-1) - 1.0)) < 1e-4  # eps-limited


def test_batch_norm_train_then_eval_matches_with_momentum_one():
    rng = T.Rng(13)
    x = rng.normal((3, 7, 5), scale=2.0)
    gain = rng.normal((5,)) + 1.0
    bias = rng.normal((5,))
    state = T.BatchNormState()  # the first train pass copies the batch statistics in
    train_out = batch_norm(Tns(x), Tns(gain), Tns(bias), state, train=True)
    eval_out = batch_norm(Tns(x), Tns(gain), Tns(bias), state, train=False)
    assert np.max(np.abs(train_out.value - eval_out.value)) < 1e-6
    # oracle: recompute statistics by hand
    mu = x.reshape(-1, 5).mean(axis=0)
    var = x.reshape(-1, 5).var(axis=0)
    want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.max(np.abs(train_out.value - want)) < 1e-12


def test_layer_norm_array_matches_numpy_mean_and_var_bitwise():
    x = T.Rng(12).normal((3, 5, 16), scale=3.0) + 7.0
    gain, bias = T.Rng(13).normal((16,)), T.Rng(14).normal((16,))
    mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    want = (x - mu) * (1.0 / np.sqrt(var + T.LAYER_NORM_EPS)) * gain + bias
    assert T.layer_norm_array(x, gain, bias)[0].tobytes() == want.tobytes()


def _kernel_inputs(shape, seed):
    """Normal draws at three scales plus the values a kernel must not
    mishandle: signed zeros, tiny and huge magnitudes, infinities."""
    x = T.Rng(seed).normal(shape) * np.array([1e-3, 1.0, 40.0])[np.arange(np.prod(shape)) % 3].reshape(shape)
    flat = x.reshape(-1)
    flat[:8] = [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf][: flat.size]
    return x


@pytest.mark.parametrize("shape", [(8, 1, 128), (1, 1, 32), (3, 17, 16)])
def test_in_place_kernels_are_their_plain_expressions_bitwise(shape):
    x = _kernel_inputs(shape, 20)
    g = T.Rng(21).normal(shape)
    with np.errstate(invalid="ignore"):  # -inf * 0 and inf * 0: NaN on both sides
        out, s = T.swish_array(x)
        ref_out, ref_s = swish_reference(x)
        assert out.tobytes() == ref_out.tobytes() and s.tobytes() == ref_s.tobytes()
        slope = T.swish_grad_array(g, out, s)
        assert slope.tobytes() == swish_grad_reference(g, x, s).tobytes()
        assert slope.tobytes() == linear_swish_grad_reference(g, out, s).tobytes()

    x = np.nan_to_num(x, posinf=50.0, neginf=-50.0)
    gain, bias = T.Rng(22).normal(shape[-1:]), T.Rng(23).normal(shape[-1:])
    got, want = T.layer_norm_array(x, gain, bias), layer_norm_reference(x, gain, bias)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    _, xhat, inv = want
    assert T.layer_norm_grad_array(g, xhat, inv, gain).tobytes() == layer_norm_grad_reference(g, xhat, inv, gain).tobytes()

    w, b = T.Rng(24).normal((shape[-1], 24)), T.Rng(25).normal((24,))
    xt, wt, bt = Tns(x), Tns(w), Tns(b)
    y = T.linear(xt, wt, bt)
    assert y.value.tobytes() == (x @ w + b).tobytes()
    gy = T.Rng(26).normal(y.shape)
    T.backward(T.tsum(T.mul(y, gy)))
    assert xt.grad.tobytes() == (gy @ w.T).tobytes()
    assert bt.grad.tobytes() == gy.sum(axis=(0, 1)).tobytes()


def _traced(build):
    """(result, peak bytes, bytes still held) of ``build()``, traced."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, held - base


def test_linear_and_layer_norm_forwards_allocate_only_what_they_keep(monkeypatch):
    rng = T.Rng(27)
    x, w, b = Tns(rng.normal((8, 1025, 32))), Tns(rng.normal((32, 128))), Tns(rng.normal((128,)))
    full = 8 * 1025 * 128 * 8
    y, peak, held = _traced(lambda: T.linear(x, w, b))
    assert full <= held < 2 * full  # the output, and no bias-free copy of it
    # the in-place bias add borrows one ufunc buffer of numpy's, a fixed size
    assert peak - held < 8 * np.getbufsize() + 4096
    rows = 8 * 1025 * 8  # one row statistic: the means and inv are this size
    block = 1025 * 32 * 8  # one batch row per block, since 1025 * 32 > BLOCK_ELEMENTS
    assert 1025 * 32 > T.BLOCK_ELEMENTS
    for threads in (1, 2):
        monkeypatch.setattr(T, "BLOCK_THREADS", threads)
        T.layer_norm(x, Tns(np.ones(32)), Tns(np.zeros(32)))  # the worker starts off the trace
        y, peak, held = _traced(lambda: T.layer_norm(x, Tns(np.ones(32)), Tns(np.zeros(32))))
        assert 4 * rows * 8 <= held < 2 * 4 * rows * 8  # the output; xhat is recomputed in the backward
        # one block's xhat, output and inv, beside what one unblocked call
        # allowed for; a second running thread adds its own block's, with the
        # one ufunc buffer of numpy's that its call borrows and the hand-off's
        # few small objects
        extra = (threads - 1) * (2 * block + 1025 * 8 + 8 * np.getbufsize() + 4096)
        assert peak - held <= 2 * block + 1025 * 8 + rows + 4096 + extra


def test_gradients_own_their_memory_in_shared_and_diamond_graphs():
    rng = T.Rng(28)
    x = Tns(rng.normal((3, 4)))
    T.backward(T.tsum(add(x, x)))
    np.testing.assert_array_equal(x.grad, np.full((3, 4), 2.0))
    assert_grads_own_memory([x])

    # a diamond: x and y meet in h, h is used twice by add and twice by mul
    x, y = Tns(rng.normal((3, 4))), Tns(rng.normal((3, 4)))
    h = add(x, y)
    z = add(h, h)
    T.backward(T.tsum(T.mul(z, z)))
    want = 8.0 * (x.value + y.value)
    assert x.grad.tobytes() == want.tobytes() and y.grad.tobytes() == want.tobytes()
    assert_grads_own_memory([x, y])

    # a full-shape bias takes the node's own gradient; a square matmul of one tensor
    x, w = Tns(rng.normal((2, 3, 3))), Tns(rng.normal((3, 3)))
    b, c = Tns(rng.normal((2, 3, 3))), Tns(rng.normal((2, 3, 3)))
    lin = T.linear(x, w, b)
    T.backward(T.tsum(add(add(lin, T.matmul(x, x)), T.sub(c, lin))))
    assert_grads_own_memory([x, w, b, c])
    np.testing.assert_array_equal(b.grad, np.zeros((2, 3, 3)))
    np.testing.assert_array_equal(c.grad, np.ones((2, 3, 3)))


def test_batch_norm_eval_without_stats_raises():
    state = T.BatchNormState()
    with pytest.raises(StateError):
        batch_norm(Tns(np.ones((2, 3))), np.ones(3), np.zeros(3), state, train=False)


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
    with pytest.raises(DataError):
        T.read_ndar1(io.BytesIO(b"WRONG" + b"\x00" * 16))


def test_ndar1_every_truncation_and_an_oversized_dim_are_data_errors():
    buf = io.BytesIO()
    T.write_ndar1(buf, T.Rng(6).normal((2, 3)))
    record = buf.getvalue()
    for cut in range(len(record)):
        with pytest.raises(DataError):
            T.read_ndar1(io.BytesIO(record[:cut]))
    huge = record[:9] + (2**62).to_bytes(8, "little") + record[17:]
    with pytest.raises(DataError, match="truncated"):
        T.read_ndar1(io.BytesIO(huge))


@given(
    st.sampled_from([(3, 1), (1, 4), (3, 4), (1, 1)]),
    st.sampled_from([(3, 4), (4,), (1, 4)]),
)
@settings(max_examples=20, deadline=None)
def test_broadcasting_trailing_alignment(sa, sb):
    a, b = np.ones(sa), np.ones(sb)
    out = add(Tns(a), Tns(b))
    assert out.shape == np.broadcast_shapes(sa, sb)


def test_broadcast_violation_raises_not_clips():
    with pytest.raises(ShapeError):
        add(Tns(np.ones((3, 2))), Tns(np.ones((3, 4))))


def test_grad_shape_matches_value_shape_after_broadcast_graph():
    a = Tns(np.ones((3, 1)))
    b = Tns(np.ones((1, 4)))
    T.backward(T.tsum(T.mul(a, b)))
    assert a.grad.shape == (3, 1) and b.grad.shape == (1, 4)
