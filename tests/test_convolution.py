import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt import tensor
from tsgpt.convolution import ConvDecode, ConvSubsampler, TemporalConvModule, subsampled_length
from tsgpt.errors import InputError
from tsgpt.tensor import Rng, Tensor, backward, no_grad

from oracles import depthwise_conv1d, finite_diff_grad, mul, rel_err, temporal_conv_taped, tsum


def test_length_arithmetic_headline_cases():
    assert subsampled_length(4096) == 1024
    assert subsampled_length(10) == 3  # 10 -> 5 -> 3
    assert subsampled_length(4) == 1
    for L in range(4, 200, 7):
        if L % 4 == 0:
            assert subsampled_length(L) == L // 4


@given(st.integers(min_value=4, max_value=100_000))
@settings(max_examples=200, deadline=None)
def test_length_formula_total(L):
    l1 = (L - 1) // 2 + 1
    assert subsampled_length(L) == (l1 - 1) // 2 + 1
    assert subsampled_length(L) >= 1


def test_subsampler_output_shape_matches_formula():
    rng = Rng(0)
    sub = ConvSubsampler(3, rng)
    for L in (4, 10, 17, 64):
        out = sub.forward(Tensor(rng.normal((2, L, 3))))
        assert out.shape == (2, subsampled_length(L), 3)


def test_subsampler_zero_input_zero_bias_gives_zero_tokens():
    sub = ConvSubsampler(5, Rng(1))
    out = sub.forward(Tensor(np.zeros((1, 16, 5))))
    np.testing.assert_array_equal(out.value, np.zeros((1, 4, 5)))


def test_subsampler_rejects_short_input():
    sub = ConvSubsampler(2, Rng(2))
    with pytest.raises(InputError):
        sub.forward(Tensor(np.zeros((1, 3, 2))))


def test_subsampler_is_causal_at_token_granularity():
    # token t' covers raw inputs <= 4 t'; perturbing later raw steps
    # must not change earlier tokens
    rng = Rng(3)
    sub = ConvSubsampler(2, rng)
    x = rng.normal((1, 32, 2))
    base = sub.forward(Tensor(x)).value
    xp = x.copy()
    xp[0, 21:] += 5.0  # perturb raw steps from 21 on
    pert = sub.forward(Tensor(xp)).value
    # tokens strictly before ceil(21/4) are untouched
    np.testing.assert_array_equal(base[0, :5], pert[0, :5])
    assert np.any(base[0, 5:] != pert[0, 5:])


def test_temporal_conv_parameters_are_the_six_of_its_one_layout():
    m = TemporalConvModule(4, 5, Rng(4))
    assert [n for n, _ in m.named_params()] == [
        "ln_gain", "ln_bias", "stage0_dw_w", "stage1_pw_w", "bn_gain", "bn_bias",
    ]
    assert m.dw_w.shape == (4, 5) and m.pw_w.shape == (4, 4)


def test_temporal_conv_zero_weights_is_pure_residual():
    m = TemporalConvModule(4, 5, Rng(4))
    m.dw_w.value[:] = 0.0
    m.pw_w.value[:] = 0.0
    x = Rng(5).normal((2, 6, 4))
    out = m.forward(Tensor(x), train=True)
    assert np.max(np.abs(out.value - x)) < 1e-12


def test_temporal_conv_impulse_causality_eval_mode():
    m = TemporalConvModule(3, 5, Rng(6))
    # prime batch-norm statistics on zero input so BN(0) = 0 in eval
    m.forward(Tensor(np.zeros((1, 8, 3))), train=True)
    x = np.zeros((1, 12, 3))
    x[0, 7, 1] = 1.0
    out = m.forward(Tensor(x), train=False).value
    assert np.max(np.abs(out[0, :7])) == 0.0
    assert np.any(out[0, 7:] != 0.0)


def test_temporal_conv_eval_before_train_raises():
    m = TemporalConvModule(3, 5, Rng(7))
    with pytest.raises(Exception) as ei:
        m.forward(Tensor(np.zeros((1, 8, 3))), train=False)
    assert "statistics" in str(ei.value)


def test_depthwise_stage_channel_purity():
    # perturbation oracle: output channel c reacts only to input channel c
    rng = Rng(8)
    w = rng.normal((4, 5))
    x = rng.normal((2, 10, 4))
    base = depthwise_conv1d(Tensor(x), Tensor(w)).value
    for c_pert in range(4):
        xp = x.copy()
        xp[:, :, c_pert] += rng.normal((2, 10))
        pert = depthwise_conv1d(Tensor(xp), Tensor(w)).value
        for c in range(4):
            if c == c_pert:
                assert np.any(base[:, :, c] != pert[:, :, c])
            else:
                np.testing.assert_array_equal(base[:, :, c], pert[:, :, c])


def test_pointwise_stage_time_purity():
    # with identity depth-wise taps (last tap 1, the rest 0) every other
    # part of the block is per-token, so time t output depends only on
    # time t input through the point-wise stage
    rng = Rng(9)
    m = TemporalConvModule(4, 5, Rng(10))
    m.dw_w.value[:] = 0.0
    m.dw_w.value[:, -1] = 1.0
    m.forward(Tensor(rng.normal((1, 8, 4))), train=True)
    x = rng.normal((1, 8, 4))
    base = m.forward(Tensor(x), train=False).value
    xp = x.copy()
    xp[0, 3] += 1.0
    pert = m.forward(Tensor(xp), train=False).value
    changed = np.any(base != pert, axis=-1)[0]
    assert changed[3]
    assert not changed[:3].any() and not changed[4:].any()


def test_temporal_conv_preserves_shape():
    rng = Rng(14)
    m = TemporalConvModule(6, 5, rng)
    x = rng.normal((3, 9, 6))
    out = m.forward(Tensor(x), train=True)
    assert out.shape == x.shape


def test_temporal_conv_causal_in_eval():
    rng = Rng(15)
    m = TemporalConvModule(4, 5, rng)
    prime = rng.normal((2, 10, 4))
    m.forward(Tensor(prime), train=True)
    x = rng.normal((1, 10, 4))
    base = m.forward(Tensor(x), train=False).value
    xp = x.copy()
    xp[0, 6] += 2.0
    pert = m.forward(Tensor(xp), train=False).value
    np.testing.assert_array_equal(base[0, :6], pert[0, :6])


def test_step_continues_forward_token_by_token():
    # the buffer captured from a prefix plus one step per token reproduces
    # the eval-mode forward over the whole sequence
    rng = Rng(16)
    m = TemporalConvModule(4, 5, Rng(17))
    m.forward(Tensor(rng.normal((2, 12, 4))), train=True)
    x = rng.normal((2, 9, 4))
    want = m.forward(Tensor(x), train=False).value
    capture = {}
    m.forward(Tensor(x[:, :2]), train=False, capture=capture)
    buf = capture["dw_input"]
    assert buf.shape == (2, 4, 4)
    plan = ConvDecode(m, buf)
    for t in range(2, 9):
        out = m.step(x[:, t : t + 1], plan)
        np.testing.assert_allclose(out, want[:, t : t + 1], rtol=1e-12, atol=1e-12)


def _twin_blocks(d: int, kernel: int, seed: int):
    """Two blocks with the same non-trivial parameters."""
    blocks = [TemporalConvModule(d, kernel, Rng(seed)) for _ in range(2)]
    for i, (_, p) in enumerate(blocks[0].named_params()):
        if p.value.ndim == 1:
            p.value[:] += Rng(seed).child(str(i)).normal(p.shape, scale=0.3)
    for (_, p), (_, q) in zip(blocks[0].named_params(), blocks[1].named_params()):
        q.value[:] = p.value
    return blocks


# B, L, d, kernel, rows per block (None: one block), padded
FUSED_CASES = {
    "b1": (1, 9, 4, 5, None, False),
    "ragged-blocks": (5, 7, 3, 4, 2, False),
    "padded-valid": (4, 8, 3, 5, 3, True),
    "kernel-1": (3, 6, 4, 1, 2, False),
    "kernel-longer-than-L": (3, 3, 4, 6, 2, True),
}


@pytest.mark.parametrize("case", list(FUSED_CASES))
def test_fused_block_equals_six_op_oracle(case, monkeypatch):
    """Outputs, running statistics and the capture buffer are bitwise the
    six-op composite's in train and eval mode, on the tape or not;
    gradients agree within 1e-10."""
    B, L, d, kernel, rows, padded = FUSED_CASES[case]
    if rows is not None:
        monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", rows * L * d)
    fused, ref = _twin_blocks(d, kernel, seed=20)
    rng = Rng(21)
    valid = None
    if padded:
        valid = np.ones((B, L))
        valid[0, L // 2 :] = 0.0
        valid[-1, L - 1 :] = 0.0
    # the first train pass copies the statistics in, later ones blend them
    for train, taped in ((True, True), (True, False), (False, True), (False, False)):
        x, weights = rng.normal((B, L, d)), rng.normal((B, L, d))
        xs, caps = [Tensor(x), Tensor(x)], [{}, {}]
        with contextlib.nullcontext() if taped else no_grad():
            outs = [
                fused.forward(xs[0], train=train, valid=valid, capture=caps[0]),
                temporal_conv_taped(ref, xs[1], train=train, valid=valid, capture=caps[1]),
            ]
        assert outs[0].value.tobytes() == outs[1].value.tobytes()
        assert caps[0]["dw_input"].shape == (B, kernel - 1, d)
        assert caps[0]["dw_input"].tobytes() == caps[1]["dw_input"].tobytes()
        assert fused.bn_state.running_mean.tobytes() == ref.bn_state.running_mean.tobytes()
        assert fused.bn_state.running_var.tobytes() == ref.bn_state.running_var.tobytes()
        if not taped:
            assert outs[0]._backward is None and outs[0]._parents == ()
            continue
        assert len(outs[0]._parents) == 7
        for o in outs:
            backward(tsum(mul(o, weights)))
        assert rel_err(xs[0].grad, xs[1].grad) < 1e-10
        for (n, p), (_, q) in zip(fused.named_params(), ref.named_params()):
            assert rel_err(p.grad, q.grad) < 1e-10, n
            p.grad = q.grad = None


def test_fused_block_gradients_match_finite_differences(monkeypatch):
    B, L, d, kernel = 3, 6, 3, 4
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", 2 * L * d)
    block = _twin_blocks(d, kernel, seed=22)[0]
    rng = Rng(23)
    x, weights = rng.normal((B, L, d)), rng.normal((B, L, d))
    valid = np.ones((B, L))
    valid[1, 4:] = 0.0
    xt = Tensor(x)
    backward(tsum(mul(block.forward(xt, train=True, valid=valid), weights)))

    def loss():
        with no_grad():
            return tsum(mul(block.forward(Tensor(x), train=True, valid=valid), weights)).value

    assert rel_err(xt.grad, finite_diff_grad(loss, x)) < 1e-6
    for name, p in block.named_params():
        assert rel_err(p.grad, finite_diff_grad(loss, p.value)) < 1e-6, name
