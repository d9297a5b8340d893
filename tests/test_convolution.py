import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgpt.convolution import (
    CONV_VARIANTS,
    ConvSubsampler,
    TemporalConvModule,
    subsampled_length,
)
from tsgpt.errors import ConfigError, InputError
from tsgpt.tensor import Rng, Tensor, depthwise_conv1d


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


def test_temporal_conv_zero_weights_is_pure_residual():
    m = TemporalConvModule(4, 5, "depthwise_pointwise", Rng(4))
    for _, w, _ in m.stages:
        w.value[:] = 0.0
    x = Rng(5).normal((2, 6, 4))
    out = m.forward(Tensor(x), train=True)
    assert np.max(np.abs(out.value - x)) < 1e-12


def test_temporal_conv_impulse_causality_eval_mode():
    m = TemporalConvModule(3, 5, "depthwise_pointwise", Rng(6))
    # prime batch-norm statistics on zero input so BN(0) = 0 in eval
    m.bn_state.momentum = 1.0
    m.forward(Tensor(np.zeros((1, 8, 3))), train=True)
    x = np.zeros((1, 12, 3))
    x[0, 7, 1] = 1.0
    out = m.forward(Tensor(x), train=False).value
    assert np.max(np.abs(out[0, :7])) == 0.0
    assert np.any(out[0, 7:] != 0.0)


def test_temporal_conv_eval_before_train_raises():
    m = TemporalConvModule(3, 5, "depthwise_pointwise", Rng(7))
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
    # the point-wise stage is a per-token linear map: time t output depends
    # only on time t input
    rng = Rng(9)
    m = TemporalConvModule(4, 5, "pointwise_only", Rng(10))
    m.bn_state.momentum = 1.0
    m.forward(Tensor(np.zeros((1, 8, 4))), train=True)
    x = rng.normal((1, 8, 4))
    base = m.forward(Tensor(x), train=False).value
    xp = x.copy()
    xp[0, 3] += 1.0
    pert = m.forward(Tensor(xp), train=False).value
    changed = np.any(base != pert, axis=-1)[0]
    assert changed[3]
    assert not changed[:3].any() and not changed[4:].any()


def test_variant_none_is_identity():
    m = TemporalConvModule(4, 15, "none", Rng(11))
    x = Rng(12).normal((2, 6, 4))
    out = m.forward(Tensor(x), train=True)
    np.testing.assert_array_equal(out.value, x)
    assert m.named_params() == []


def test_unknown_variant_rejected():
    with pytest.raises(ConfigError):
        TemporalConvModule(4, 15, "strided_magic", Rng(13))


@pytest.mark.parametrize("variant", CONV_VARIANTS)
def test_all_variants_preserve_shape(variant):
    rng = Rng(14)
    m = TemporalConvModule(6, 5, variant, rng)
    x = rng.normal((3, 9, 6))
    out = m.forward(Tensor(x), train=True)
    assert out.shape == x.shape


@pytest.mark.parametrize("variant", [v for v in CONV_VARIANTS if v != "none"])
def test_all_variants_causal_in_eval(variant):
    rng = Rng(15)
    m = TemporalConvModule(4, 5, variant, rng)
    m.bn_state.momentum = 1.0
    prime = rng.normal((2, 10, 4))
    m.forward(Tensor(prime), train=True)
    x = rng.normal((1, 10, 4))
    base = m.forward(Tensor(x), train=False).value
    xp = x.copy()
    xp[0, 6] += 2.0
    pert = m.forward(Tensor(xp), train=False).value
    np.testing.assert_array_equal(base[0, :6], pert[0, :6])


@pytest.mark.parametrize("variant", CONV_VARIANTS)
def test_step_continues_forward_token_by_token(variant):
    # the buffers captured from a prefix plus one step per token reproduce
    # the eval-mode forward over the whole sequence
    rng = Rng(16)
    m = TemporalConvModule(4, 5, variant, Rng(17))
    if m.bn_state is not None:
        m.forward(Tensor(rng.normal((2, 12, 4))), train=True)
    x = rng.normal((2, 9, 4))
    want = m.forward(Tensor(x), train=False).value
    capture = {}
    m.forward(Tensor(x[:, :2]), train=False, capture=capture)
    bufs = capture["dw_inputs"]
    assert all(b.shape == (2, 4, 4) for b in bufs)
    for t in range(2, 9):
        out, bufs = m.step(x[:, t : t + 1], bufs)
        np.testing.assert_allclose(out, want[:, t : t + 1], rtol=1e-12, atol=1e-12)
