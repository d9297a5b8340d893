"""Shared test helpers: a central-finite-difference oracle, the chunk-wise
retention loop recorded op by op as the fused op's gradient oracle, a
taped decoder-stack oracle for eval encodes, and two oracles for streaming
generation: re-encoding the whole prefix per token, and the recurrent
decode step run through the Tensor ops."""

import numpy as np

from tsgpt.positional import _split_heads, merge_heads, xpos_qk
from tsgpt.retention import (
    DecayMask,
    RetentionState,
    _check_timestamps,
    _decay_factor,
    _decay_rows,
    retention_recurrent,
)
from tsgpt.tensor import (
    Tensor,
    add,
    batch_norm,
    broadcast_to,
    concat,
    depthwise_conv1d,
    layer_norm,
    matmul,
    mul,
    no_grad,
    swapaxes,
    swish,
)


def finite_diff_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. the entries of x.

    loss_fn must recompute the loss from scratch reading the (mutated) x
    buffer; this stays independent of any recorded graph.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(loss_fn())
        flat[i] = orig - h
        fm = float(loss_fn())
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise error relative to unit scale (absolute below 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def retention_chunkwise_taped(q, k, v, timestamps, gamma, plan, initial=None):
    """Oracle for ``retention_chunkwise``: the same per-chunk loop recorded
    op by op on the tape (slices, matmuls, masks, state updates), so its
    gradients come from the generic ops' backwards."""
    q, k, v = (x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v))
    L = q.shape[-2]
    t = np.arange(L, dtype=np.int64) if timestamps is None else _check_timestamps(timestamps)
    batched = t.ndim == 2
    s, prev_last = (None, None) if initial is None else (initial.s, np.asarray(initial.last_t))
    outs = []
    for lo, hi in zip(plan.boundaries[:-1], plan.boundaries[1:]):
        t_c = t[..., lo:hi]
        q_c, k_c, v_c = q[..., lo:hi, :], k[..., lo:hi, :], v[..., lo:hi, :]
        mask_c = DecayMask.build(gamma, timestamps=t_c)
        out_c = matmul(mul(matmul(q_c, swapaxes(k_c, -1, -2)), mask_c.matrix), v_c)
        if s is not None:
            zeta = _decay_rows(gamma, t_c - prev_last[..., None], batched)
            out_c = add(out_c, mul(matmul(q_c, s), zeta))
        outs.append(out_c)
        last = t_c[..., -1]
        tail = _decay_rows(gamma, last[..., None] - t_c, batched)
        chunk_s = matmul(swapaxes(k_c, -1, -2), mul(v_c, tail))
        s = chunk_s if s is None else add(chunk_s, mul(s, _decay_factor(gamma, last - prev_last)))
        prev_last = last
    out = outs[0] if len(outs) == 1 else concat(outs, axis=-2)
    return out, RetentionState(s, np.asarray(prev_last))


def taped_stack(model, feats: np.ndarray, pos: np.ndarray, valid=None, form=None) -> Tensor:
    """Oracle for ``Model.encode(train=False)``: the start token, the input
    projection and each ``DecoderLayer.forward`` in eval mode, recorded on
    the tape.  ``pos`` and ``valid`` include the start token's column."""
    B = feats.shape[0]
    emb = add(matmul(Tensor(feats), model.w_in), model.b_in)
    x = concat([broadcast_to(model.sos, (B, 1, model.cfg.d_model)), emb], axis=1)
    for layer in model.layers:
        x, _ = layer.forward(x, pos, train=False, form=form, valid=valid)
    return x


def generate_by_reencoding(model, prompt, horizon: int) -> np.ndarray:
    """Oracle for ``Model.generate``: every emitted token re-encodes the
    whole prefix with the parallel retention form.

    Emitted tokens re-enter after the tokenizer, as model inputs at token
    granularity, the way streaming generation feeds them back.
    """
    tokens = model._token_features(prompt)[0].value
    preds = []
    for _ in range(horizon):
        feats = np.concatenate([tokens] + preds, axis=1)
        x = taped_stack(model, feats, np.arange(feats.shape[1] + 1, dtype=np.int64), form="parallel")
        preds.append(model._head(x[:, -1:, :]).value)
    return np.concatenate(preds, axis=1)


def _tconv_tensor_step(m, x_t: Tensor, buf):
    """``TemporalConvModule.step`` through the Tensor ops: the depth-wise
    stage convolves buffer plus token and keeps the last output row."""
    h = layer_norm(x_t, m.ln_gain, m.ln_bias)
    window = np.concatenate([buf, h.value], axis=1)
    out = depthwise_conv1d(Tensor(window), m.dw_w)
    h = matmul(out[:, out.shape[1] - 1 :, :], m.pw_w)
    h = batch_norm(h, m.bn_gain, m.bn_bias, m.bn_state, train=False)
    return add(x_t, swish(h)), window[:, 1:, :]


def _layer_tensor_step(layer, x_t: Tensor, position: int, state: RetentionState, buf):
    """``DecoderLayer.step`` through the Tensor ops: rotary q/k, one
    recurrent retention update, the temporal block and the feed-forward."""
    cfg = layer.cfg
    pos = np.array([position], dtype=np.int64)
    h = layer_norm(x_t, layer.ln1_gain, layer.ln1_bias)
    q, k = xpos_qk(h, layer.w_q, layer.w_k, pos, layer.angles, cfg.heads, apply_rotation=not cfg.no_rotation)
    v = _split_heads(matmul(h, layer.w_v), cfg.heads)
    out, state = retention_recurrent(q, k, v, pos, layer.gammas, initial=state)
    r = layer_norm(merge_heads(out), layer.ret_gain, layer.ret_bias)
    x = add(x_t, add(matmul(r, layer.w_o), layer.b_o))
    if layer.tconv is not None:
        x, buf = _tconv_tensor_step(layer.tconv, x, buf)
    return add(x, layer._ffn(x)), state, buf


def generate_by_tensor_steps(model, prompt, horizon: int) -> np.ndarray:
    """Oracle for ``Model.generate``: the same prompt encode, then each
    emitted token runs the recurrent step of every layer through the Tensor
    ops instead of on plain arrays."""
    with no_grad():
        capture = []
        x, states, pos = model.encode(prompt, train=False, want_states=True, capture=capture)
        bufs = [cap.get("dw_input") for cap in capture]
        position = int(pos[-1])
        preds = [model._head(x[:, -1:, :]).value]
        for _ in range(horizon - 1):
            position += 1
            h = add(matmul(Tensor(preds[-1]), model.w_in), model.b_in)
            for li, layer in enumerate(model.layers):
                h, states[li], bufs[li] = _layer_tensor_step(layer, h, position, states[li], bufs[li])
            preds.append(model._head(h).value)
    return np.concatenate(preds, axis=1)
