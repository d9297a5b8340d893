"""Shared test helpers: a central-finite-difference oracle, the tape ops
no package code records any more (``add``, ``concat``), the recurrent and
chunk-wise retention loops recorded op by op as gradient oracles, the
temporal convolution block as six Tensor ops (with the depth-wise
convolution and batch norm ops it needs) as that fused block's oracle, the
retention projections, the retention output glue and the feed-forward as
the composites of Tensor ops their fused nodes replace (with the rotation,
head split and merge ops they need), a taped decoder-stack oracle for eval
encodes (with the start token's broadcast op), and two oracles for
streaming generation: re-encoding the whole prefix per token, and the
recurrent decode step run through the Tensor ops.  The
plain-expression forms of the in-place kernels (swish, its slope, layer
norm and its gradient) and of the decay mask (``gamma ** gaps``) are kept
as their bitwise references, beside a check that gradients own their
memory."""

import numpy as np

from tsgpt.model import Geometry
from tsgpt.positional import RotaryAngles, rotate_array, rotation_tables
from tsgpt.retention import DecayMask, _check_timestamps, _decay_factor, _decay_rows
from tsgpt.errors import ShapeError, StateError
from tsgpt.tensor import (
    BATCH_NORM_EPS,
    BATCH_NORM_MOMENTUM,
    LAYER_NORM_EPS,
    Tensor,
    _accum,
    _check_broadcast,
    _unbroadcast,
    _val,
    as_f64,
    batch_norm_eval_array,
    layer_norm,
    linear,
    matmul,
    mul,
    no_grad,
    swapaxes,
    swish,
)


def add(a, b) -> Tensor:
    """``a + b`` with numpy broadcasting; a non-``Tensor`` operand is a
    constant."""
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "add")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):  # g is this node's own gradient: the first parent may adopt it
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape), own=True)
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, bv.shape))

    return Tensor(av + bv, parents, back)


def concat(parts, axis: int = 0) -> Tensor:
    """``parts`` joined along ``axis``; the backward hands each ``Tensor``
    part its slice of the gradient."""
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Tensor):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])

    return Tensor(out, tuple(p for p in parts if isinstance(p, Tensor)), back)


def broadcast_to(x, shape) -> Tensor:
    """``x`` broadcast to ``shape`` as a copy; the backward sums the
    gradient back down to ``x``'s shape."""
    xv = _val(x)
    out = np.broadcast_to(xv, shape).copy()

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, _unbroadcast(g, xv.shape))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


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


def swish_reference(xv):
    """swish as a plain expression: (out, sigmoid)."""
    s = 1.0 / (1.0 + np.exp(-np.abs(xv)))
    s = np.where(xv >= 0, s, 1.0 - s)
    return xv * s, s


def swish_grad_reference(g, xv, s):
    """Tensor swish's gradient at its input, as a plain expression."""
    return g * (s + xv * s * (1.0 - s))


def linear_swish_grad_reference(g, out, s):
    """Swish's slope formed from its output, as the fused feed-forward forms
    it, as a plain expression."""
    return g * (s + out * (1.0 - s))


def layer_norm_reference(xv, gv, bv):
    """Layer norm as a plain expression: (out, xhat, inv)."""
    n = xv.shape[-1]
    diff = xv - xv.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((diff * diff).sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat = diff * inv
    return xhat * gv + bv, xhat, inv


def layer_norm_grad_reference(g, xhat, inv, gv):
    """Layer norm's gradient at its input, as a plain expression."""
    gy = g * gv
    term = gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
    return term * inv


def assert_grads_own_memory(tensors) -> None:
    """Every ``.grad`` among ``tensors`` is a writable C-contiguous array
    that shares memory with no other one's ``.grad`` and no tensor's value."""
    grads = [t.grad for t in tensors if t.grad is not None]
    assert grads
    for i, g in enumerate(grads):
        assert isinstance(g, np.ndarray) and g.flags.c_contiguous and g.flags.writeable
        assert not any(np.shares_memory(g, h) for h in grads[i + 1 :])
        assert not any(np.shares_memory(g, t.value) for t in tensors)


def decay_mask_direct(gamma, timestamps) -> np.ndarray:
    """Bitwise reference for ``DecayMask.build(gamma, timestamps=t)``: the
    whole mask as one ``gamma ** gaps`` expression, gaps zeroed above the
    diagonal, then the upper triangle zeroed."""
    g = np.asarray(gamma, dtype=np.float64)
    t = _check_timestamps(timestamps)
    L = t.shape[-1]
    gaps = t[..., :, None] - t[..., None, :]
    tril = np.tril(np.ones((L, L), dtype=bool))
    gaps *= tril
    if t.ndim == 2:
        gaps = gaps[:, None, :, :]  # room for the head axis
    d = g**gaps if g.ndim == 0 else g[:, None, None] ** gaps
    d *= tril
    return d


def retention_recurrent_taped(q, k, v, timestamps, gamma):
    """Oracle for ``retention_recurrent`` with gradients: the same step-by-step
    loop recorded op by op on the tape.  Returns (out Tensor, state array)."""
    q, k, v = (x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v))
    L = q.shape[-2]
    t = np.arange(L, dtype=np.int64) if timestamps is None else _check_timestamps(timestamps)
    s = Tensor(np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1])))
    last_t = t[..., 0]
    outs = []
    for n in range(L):
        t_n = t[..., n]
        k_n = k[..., n : n + 1, :]
        v_n = v[..., n : n + 1, :]
        s = add(mul(s, _decay_factor(gamma, t_n - last_t)), matmul(swapaxes(k_n, -1, -2), v_n))
        outs.append(matmul(q[..., n : n + 1, :], s))
        last_t = t_n
    return concat(outs, axis=-2), s.value


def retention_chunkwise_taped(q, k, v, timestamps, gamma, chunk_size: int):
    """Oracle for ``retention_chunkwise`` over a ``ChunkPlan`` of the same
    timestamps, gammas and chunk size: the per-chunk loop recorded op by op
    on the tape (slices, matmuls, masks, state updates), each chunk's decays
    built from its own timestamps, so its gradients come from the generic
    ops' backwards."""
    q, k, v = (x if isinstance(x, Tensor) else Tensor(x) for x in (q, k, v))
    L = q.shape[-2]
    t = _check_timestamps(timestamps)
    batched = t.ndim == 2
    s = prev_last = None
    outs = []
    for lo in range(0, L, chunk_size):
        hi = min(lo + chunk_size, L)
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
    return out, s


def depthwise_conv1d(x, w) -> Tensor:
    """Per-channel causal convolution: x [B, L, C], w [C, k] -> [B, L, C].

    No channel mixing; output at t reads inputs t-k+1 .. t.
    """
    xv, wv = _val(x), _val(w)
    if xv.ndim != 3 or wv.ndim != 2:
        raise ShapeError(f"depthwise_conv1d: got {xv.shape} and {wv.shape}")
    c, k = wv.shape
    if xv.shape[-1] != c:
        raise ShapeError(f"depthwise_conv1d: channel mismatch {xv.shape} vs weight {wv.shape}")
    L = xv.shape[1]
    xp = np.pad(xv, ((0, 0), (k - 1, 0), (0, 0)))
    out = np.zeros_like(xv)
    for j in range(k):
        out += xp[:, j : j + L, :] * wv[:, j]
    parents = tuple(t for t in (x, w) if isinstance(t, Tensor))

    def back(g):
        if isinstance(w, Tensor):
            gw = np.zeros_like(wv)
            for j in range(k):
                gw[:, j] = (g * xp[:, j : j + L, :]).sum(axis=(0, 1))
            _accum(w, gw)
        if isinstance(x, Tensor):
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + L, :] += g * wv[:, j]
            _accum(x, gxp[:, k - 1 :, :])

    return Tensor(out, parents, back)


def batch_norm(x, gain, bias, state, train: bool, valid=None) -> Tensor:
    """Per-channel normalization over all leading axes (channels last).

    Train mode normalizes by the batch statistics and folds them into the
    running ones (copied in on the first pass).  ``valid`` optionally
    weights which positions contribute to the batch statistics (shape =
    x.shape[:-1], None for all ones); excluded positions are still
    normalized with the resulting statistics.
    """
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    axes = tuple(range(xv.ndim - 1))
    if train:
        w = np.ones(xv.shape[:-1] + (1,)) if valid is None else as_f64(valid)[..., None]
        count = float(w.sum())
        if count <= 0:
            raise StateError("batch_norm: empty valid mask")
        mu = (xv * w).sum(axis=axes) * (1.0 / count)
        diff = xv - mu
        var = (diff * diff * w).sum(axis=axes) * (1.0 / count)
        inv = (var + BATCH_NORM_EPS) ** -0.5
        xhat = diff * inv
        out = xhat * gv + bv
        m = BATCH_NORM_MOMENTUM
        if state.running_mean is None:
            state.running_mean, state.running_var = mu, var
        else:
            state.running_mean = (1.0 - m) * state.running_mean + m * mu
            state.running_var = (1.0 - m) * state.running_var + m * var
    else:
        out, xhat, inv = batch_norm_eval_array(xv, gv, bv, state)
    parents = tuple(t for t in (x, gain, bias) if isinstance(t, Tensor))

    def back(g):
        if isinstance(gain, Tensor):
            _accum(gain, _unbroadcast(g * xhat, gv.shape))
        if isinstance(bias, Tensor):
            _accum(bias, _unbroadcast(g, bv.shape))
        if isinstance(x, Tensor):
            gy = g * gv
            if train:
                # d/dx through the batch mean and variance, both weighted by w
                gy = gy - w * (gy.sum(axis=axes) / count + xhat * ((gy * xhat).sum(axis=axes) / count))
            _accum(x, _unbroadcast(gy * inv, xv.shape))

    return Tensor(out, parents, back)


def temporal_conv_taped(m, x, train: bool, valid=None, capture=None) -> Tensor:
    """Oracle for ``TemporalConvModule.forward``: the block as six recorded
    ops (layer norm, depth-wise, point-wise, batch norm, swish, residual)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    h = layer_norm(x, m.ln_gain, m.ln_bias)
    if capture is not None:
        B, L, d = h.shape
        keep = m.kernel - 1
        n = min(keep, L)
        buf = np.zeros((B, keep, d))
        buf[:, keep - n :, :] = h.value[:, L - n :, :]
        capture["dw_input"] = buf
    h = matmul(depthwise_conv1d(h, m.dw_w), m.pw_w)
    h = batch_norm(h, m.bn_gain, m.bn_bias, m.bn_state, train=train, valid=valid)
    return add(x, swish(h))


def taped_stack(model, feats: np.ndarray, pos: np.ndarray, valid=None, form=None) -> Tensor:
    """Oracle for ``Model.encode(train=False)``: the start token, the input
    projection and each ``DecoderLayer.forward`` in eval mode, recorded on
    the tape.  ``pos`` and ``valid`` include the start token's column."""
    B = feats.shape[0]
    emb = add(matmul(Tensor(feats), model.w_in), model.b_in)
    x = concat([broadcast_to(model.sos, (B, 1, model.cfg.d_model)), emb], axis=1)
    geo = Geometry.build(model.cfg, pos, form)
    for layer in model.layers:
        x, _ = layer.forward(x, geo, train=False, valid=valid)
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


def reshape(x, shape) -> Tensor:
    """``x.reshape(shape)`` as a Tensor op."""
    xv = _val(x)

    def back(g):
        _accum(x, g.reshape(xv.shape))

    return Tensor(xv.reshape(shape), (x,), back)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """[..., L, h*dh] -> [..., h, L, dh] as two Tensor ops."""
    lead = x.shape[:-2]
    L, width = x.shape[-2], x.shape[-1]
    y = reshape(x, lead + (L, heads, width // heads))
    return swapaxes(y, -3, -2)


def merge_heads(x: Tensor) -> Tensor:
    """[..., h, L, dv] -> [..., L, h*dv] as two Tensor ops."""
    y = swapaxes(x, -3, -2)
    lead = y.shape[:-2]
    return reshape(y, lead + (y.shape[-2] * y.shape[-1],))


def rotate(x, positions, angles) -> Tensor:
    """Rotate consecutive feature pairs (2i-1, 2i) of x [..., L, d] by
    position * theta_i as one Tensor op: ``positions`` is [L] (negative
    values are fine), or [B, L] against x [B, heads, L, d].  The backward
    applies the transposed rotation (angle -position * theta_i)."""
    x = x if isinstance(x, Tensor) else Tensor(x)
    positions = np.asarray(positions)
    cos, sin = rotation_tables(positions, angles)  # [..., L, d/2]
    if positions.ndim == 2:
        cos, sin = cos[:, None, :, :], sin[:, None, :, :]  # room for the head axis

    def back(g):
        _accum(x, rotate_array(g, cos, -sin), own=True)

    return Tensor(rotate_array(x.value, cos, sin), (x,), back)


def project_heads_taped(x, w, heads: int, positions=None, angles=None) -> Tensor:
    """Oracle for ``positional.project_heads``: matmul, head split and, when
    ``positions`` are given, ``rotate``, as recorded Tensor ops."""
    p = split_heads(matmul(x, w), heads)
    return p if positions is None else rotate(p, positions, angles)


def retention_output_taped(ret, gain, bias, w_o, b_o, residual) -> Tensor:
    """Oracle for ``model.retention_output``: head merge, layer norm, output
    projection and residual add as recorded Tensor ops."""
    return add(residual, linear(layer_norm(merge_heads(ret), gain, bias), w_o, b_o))


def feed_forward_taped(x, ln_gain, ln_bias, w1, b1, w2, b2) -> Tensor:
    """Oracle for ``model.feed_forward``: layer norm, the two linear layers
    (swish after the first) and the residual add as five recorded nodes."""
    h = swish(linear(layer_norm(x, ln_gain, ln_bias), w1, b1))
    return add(x, linear(h, w2, b2))


def _tconv_tensor_step(m, x_t: Tensor, buf):
    """``TemporalConvModule.step`` through the Tensor ops: the depth-wise
    stage convolves buffer plus token and keeps the last output row."""
    h = layer_norm(x_t, m.ln_gain, m.ln_bias)
    window = np.concatenate([buf, h.value], axis=1)
    out = depthwise_conv1d(Tensor(window), m.dw_w)
    h = matmul(out[:, out.shape[1] - 1 :, :], m.pw_w)
    h = batch_norm(h, m.bn_gain, m.bn_bias, m.bn_state, train=False)
    return add(x_t, swish(h)), window[:, 1:, :]


def _layer_tensor_step(layer, x_t: Tensor, position: int, s, buf):
    """``DecoderLayer.step`` through the Tensor ops: rotary q/k, one
    recurrent retention update of the state ``s`` over a unit step, the
    temporal block and the feed-forward."""
    cfg = layer.cfg
    pos = np.array([position], dtype=np.int64)
    h = layer_norm(x_t, layer.ln1_gain, layer.ln1_bias)
    rot = () if cfg.no_rotation else (pos, RotaryAngles(cfg.d_q))
    q, k = (project_heads_taped(h, w, cfg.heads, *rot) for w in (layer.w_q, layer.w_k))
    v = project_heads_taped(h, layer.w_v, cfg.heads)
    s = add(mul(s, _decay_factor(cfg.gammas, 1)), matmul(swapaxes(k, -1, -2), v))
    r = layer_norm(merge_heads(matmul(q, s)), layer.ret_gain, layer.ret_bias)
    x = add(x_t, add(matmul(r, layer.w_o), layer.b_o))
    if layer.tconv is not None:
        x, buf = _tconv_tensor_step(layer.tconv, x, buf)
    ffn = (layer.ln2_gain, layer.ln2_bias, layer.ffn_w1, layer.ffn_b1, layer.ffn_w2, layer.ffn_b2)
    return feed_forward_taped(x, *ffn), s, buf


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
