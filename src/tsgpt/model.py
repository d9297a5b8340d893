"""Decoder-only retention model for continuous and event time series.

Stack: optional convolution-subsampling tokenizer, input projection, a
learned start-of-sequence embedding, then ``layers`` decoder blocks of
pre-norm multihead retention, a temporal convolution block and a pre-norm
feed-forward, all residual.  A task head reads either every position
(next-token prediction) or the mean of the final hidden states
(classification / regression fine-tuning).

Continuous next-token targets are the fixed 4:1 mean-pooled token values
(see :func:`pooled_tokens`), never the learned tokenizer features; a
learned target would collapse to a constant.  Event streams keep a
cross-entropy objective over the code vocabulary and bypass the tokenizer.

In training, each sublayer's glue is one tape node that keeps its inputs:
the start token and the input projection are one :func:`embed` node, q,
k and v are one :func:`~tsgpt.positional.project_heads` node each, the
head merge, norm, output projection and residual after the retention
kernel are one :func:`retention_output` node, and the pre-norm
feed-forward with its residual is one :func:`feed_forward` node.  Like
every fused node they take ``Tensor`` operands only.  Their backwards
recompute what they need (the feed-forward only above a size), one block
of whole batch rows at a time, on the calling thread and one worker
(:func:`~tsgpt.tensor.map_blocks`); the retention kernel between them runs
its blocks on the calling thread alone.  No block splits a row, so each
row's outputs are bitwise the same in any batch and on any number of
threads.

Sequences run through chunk-wise retention; ``form="parallel"`` on
:meth:`Model.encode`, :meth:`Model.forward` and :meth:`Model.pretrain_loss`
selects the parallel reference for equivalence checks.  What the layers
read of the positions (:class:`Geometry`) depends on the positions and
gammas alone, so :meth:`Model.encode` builds it once and every layer reads
it; it lives as long as that encode's graph.  The recurrent form is the
one-token decode step (:meth:`DecoderLayer.step`), on plain numpy arrays:
the same float operations, in the same order, as the Tensor ops.  What is
fixed for one :meth:`Model.generate` call (parameter arrays, the stacked
q|k|v weight, rotation rows, decay and batch-norm factors) is computed once
per call into a decode plan (:class:`LayerDecode`), never cached across
calls: training between two calls would leave a cached plan stale.  Eval
passes (``train=False``) and :meth:`Model.generate` run under
:func:`~tsgpt.tensor.no_grad`: they record no autodiff tape.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .convolution import ConvDecode, ConvSubsampler, TemporalConvModule, _uniform_init, subsampled_length
from .datagen import SequenceBatch
from .errors import CheckpointError, ConfigError, DataError, InputError, ShapeError, TaskError
from .positional import RotaryAngles, default_gammas, project_heads, rotate_array, rotation_tables, xpos_qk
from .retention import ChunkPlan, DecayMask, _decay_factor, retention_chunkwise, retention_parallel
from .retention import retention_recurrent  # noqa: F401  the benchmark patches and looks up the kernels here
from .tensor import (
    Rng,
    Tensor,
    _accum,
    _sigmoid,
    _unbroadcast,
    add_partials,
    layer_norm,
    layer_norm_array,
    layer_norm_grad_array,
    linear,
    log_softmax,
    map_blocks,
    mul,
    no_grad,
    grad_enabled,
    read_ndar1,
    row_blocks,
    sub,
    swish_array,
    swish_grad_array,
    tmean,
    tsum,
    weight_grad,
    write_ndar1,
)

HEAD_KINDS = ("next_token", "classification", "regression")
CHECKPOINT_FORMAT = "tsgpt-ckpt-v2"
FFN_EXPANSION = 4  # feed-forward width per model width
# The feed-forward node keeps its hidden activation for the backward when the
# whole batch's has at most this many elements (4 MB), where recomputing it
# costs more time than keeping it costs memory; larger batches recompute it.
FFN_KEEP_ELEMENTS = 1 << 19
RETENTION_FORMS = ("chunkwise", "parallel")


def _untaped_in_eval(method):
    """Run ``method`` under :func:`no_grad` unless it is called with ``train=True``."""
    train_default = method.__kwdefaults__["train"]

    @functools.wraps(method)
    def run(self, *args, **kwargs):
        with contextlib.nullcontext() if kwargs.get("train", train_default) else no_grad():
            return method(self, *args, **kwargs)

    return run


@dataclass
class ModelConfig:
    layers: int = 2
    heads: int = 2
    d_q: int = 16
    d_v: int = 16
    chunk_size: int = 64
    gamma: float | None = None  # scalar override; None -> per-head schedule
    conv_kernel: int = 15
    no_subsampler: bool = False
    no_temporal_conv: bool = False
    no_decay: bool = False
    no_rotation: bool = False
    head_kind: str = "next_token"
    n_inputs: int = 1
    n_classes: int = 2
    discrete: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if min(self.heads, self.d_q, self.d_v) < 1:
            raise ConfigError("heads, d_q and d_v must be positive")
        if self.chunk_size <= 0:
            raise ConfigError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.d_q % 2 != 0 and not self.no_rotation:
            raise ConfigError(f"rotary embedding needs even d_q, got {self.d_q}")
        if self.conv_kernel < 1:
            raise ConfigError(f"conv_kernel must be >= 1, got {self.conv_kernel}")
        if self.head_kind not in HEAD_KINDS:
            raise ConfigError(f"unknown head_kind {self.head_kind!r}")
        if self.no_rotation and not self.no_decay:
            raise ConfigError("no_rotation requires no_decay: the decay rides on the relative rotary mechanism")
        if self.discrete and not self.no_subsampler:
            raise ConfigError("discrete event streams do not use the subsampling tokenizer; set no_subsampler")
        if self.gamma is not None and not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"gamma override must be in (0, 1], got {self.gamma}")
        if self.n_inputs <= 0:
            raise ConfigError("n_inputs must be positive")

    @property
    def d_model(self) -> int:
        return self.heads * self.d_q

    @property
    def gammas(self) -> np.ndarray:
        if self.no_decay:
            return np.ones(self.heads)
        if self.gamma is not None:
            return np.full(self.heads, self.gamma)
        return default_gammas(self.heads)

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        return hashlib.sha256(json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:16]

    def backbone_hash(self) -> str:
        d = self.to_dict()
        for k in ("head_kind", "n_classes", "seed"):
            d.pop(k)
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Geometry:
    """What every layer of one encode reads of its positions, built once by
    :meth:`build` from the positions and ``cfg.gammas`` and kept only by
    that encode's graph, never across calls.  ``tables`` are the cos/sin
    rotation tables (None under ``no_rotation``); ``decay`` is the retention
    form's decay geometry: a :class:`~tsgpt.retention.ChunkPlan` for the
    chunk-wise form, the full :class:`~tsgpt.retention.DecayMask` for the
    parallel reference.  When every head has the same gamma, the decay
    geometry is built for that one gamma: its masks have one head plane,
    which broadcasts over the heads."""

    form: str
    tables: tuple[np.ndarray, np.ndarray] | None
    decay: ChunkPlan | DecayMask

    @classmethod
    def build(cls, cfg: ModelConfig, positions: np.ndarray, form: str | None = None) -> "Geometry":
        """``positions`` [L] or [B, L] include the start token's (strictly
        increasing, as :class:`~tsgpt.datagen.SequenceBatch` checks); ``form``
        None (or "chunkwise") is the chunk-wise form."""
        form = form or "chunkwise"
        if form not in RETENTION_FORMS:
            raise ConfigError(f"unknown retention form {form!r}")
        tables = None
        if not cfg.no_rotation:
            cos, sin = rotation_tables(positions, RotaryAngles(cfg.d_q))
            tables = (cos, sin) if positions.ndim == 1 else (cos[:, None], sin[:, None])  # room for the head axis
        gammas = cfg.gammas
        shared = gammas[0] if np.all(gammas == gammas[0]) else gammas
        if form == "chunkwise":
            decay = ChunkPlan.build(positions, shared, cfg.chunk_size)
        else:
            decay = DecayMask.build(shared, timestamps=positions)
        return cls(form, tables, decay)


def embed(feats: Tensor, w_in: Tensor, b_in: Tensor, sos: Tensor) -> Tensor:
    """The start token ``sos`` [1, 1, d] followed by ``feats @ w_in + b_in``
    (feats [B, L, V]): [B, L+1, d] as one tape node that keeps only its
    inputs.  Value and gradients are bitwise those of the start token
    broadcast to [B, 1, d] and concatenated with :func:`linear`: the same
    products, the bias added in place, and the same sums over the batch."""
    fv, wv, bv, sv = feats.value, w_in.value, b_in.value, sos.value
    B, L, _ = fv.shape
    out = np.empty((B, L + 1, wv.shape[-1]))
    out[:, :1] = sv
    emb = out[:, 1:]
    np.matmul(fv, wv, out=emb)
    emb += bv

    def back(g):
        g_emb = g[:, 1:]
        _accum(feats, g_emb @ wv.T, own=True)
        _accum(w_in, _unbroadcast(np.swapaxes(fv, -1, -2) @ g_emb, wv.shape), own=True)
        _accum(b_in, _unbroadcast(g_emb, bv.shape))
        _accum(sos, _unbroadcast(g[:, :1], sv.shape))

    return Tensor(out, (feats, w_in, b_in, sos), back)


def retention_output(ret: Tensor, gain: Tensor, bias: Tensor, w_o: Tensor, b_o: Tensor, residual: Tensor) -> Tensor:
    """``residual + linear(layer_norm(merged heads of ret, gain, bias), w_o,
    b_o)`` as one tape node.

    ret: [..., h, L, dv] -> [..., L, d_out].  The value is bitwise that of
    the composite (swapaxes, reshape, layer norm, linear, add).  The node
    keeps only its inputs; the backward recomputes the merged heads and
    their layer norm.  Both directions run one block of whole batch rows at
    a time (:func:`~tsgpt.tensor.map_blocks`).
    """
    rv, gv, bv, wv, ov = (t.value for t in (ret, gain, bias, w_o, b_o))
    if rv.shape[-3] * rv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"retention_output: merged heads of {rv.shape} do not match w_o {wv.shape}")
    r4 = rv.reshape((-1,) + rv.shape[-3:])
    N, h, L, dv = r4.shape
    width, d = h * dv, wv.shape[-1]
    res = residual.value.reshape((N, L, d))
    row = L * max(width, d)
    blocks = row_blocks(N, row)
    out = np.empty((N, L, d))

    def merged_norm(b: slice):
        return layer_norm_array(r4[b].swapaxes(1, 2).reshape((-1, L, width)), gv, bv)

    def project(b: slice, _slot: int) -> None:
        y = merged_norm(b)[0] @ wv
        y += ov
        np.add(res[b], y, out=out[b])

    map_blocks(project, blocks)

    def back(g):
        g3 = g.reshape((N, L, d))
        sums = g_o, g_w, g_g, g_b = tuple(np.zeros_like(a) for a in (ov, wv, gv, bv))
        g_r = np.empty_like(r4)

        def grads(b: slice, _slot: int) -> tuple:
            normed, xhat, inv = merged_norm(b)
            gb = g3[b]
            gn = gb @ wv.T
            g_r[b] = layer_norm_grad_array(gn, xhat, inv, gv).reshape((-1, L, h, dv)).swapaxes(1, 2)
            g_xhat = np.einsum("blc,blc->c", gn, xhat)
            return gb.sum(axis=(0, 1)), weight_grad(normed, gb), g_xhat, gn.sum(axis=(0, 1))

        add_partials(sums, map_blocks(grads, blocks))
        for t, gt in ((gain, g_g), (bias, g_b), (w_o, g_w), (b_o, g_o), (ret, g_r.reshape(rv.shape))):
            _accum(t, gt, own=True)
        _accum(residual, g, own=True)  # the last reader of g, so it may adopt it

    return Tensor(out.reshape(rv.shape[:-3] + (L, d)), (ret, gain, bias, w_o, b_o, residual), back)


def feed_forward(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``x + linear(swish(linear(layer_norm(x, ln_gain, ln_bias), w1, b1)),
    w2, b2)`` as one tape node, bitwise the five-node composite.

    x: [..., L, d].  Both directions run one block of whole batch rows at a
    time (:func:`~tsgpt.tensor.map_blocks`, sized by the hidden width).  When
    the whole batch's hidden activation has more than ``FFN_KEEP_ELEMENTS``
    elements, the node keeps only its inputs and the backward recomputes
    each block's layer norm and hidden activation; otherwise it keeps them,
    and the forward runs on the calling thread alone, since no array the
    node keeps may be made on the worker.
    """
    xv = x.value
    params = (ln_gain, ln_bias, w1, b1, w2, b2)
    gl, bl, w1v, b1v, w2v, b2v = (p.value for p in params)
    L, d = xv.shape[-2:]
    f = w1v.shape[-1]
    x3 = xv.reshape((-1, L, d))
    row = L * f
    blocks = row_blocks(x3.shape[0], row)
    out = np.empty_like(x3)

    def hidden(b: slice):  # layer norm, then the first linear layer through swish
        h, xhat, inv = layer_norm_array(x3[b], gl, bl)
        a = h @ w1v
        a += b1v
        s = _sigmoid(a)
        a *= s
        return h, xhat, inv, a, s

    def forward(b: slice, keep: bool):
        hb = hidden(b)
        y = hb[3] @ w2v
        y += b2v
        np.add(x3[b], y, out=out[b])
        return hb if keep else None

    kept = None  # each block's hidden(b), by the block's first row
    if grad_enabled() and x3.shape[0] * L * f <= FFN_KEEP_ELEMENTS:
        kept = {b.start: forward(b, True) for b in blocks}
    else:
        map_blocks(lambda b, _slot: forward(b, False), blocks)

    def back(g):
        g3 = g.reshape(x3.shape)
        sums = tuple(np.zeros_like(v) for v in (gl, bl, w1v, b1v, w2v, b2v))

        def grads(b: slice, _slot: int) -> tuple:
            h, xhat, inv, a, s = hidden(b) if kept is None else kept[b.start]
            gb = g3[b]
            p_b2 = gb.sum(axis=(0, 1))
            p_w2 = weight_grad(a, gb)
            ga = swish_grad_array(gb @ w2v.T, a, s)
            p_b1 = ga.sum(axis=(0, 1))
            p_w1 = weight_grad(h, ga)
            gh = ga @ w1v.T
            p_lg = np.einsum("blc,blc->c", gh, xhat)
            p_lb = gh.sum(axis=(0, 1))
            gb += layer_norm_grad_array(gh, xhat, inv, gl)  # g becomes the input's gradient
            return p_lg, p_lb, p_w1, p_b1, p_w2, p_b2

        add_partials(sums, map_blocks(grads, blocks))
        for p, gp in zip(params, sums):
            _accum(p, gp, own=True)
        _accum(x, g, own=True)

    return Tensor(out.reshape(xv.shape), (x,) + params, back)


class DecoderLayer:
    """Pre-norm retention -> temporal convolution -> pre-norm feed-forward."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        self.cfg = cfg
        d, h = cfg.d_model, cfg.heads
        wq = h * cfg.d_q
        wv = h * cfg.d_v
        self.ln1_gain = Tensor(np.ones(d))
        self.ln1_bias = Tensor(np.zeros(d))
        self.w_q = _uniform_init(rng.child("w_q"), (d, wq), d)
        self.w_k = _uniform_init(rng.child("w_k"), (d, wq), d)
        self.w_v = _uniform_init(rng.child("w_v"), (d, wv), d)
        self.ret_gain = Tensor(np.ones(wv))
        self.ret_bias = Tensor(np.zeros(wv))
        self.w_o = _uniform_init(rng.child("w_o"), (wv, d), wv)
        self.b_o = Tensor(np.zeros(d))
        self.tconv = None if cfg.no_temporal_conv else TemporalConvModule(d, cfg.conv_kernel, rng.child("tconv"))
        self.ln2_gain = Tensor(np.ones(d))
        self.ln2_bias = Tensor(np.zeros(d))
        f = FFN_EXPANSION * d
        self.ffn_w1 = _uniform_init(rng.child("ffn_w1"), (d, f), d)
        self.ffn_b1 = Tensor(np.zeros(f))
        self.ffn_w2 = _uniform_init(rng.child("ffn_w2"), (f, d), f)
        self.ffn_b2 = Tensor(np.zeros(d))

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = [
            ("ln1_gain", self.ln1_gain),
            ("ln1_bias", self.ln1_bias),
            ("w_q", self.w_q),
            ("w_k", self.w_k),
            ("w_v", self.w_v),
            ("w_o", self.w_o),
            ("b_o", self.b_o),
            ("ln2_gain", self.ln2_gain),
            ("ln2_bias", self.ln2_bias),
            ("ffn_w1", self.ffn_w1),
            ("ffn_b1", self.ffn_b1),
            ("ffn_w2", self.ffn_w2),
            ("ffn_b2", self.ffn_b2),
            ("ret_gain", self.ret_gain),
            ("ret_bias", self.ret_bias),
        ]
        if self.tconv is not None:
            out += [(f"tconv.{n}", p) for n, p in self.tconv.named_params()]
        return out

    # -- retention sublayer -------------------------------------------------

    def _retention_inner(self, h: Tensor, x: Tensor, geo: Geometry):
        """``x`` plus the retention sublayer run on ``h``, its normalized input.

        Rotary q/k and v are one :func:`project_heads` node each, rotated by
        ``geo``'s tables; retention takes the whole batch in ``geo``'s
        form (chunk-wise, or the parallel reference) on its decay geometry;
        head merge, layer norm, output projection and the residual add are
        one :func:`retention_output` node.  Returns (out [..., L, d_model],
        the retention state after the last token, None under the parallel
        form).
        """
        cfg = self.cfg
        q, k = xpos_qk(h, self.w_q, self.w_k, geo.tables, cfg.heads)
        v = project_heads(h, self.w_v, cfg.heads)
        if geo.form == "chunkwise":
            out, state = retention_chunkwise(q, k, v, geo.decay)
        else:
            out, state = retention_parallel(q, k, v, geo.decay), None
        return retention_output(out, self.ret_gain, self.ret_bias, self.w_o, self.b_o, x), state

    def _ffn(self, x: Tensor) -> Tensor:
        """``x`` plus the pre-norm feed-forward of ``x``: one node."""
        return feed_forward(x, self.ln2_gain, self.ln2_bias, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2)

    def forward(
        self,
        x: Tensor,
        geo: Geometry,
        train: bool,
        valid: np.ndarray | None = None,
    ):
        """Whole-sequence pass over the positions ``geo`` was built for;
        returns (x, (retention state after the last token, depth-wise
        window)), what :meth:`step` continues from: the state is None under
        the parallel form, the window without a temporal block."""
        x, state = self._retention_inner(layer_norm(x, self.ln1_gain, self.ln1_bias), x, geo)
        window = {}
        if self.tconv is not None:
            x = self.tconv.forward(x, train=train, valid=valid, capture=window)
        return self._ffn(x), (state, window.get("dw_input"))

    def step(self, x_t: np.ndarray, plan: LayerDecode, cos: np.ndarray | None, sin: np.ndarray | None) -> np.ndarray:
        """One-token eval-mode continuation on plain arrays; O(1) in the prefix length.

        x_t: [B, 1, d_model].  ``plan`` (:class:`LayerDecode`, built once
        per :meth:`Model.generate` call and never kept past it, since
        training between calls would leave it stale) holds this layer's
        parameter arrays and the state it carries from token to token: the
        retention state [B, heads, d_q, d_v], updated in place, and the
        temporal block's depth-wise window.  ``cos``/``sin`` are
        the rotation rows of this token's position, tiled over the q and k
        heads (None under ``no_rotation``).  One GEMM projects q|k|v and one
        :func:`rotate_array` call rotates q|k.  Each float operation is the
        one the Tensor ops run for the recurrent form on one token, in the
        same order, so the output is bitwise theirs.
        """
        p = plan
        h = layer_norm_array(x_t, p.ln1_gain, p.ln1_bias)[0]
        qkv = h @ p.w_qkv
        w = p.qk_width
        qk = qkv if cos is None else rotate_array(qkv[..., : 2 * w], cos, sin)
        q = qk[..., :w].reshape(p.qk_shape).swapaxes(1, 2)  # [B, heads, 1, d_q]
        k = qk[..., w : 2 * w].reshape(p.qk_shape).transpose(0, 2, 3, 1)  # [B, heads, d_q, 1]
        v = qkv[..., 2 * w :].reshape(p.v_shape).swapaxes(1, 2)
        s = p.s
        s *= p.fac
        s += k @ v
        r = (q @ s).swapaxes(1, 2).reshape(p.r_shape)
        x = layer_norm_array(r, p.ret_gain, p.ret_bias)[0] @ p.w_o
        x += p.b_o
        x += x_t
        if p.conv is not None:
            x = self.tconv.step(x, p.conv)
        h = layer_norm_array(x, p.ln2_gain, p.ln2_bias)[0] @ p.ffn_w1
        h += p.ffn_b1
        y = swish_array(h)[0] @ p.ffn_w2
        y += p.ffn_b2
        y += x
        return y


class LayerDecode:
    """What :meth:`DecoderLayer.step` reads and updates over one
    :meth:`Model.generate` call: every parameter array, fetched once, with
    ``w_q | w_k | w_v`` stacked into one [d_model, 2*h*d_q + h*d_v] weight;
    the decay factor of a unit step; a copy of the retention state after the
    prompt, which the steps update in place; and the temporal block's
    :class:`~tsgpt.convolution.ConvDecode`.  It is built from the parameters
    and batch-norm statistics as they are when it is made, so it lives for
    one call only: training between calls would leave it stale."""

    __slots__ = (
        "ln1_gain", "ln1_bias", "w_qkv", "qk_width", "qk_shape", "v_shape", "r_shape", "s", "fac",
        "ret_gain", "ret_bias", "w_o", "b_o", "conv", "ln2_gain", "ln2_bias", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2",
    )

    def __init__(self, layer: DecoderLayer, s: np.ndarray, conv_buf: np.ndarray | None):
        cfg = layer.cfg
        B = s.shape[0]
        self.ln1_gain, self.ln1_bias = layer.ln1_gain.value, layer.ln1_bias.value
        self.w_qkv = np.concatenate([layer.w_q.value, layer.w_k.value, layer.w_v.value], axis=1)
        self.qk_width = cfg.heads * cfg.d_q
        self.qk_shape = (B, 1, cfg.heads, cfg.d_q)
        self.v_shape = (B, 1, cfg.heads, cfg.d_v)
        self.r_shape = (B, 1, cfg.heads * cfg.d_v)
        self.s = s.copy()
        self.fac = _decay_factor(cfg.gammas, 1)
        self.ret_gain, self.ret_bias = layer.ret_gain.value, layer.ret_bias.value
        self.w_o, self.b_o = layer.w_o.value, layer.b_o.value
        self.conv = None if layer.tconv is None else ConvDecode(layer.tconv, conv_buf)
        self.ln2_gain, self.ln2_bias = layer.ln2_gain.value, layer.ln2_bias.value
        self.ffn_w1, self.ffn_b1 = layer.ffn_w1.value, layer.ffn_b1.value
        self.ffn_w2, self.ffn_b2 = layer.ffn_w2.value, layer.ffn_b2.value


class Model:
    """Config-driven decoder stack plus a task head."""

    def __init__(self, config: ModelConfig):
        self.cfg = config
        rng = Rng(config.seed).child("init")
        V, D = config.n_inputs, config.d_model
        self.subsampler = None if config.no_subsampler else ConvSubsampler(V, rng.child("subsampler"))
        self.w_in = _uniform_init(rng.child("w_in"), (V, D), V)
        self.b_in = Tensor(np.zeros(D))
        self.sos = _uniform_init(rng.child("sos"), (1, 1, D), D)
        self.layers = [DecoderLayer(config, rng.child(f"layer{i}")) for i in range(config.layers)]
        if config.head_kind == "next_token":
            self.w_head = _uniform_init(rng.child("w_head"), (D, V), D)
            self.b_head = Tensor(np.zeros(V))
        elif config.head_kind == "classification":
            self.w_head = _uniform_init(rng.child("w_head"), (D, config.n_classes), D)
            self.b_head = Tensor(np.zeros(config.n_classes))
        else:
            self.w_head = _uniform_init(rng.child("w_head"), (D, 1), D)
            self.b_head = Tensor(np.zeros(1))

    # -- parameters and state ------------------------------------------------

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = [("w_in", self.w_in), ("b_in", self.b_in), ("sos", self.sos)]
        if self.subsampler is not None:
            out += [(f"subsampler.{n}", p) for n, p in self.subsampler.named_params()]
        for i, layer in enumerate(self.layers):
            out += [(f"layer{i}.{n}", p) for n, p in layer.named_params()]
        out += [("w_head", self.w_head), ("b_head", self.b_head)]
        return out

    def param_count(self) -> int:
        return sum(p.value.size for _, p in self.named_params())

    def named_norm_stats(self) -> list[tuple[str, np.ndarray]]:
        """Running batch-norm statistics of every temporal block that has
        recorded some (none before the first train pass)."""
        out = []
        for i, layer in enumerate(self.layers):
            if layer.tconv is not None and layer.tconv.bn_state.running_mean is not None:
                st = layer.tconv.bn_state
                out.append((f"layer{i}.tconv.bn_mean", st.running_mean))
                out.append((f"layer{i}.tconv.bn_var", st.running_var))
        return out

    def set_norm_stats(self, stats) -> None:
        """Copy in running batch-norm statistics from (name, array) pairs
        named as :meth:`named_norm_stats` names them; blocks not named keep theirs."""
        named = dict(stats)
        for i, layer in enumerate(self.layers):
            if f"layer{i}.tconv.bn_mean" in named:
                st = layer.tconv.bn_state
                st.running_mean = named[f"layer{i}.tconv.bn_mean"].copy()
                st.running_var = named[f"layer{i}.tconv.bn_var"].copy()

    # -- encoding ------------------------------------------------------------

    def _token_features(self, batch: SequenceBatch) -> tuple[Tensor, np.ndarray]:
        """Token features [B, L, V] plus integer positions [L] or [B, L]."""
        if batch.values.shape[-1] != self.cfg.n_inputs:
            raise InputError(f"batch has {batch.values.shape[-1]} variates, model expects {self.cfg.n_inputs}")
        feats = Tensor(batch.values)
        if self.subsampler is not None:
            if batch.timestamps is not None:
                raise ConfigError("subsampling is undefined for irregular timestamps; use no_subsampler")
            feats = self.subsampler.forward(feats)
        positions = batch.timestamps
        if positions is None:
            positions = np.arange(1, feats.shape[1] + 1, dtype=np.int64)
        return feats, positions

    @_untaped_in_eval
    def encode(
        self,
        batch: SequenceBatch,
        *,
        train: bool = False,
        form: str | None = None,
        want_states: bool = False,
    ):
        """Hidden states [B, L+1, d_model]: position 0 is the start token.

        ``form`` None runs chunk-wise retention; "parallel" selects the
        reference form.  The layers share one :class:`Geometry`
        of the positions.  ``want_states`` also returns each layer's
        (retention state, depth-wise window) and the positions, for
        continuation.
        """
        feats, positions = self._token_features(batch)
        B = feats.shape[0]
        x = embed(feats, self.w_in, self.b_in, self.sos)
        if positions.ndim == 1:
            pos = np.concatenate([[0], positions]).astype(np.int64)
        else:
            pos = np.concatenate([np.zeros((B, 1), dtype=np.int64), positions], axis=1)
        valid = batch.valid
        if valid is not None:
            valid = np.concatenate([np.ones((B, 1)), np.asarray(valid, dtype=np.float64)], axis=1)
        geo = Geometry.build(self.cfg, pos, form) if self.layers else None
        states = []
        for layer in self.layers:
            x, st = layer.forward(x, geo, train=train, valid=valid)
            states.append(st)
        return (x, states, pos) if want_states else x

    @_untaped_in_eval
    def forward(self, batch: SequenceBatch, *, train: bool = False, form: str | None = None) -> Tensor:
        """Token-aligned embeddings [B, L, d_model] (start token dropped)."""
        return self.encode(batch, train=train, form=form)[:, 1:, :]

    # -- objectives ------------------------------------------------------------

    def _head(self, x: Tensor) -> Tensor:
        return linear(x, self.w_head, self.b_head)

    @_untaped_in_eval
    def pretrain_loss(self, batch: SequenceBatch, *, train: bool = True, form: str | None = None) -> Tensor:
        """Next-token objective: MSE for continuous values, cross-entropy for codes."""
        if self.cfg.head_kind != "next_token":
            raise TaskError(f"pretrain_loss needs a next_token head, model has {self.cfg.head_kind!r}")
        hidden = self.encode(batch, train=train, form=form)
        preds = self._head(hidden[:, :-1, :])  # position i predicts token i+1
        n_tokens = preds.shape[1]
        if n_tokens < 2:
            raise InputError(f"need at least 2 tokens for next-token training, got {n_tokens}")
        if self.cfg.discrete:
            codes = _class_indices(batch.codes, self.cfg.n_inputs, "codes")
            logp = log_softmax(preds)
            onehot = np.eye(self.cfg.n_inputs)[codes]
            tok_ll = tsum(mul(logp, onehot), axis=-1)  # [B, L]
            if batch.valid is not None:
                w = np.asarray(batch.valid, dtype=np.float64)
                return mul(tsum(mul(tok_ll, -w)), 1.0 / max(w.sum(), 1.0))
            return tmean(mul(tok_ll, -1.0))
        targets = self.token_targets(batch)
        err = sub(preds, targets)
        if batch.valid is not None:
            w = np.asarray(batch.valid, dtype=np.float64)[..., None]
            return mul(tsum(mul(mul(err, err), w)), 1.0 / max(w.sum() * targets.shape[-1], 1.0))
        return tmean(mul(err, err))

    def token_targets(self, batch: SequenceBatch) -> np.ndarray:
        """Token-granularity ground truth for continuous next-token training."""
        values = np.asarray(batch.values, dtype=np.float64)
        if self.subsampler is not None:
            return pooled_tokens(values)
        return values

    @_untaped_in_eval
    def mean_hidden(self, batch: SequenceBatch, *, train: bool = False) -> Tensor:
        hidden = self.encode(batch, train=train)[:, 1:, :]
        if batch.valid is not None:
            w = np.asarray(batch.valid, dtype=np.float64)[..., None]
            total = tsum(mul(hidden, w), axis=1)
            return mul(total, 1.0 / np.maximum(w.sum(axis=1), 1.0))
        return tmean(hidden, axis=1)

    @_untaped_in_eval
    def classify_logits(self, batch: SequenceBatch, *, train: bool = False) -> Tensor:
        if self.cfg.head_kind != "classification":
            raise TaskError(f"classification needs a classification head, model has {self.cfg.head_kind!r}")
        return self._head(self.mean_hidden(batch, train=train))

    @_untaped_in_eval
    def classification_loss(self, batch: SequenceBatch, *, train: bool = True) -> Tensor:
        labels = _class_indices(batch.labels, self.cfg.n_classes, "labels")
        logits = self.classify_logits(batch, train=train)
        logp = log_softmax(logits)
        onehot = np.eye(self.cfg.n_classes)[labels]
        return tmean(tsum(mul(logp, mul(onehot, -1.0)), axis=-1))

    @_untaped_in_eval
    def regression_output(self, batch: SequenceBatch, *, train: bool = False) -> Tensor:
        if self.cfg.head_kind != "regression":
            raise TaskError(f"regression needs a regression head, model has {self.cfg.head_kind!r}")
        return self._head(self.mean_hidden(batch, train=train))

    @_untaped_in_eval
    def regression_loss(self, batch: SequenceBatch, *, train: bool = True) -> Tensor:
        if batch.labels is None:
            raise InputError("the batch has no labels")
        out = self.regression_output(batch, train=train)
        err = sub(out, np.asarray(batch.labels, dtype=np.float64)[:, None])
        return tmean(mul(err, err))

    def loss(self, batch: SequenceBatch, train: bool = True) -> Tensor:
        if self.cfg.head_kind == "next_token":
            return self.pretrain_loss(batch, train=train)
        if self.cfg.head_kind == "classification":
            return self.classification_loss(batch, train=train)
        return self.regression_loss(batch, train=train)

    # -- generation ------------------------------------------------------------

    @no_grad()
    def generate(self, prompt: SequenceBatch, horizon: int) -> np.ndarray:
        """Autoregressive token forecast [B, horizon, V], recorded on no tape.

        The prompt is encoded chunk-wise once.  Each emitted token then
        takes one recurrent :meth:`DecoderLayer.step` per layer on plain
        numpy arrays, carrying the retention states and the depth-wise
        windows: O(1) per token, and no ``Tensor`` but the head's input and
        output, since every token leaves through ``self._head``, a fused
        node that takes a ``Tensor``.  The outputs are bitwise
        those of the same recurrence run through the Tensor ops.

        After the first token, the call builds its decode plan (one
        :class:`LayerDecode` per layer, and the horizon's rotation rows),
        so the time to the first token does not include it.  The plan is
        rebuilt on every call, because it copies the parameters and
        batch-norm statistics as they are then.  Timestamped prompts are
        not supported: rollout emits one token per regular step.
        """
        if self.cfg.head_kind != "next_token":
            raise TaskError(f"generate needs a next_token head, model has {self.cfg.head_kind!r}")
        if horizon < 1:
            raise InputError(f"horizon must be >= 1, got {horizon}")
        if prompt.timestamps is not None:
            raise InputError("generate supports regularly sampled prompts only")

        x, states, pos = self.encode(prompt, train=False, want_states=True)
        preds = [self._head(x[:, -1:, :]).value]  # each [B, 1, V]
        # the decode plan comes after the first head call, so that the time
        # to the first token does not include it; the last prediction needs
        # no step after it
        plans = [LayerDecode(layer, *st) for layer, st in zip(self.layers, states)]
        w_in, b_in = self.w_in.value, self.b_in.value
        for cos, sin in self._rotation_rows(int(pos[-1]) + 1, horizon - 1):
            h = preds[-1] @ w_in
            h += b_in
            for layer, plan in zip(self.layers, plans):
                h = layer.step(h, plan, cos, sin)
            preds.append(self._head(Tensor(h)).value)
        return np.concatenate(preds, axis=1)

    def _rotation_rows(self, first: int, n: int):
        """(cos, sin) of positions first .. first+n-1, each row tiled over
        the q and k heads as :meth:`DecoderLayer.step` takes it; every
        layer rotates by the same angles.  (None, None) rows under
        ``no_rotation``."""
        cfg = self.cfg
        if cfg.no_rotation:
            return [(None, None)] * n
        cos, sin = rotation_tables(np.arange(first, first + n), RotaryAngles(cfg.d_q))
        return zip(np.tile(cos, 2 * cfg.heads), np.tile(sin, 2 * cfg.heads))

    # -- checkpointing -----------------------------------------------------------

    def save(self, path) -> None:
        params = self.named_params()
        stats = self.named_norm_stats()
        buf = io.BytesIO()
        for arr in [p.value for _, p in params] + [st for _, st in stats]:
            write_ndar1(buf, arr)
        payload = buf.getvalue()
        header = {
            "format": CHECKPOINT_FORMAT,
            "config": self.cfg.to_dict(),
            "config_hash": self.cfg.config_hash(),
            "backbone_hash": self.cfg.backbone_hash(),
            "params": [n for n, _ in params],
            "norm_stats": [n for n, _ in stats],
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)

    @classmethod
    def load(cls, path) -> "Model":
        """Read a checkpoint written by :meth:`save`.  Anything but exactly
        that (unreadable or incomplete header, a payload whose sha256 is not
        the header's, a record that does not match the config, bytes after
        the last record) raises CheckpointError."""
        with open(path, "rb") as f:
            line, payload = f.readline(), f.read()
        try:
            header = json.loads(line.decode())
        except ValueError as e:  # UnicodeDecodeError, JSONDecodeError
            raise CheckpointError(f"checkpoint {path} has an unreadable header: {e}")
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(f"unrecognized checkpoint format in {path}")
        missing = [k for k in ("config", "config_hash", "params", "norm_stats", "payload_sha256") if k not in header]
        if missing:
            raise CheckpointError(f"checkpoint {path} header lacks {missing}")
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise CheckpointError(f"checkpoint {path}: payload sha256 mismatch (corrupt or truncated file)")
        try:
            cfg = ModelConfig(**header["config"])
        except (TypeError, ConfigError) as e:
            raise CheckpointError(f"checkpoint {path} has an invalid model config: {e}")
        if cfg.config_hash() != header["config_hash"]:
            raise CheckpointError("checkpoint config hash mismatch")
        model = cls(cfg)
        params = model.named_params()
        if [n for n, _ in params] != header["params"]:
            raise CheckpointError("checkpoint parameter manifest does not match the config")
        stat_names = [f"layer{i}.tconv.{kind}" for i, layer in enumerate(model.layers) if layer.tconv is not None
                      for kind in ("bn_mean", "bn_var")]
        if header["norm_stats"] not in ([], stat_names):
            raise CheckpointError("checkpoint batch-norm statistics do not match the config")
        fh = io.BytesIO(payload)
        try:
            for name, p in params:
                arr = read_ndar1(fh)
                if arr.shape != p.value.shape:
                    raise CheckpointError(f"parameter {name}: shape {arr.shape} != {p.value.shape}")
                p.value = arr
            stats = [read_ndar1(fh) for _ in header["norm_stats"]]
        except DataError as e:
            raise CheckpointError(f"checkpoint {path}: {e}")
        if fh.read(1):
            raise CheckpointError(f"checkpoint {path} has bytes after its last record")
        if any(a.shape != (cfg.d_model,) for a in stats):
            raise CheckpointError(f"checkpoint {path}: batch-norm statistics must have shape ({cfg.d_model},)")
        model.set_norm_stats(zip(header["norm_stats"], stats))
        return model

    def with_head(self, head_kind: str, n_classes: int | None = None) -> "Model":
        """Same backbone weights under a fresh task head (for fine-tuning)."""
        cfg = replace(self.cfg, head_kind=head_kind, n_classes=n_classes or self.cfg.n_classes)
        out = Model(cfg)
        mine = dict(self.named_params())
        for name, p in out.named_params():
            if name in ("w_head", "b_head"):
                continue
            p.value = mine[name].value.copy()
        out.set_norm_stats(self.named_norm_stats())
        return out


def _class_indices(targets, n: int, what: str) -> np.ndarray:
    """``targets`` as int64 row indices of ``np.eye(n)``: each must be an
    integer in [0, n), since numpy would read -1 as row n-1; else
    InputError."""
    if targets is None:
        raise InputError(f"the batch has no {what}")
    idx = np.asarray(targets).astype(np.int64)
    if np.any(idx != targets) or idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"{what} must be integers in [0, {n}) for this head")
    return idx


def pooled_tokens(values: np.ndarray) -> np.ndarray:
    """Fixed 4:1 token-granularity reduction of a raw sequence [B, T, V].

    Token i is the mean of the causal raw window (4i-3 .. 4i); this is the
    weight-free ground truth that next-token training and forecast scoring
    share.  The token count matches the tokenizer's length arithmetic.
    """
    values = np.asarray(values, dtype=np.float64)
    B, T, V = values.shape
    L = subsampled_length(T)
    out = np.zeros((B, L, V))
    for i in range(L):
        lo = max(0, 4 * i - 3)
        out[:, i, :] = values[:, lo : 4 * i + 1, :].mean(axis=1)
    return out
