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

Sequences always run through chunk-wise retention.  One-token continuation
(:meth:`DecoderLayer.step`, the decode step of :meth:`Model.generate`) runs
the recurrent form on plain numpy arrays: the same float operations, in
the same order, as the Tensor ops, with no ``Tensor`` built per layer.
What is fixed for one ``generate`` call (parameter arrays, the stacked
q|k|v weight, rotation rows, decay and batch-norm factors) is computed once
per call into a decode plan (:class:`LayerDecode`), never cached across
calls: training between two calls would leave a cached plan stale.  The
parallel form is kept as a reference: ``form="parallel"`` on
:meth:`Model.encode`, :meth:`Model.forward` and :meth:`Model.pretrain_loss`
selects it for equivalence checks.  Eval passes (``train=False``) and
:meth:`Model.generate` run under :func:`~tsgpt.tensor.no_grad`: they record
no autodiff tape.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .convolution import ConvDecode, ConvSubsampler, TemporalConvModule, subsampled_length
from .datagen import SequenceBatch
from .errors import CheckpointError, ConfigError, DataError, InputError, TaskError
from .positional import RotaryAngles, default_gammas, merge_heads, rotate_array, rotation_tables, xpos_qk, _split_heads
from .retention import (
    ChunkPlan,
    DecayMask,
    RetentionState,
    _decay_factor,
    retention_chunkwise,
    retention_parallel,
    retention_recurrent,
)
from .tensor import (
    Rng,
    Tensor,
    add,
    broadcast_to,
    concat,
    layer_norm,
    layer_norm_array,
    linear,
    log_softmax,
    matmul,
    mul,
    no_grad,
    read_ndar1,
    sub,
    swish_array,
    tmean,
    tsum,
    write_ndar1,
)

HEAD_KINDS = ("next_token", "classification", "regression")
CHECKPOINT_FORMAT = "tsgpt-ckpt-v2"
FFN_EXPANSION = 4  # feed-forward width per model width


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


def multihead_retention(
    x,
    w_q,
    w_k,
    w_v,
    w_out,
    b_out,
    positions: np.ndarray,
    angles: RotaryAngles,
    gammas,
    norm_gain,
    norm_bias,
    form: str | None = None,
    chunk_size: int = 64,
    apply_rotation: bool = True,
):
    """Per-head rotary q/k, retention, head concat, per-token layer norm
    (``norm_gain``, ``norm_bias``: [h*d_v]), output projection.

    ``form`` None (or "chunkwise") runs the chunk-wise form; "recurrent"
    and "parallel" select the other two.  x: [..., L, d_model]; w_q/w_k:
    [d_model, h*d_q]; w_v: [d_model, h*d_v]; w_out: [h*d_v, d_model].  Head
    count comes from len(gammas).  Returns (out [..., L, d_model], state),
    the retention state after the last token (None under the parallel
    form).
    """
    gammas = np.asarray(gammas, dtype=np.float64)
    heads = gammas.shape[0]
    q, k = xpos_qk(x, w_q, w_k, positions, angles, heads, apply_rotation=apply_rotation)
    v = _split_heads(matmul(x, w_v), heads)
    L = q.shape[-2]

    state = None
    if form is None or form == "chunkwise":
        out, state = retention_chunkwise(q, k, v, positions, gammas, ChunkPlan.build(L, chunk_size))
    elif form == "recurrent":
        out, state = retention_recurrent(q, k, v, positions, gammas)
    elif form == "parallel":
        out = retention_parallel(q, k, v, DecayMask.build(gammas, timestamps=positions))
    else:
        raise ConfigError(f"unknown retention form {form!r}")
    merged = layer_norm(merge_heads(out), norm_gain, norm_bias)
    return linear(merged, w_out, b_out), state


class DecoderLayer:
    """Pre-norm retention -> temporal convolution -> pre-norm feed-forward."""

    def __init__(self, cfg: ModelConfig, rng: Rng):
        self.cfg = cfg
        d, h = cfg.d_model, cfg.heads
        wq = h * cfg.d_q
        wv = h * cfg.d_v

        def u(tag, shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.child(tag).uniform(shape, -bound, bound))

        self.ln1_gain = Tensor(np.ones(d))
        self.ln1_bias = Tensor(np.zeros(d))
        self.w_q = u("w_q", (d, wq), d)
        self.w_k = u("w_k", (d, wq), d)
        self.w_v = u("w_v", (d, wv), d)
        self.ret_gain = Tensor(np.ones(wv))
        self.ret_bias = Tensor(np.zeros(wv))
        self.w_o = u("w_o", (wv, d), wv)
        self.b_o = Tensor(np.zeros(d))
        self.tconv = None if cfg.no_temporal_conv else TemporalConvModule(d, cfg.conv_kernel, rng.child("tconv"))
        self.ln2_gain = Tensor(np.ones(d))
        self.ln2_bias = Tensor(np.zeros(d))
        f = FFN_EXPANSION * d
        self.ffn_w1 = u("ffn_w1", (d, f), d)
        self.ffn_b1 = Tensor(np.zeros(f))
        self.ffn_w2 = u("ffn_w2", (f, d), f)
        self.ffn_b2 = Tensor(np.zeros(d))
        self.angles = RotaryAngles(cfg.d_q)
        self.gammas = cfg.gammas

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

    def _retention_inner(self, h: Tensor, positions: np.ndarray, form: str | None):
        cfg = self.cfg
        return multihead_retention(
            h, self.w_q, self.w_k, self.w_v, self.w_o, self.b_o,
            positions, self.angles, self.gammas, self.ret_gain, self.ret_bias,
            form=form, chunk_size=cfg.chunk_size, apply_rotation=not cfg.no_rotation,
        )

    def _ffn(self, x: Tensor) -> Tensor:
        h = layer_norm(x, self.ln2_gain, self.ln2_bias)
        h = linear(h, self.ffn_w1, self.ffn_b1, swish_out=True)
        return linear(h, self.ffn_w2, self.ffn_b2)

    def forward(
        self,
        x: Tensor,
        positions: np.ndarray,
        train: bool,
        form: str | None = None,
        valid: np.ndarray | None = None,
        capture: dict | None = None,
    ):
        """Whole-sequence pass; returns (x, retention state after the last
        token), the state being None under the parallel reference form."""
        r, state = self._retention_inner(layer_norm(x, self.ln1_gain, self.ln1_bias), positions, form)
        x = add(x, r)
        if self.tconv is not None:
            x = self.tconv.forward(x, train=train, valid=valid, capture=capture)
        x = add(x, self._ffn(x))
        return x, state

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

    def __init__(self, layer: DecoderLayer, state: RetentionState, conv_buf: np.ndarray | None):
        cfg = layer.cfg
        B = state.s.shape[0]
        self.ln1_gain, self.ln1_bias = layer.ln1_gain.value, layer.ln1_bias.value
        self.w_qkv = np.concatenate([layer.w_q.value, layer.w_k.value, layer.w_v.value], axis=1)
        self.qk_width = cfg.heads * cfg.d_q
        self.qk_shape = (B, 1, cfg.heads, cfg.d_q)
        self.v_shape = (B, 1, cfg.heads, cfg.d_v)
        self.r_shape = (B, 1, cfg.heads * cfg.d_v)
        self.s = state.s.copy()
        self.fac = _decay_factor(layer.gammas, 1)
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

        def u(tag, shape, fan_in):
            bound = 1.0 / np.sqrt(fan_in)
            return Tensor(rng.child(tag).uniform(shape, -bound, bound))

        self.subsampler = None if config.no_subsampler else ConvSubsampler(V, rng.child("subsampler"))
        self.w_in = u("w_in", (V, D), V)
        self.b_in = Tensor(np.zeros(D))
        self.sos = u("sos", (1, 1, D), D)
        self.layers = [DecoderLayer(config, rng.child(f"layer{i}")) for i in range(config.layers)]
        if config.head_kind == "next_token":
            self.w_head = u("w_head", (D, V), D)
            self.b_head = Tensor(np.zeros(V))
        elif config.head_kind == "classification":
            self.w_head = u("w_head", (D, config.n_classes), D)
            self.b_head = Tensor(np.zeros(config.n_classes))
        else:
            self.w_head = u("w_head", (D, 1), D)
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
        values = np.asarray(batch.values, dtype=np.float64)
        if values.ndim != 3:
            raise InputError(f"batch values must be [B, T, V], got {values.shape}")
        if values.shape[-1] != self.cfg.n_inputs:
            raise InputError(f"batch has {values.shape[-1]} variates, model expects {self.cfg.n_inputs}")
        if self.subsampler is not None:
            if batch.timestamps is not None:
                raise ConfigError("subsampling is undefined for irregular timestamps; use no_subsampler")
            feats = self.subsampler.forward(Tensor(values))
            positions = np.arange(1, feats.shape[1] + 1, dtype=np.int64)
        else:
            feats = Tensor(values)
            if batch.timestamps is not None:
                positions = np.asarray(batch.timestamps, dtype=np.int64)
            else:
                positions = np.arange(1, values.shape[1] + 1, dtype=np.int64)
        return feats, positions

    @_untaped_in_eval
    def encode(
        self,
        batch: SequenceBatch,
        *,
        train: bool = False,
        form: str | None = None,
        want_states: bool = False,
        capture: list | None = None,
    ):
        """Hidden states [B, L+1, d_model]: position 0 is the start token.

        ``form`` None runs chunk-wise retention; "parallel" or "recurrent"
        selects a reference form.  ``want_states`` also returns each
        layer's retention state and the positions, for continuation.
        """
        feats, positions = self._token_features(batch)
        B = feats.shape[0]
        emb = linear(feats, self.w_in, self.b_in)
        x = concat([broadcast_to(self.sos, (B, 1, self.cfg.d_model)), emb], axis=1)
        if positions.ndim == 1:
            pos = np.concatenate([[0], positions]).astype(np.int64)
        else:
            pos = np.concatenate([np.zeros((B, 1), dtype=np.int64), positions], axis=1)
        valid = batch.valid
        if valid is not None:
            valid = np.concatenate([np.ones((B, 1)), np.asarray(valid, dtype=np.float64)], axis=1)
        states = []
        for layer in self.layers:
            cap = None
            if capture is not None:
                cap = {}
                capture.append(cap)
            x, st = layer.forward(x, pos, train=train, form=form, valid=valid, capture=cap)
            if want_states:
                states.append(st)
            del st  # an unused state would hold its part of the tape through the next layer
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
            if batch.codes is None:
                raise InputError("discrete pretraining needs integer codes in the batch")
            logp = log_softmax(preds)
            onehot = np.eye(self.cfg.n_inputs)[np.asarray(batch.codes, dtype=np.int64)]
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
        logits = self.classify_logits(batch, train=train)
        logp = log_softmax(logits)
        onehot = np.eye(self.cfg.n_classes)[np.asarray(batch.labels, dtype=np.int64)]
        return tmean(tsum(mul(logp, mul(onehot, -1.0)), axis=-1))

    @_untaped_in_eval
    def regression_output(self, batch: SequenceBatch, *, train: bool = False) -> Tensor:
        if self.cfg.head_kind != "regression":
            raise TaskError(f"regression needs a regression head, model has {self.cfg.head_kind!r}")
        return self._head(self.mean_hidden(batch, train=train))

    @_untaped_in_eval
    def regression_loss(self, batch: SequenceBatch, *, train: bool = True) -> Tensor:
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
        windows: O(1) per token, and no ``Tensor`` but the head's, which
        every token leaves through ``self._head``.  The outputs are bitwise
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

        capture: list[dict] = []
        x, states, pos = self.encode(prompt, train=False, want_states=True, capture=capture)
        preds = [self._head(x[:, -1:, :]).value]  # each [B, 1, V]
        # the decode plan comes after the first head call, so that the time
        # to the first token does not include it; the last prediction needs
        # no step after it
        plans = [LayerDecode(layer, st, cap.get("dw_input")) for layer, st, cap in zip(self.layers, states, capture)]
        w_in, b_in = self.w_in.value, self.b_in.value
        for cos, sin in self._rotation_rows(int(pos[-1]) + 1, horizon - 1):
            h = preds[-1] @ w_in
            h += b_in
            for layer, plan in zip(self.layers, plans):
                h = layer.step(h, plan, cos, sin)
            preds.append(self._head(h).value)
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
