import importlib.util
import json
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tsgpt.model as tm
from tsgpt import tensor
from tsgpt.convolution import TemporalConvModule, subsampled_length
from tsgpt.datagen import EventCohortSpec, SequenceBatch, SignalSpec, gen_cohort, gen_signal
from tsgpt.errors import CheckpointError, ConfigError, ContractError, InputError, TaskError
from tsgpt.experiments import VANILLA_FLAGS, extrapolation_model, irregular_cohort_spec, irregular_model
from tsgpt.model import DecoderLayer, Geometry, Model, ModelConfig, feed_forward, pooled_tokens, retention_output
from tsgpt.positional import RotaryAngles, project_heads, rotation_tables
from tsgpt.retention import ChunkPlan, DecayMask, retention_chunkwise
from tsgpt.tensor import BLOCK_ELEMENTS, Rng, Tensor, backward, mul, no_grad, tsum, zero_grads
from tsgpt.training import OptimState, adam_step

from oracles import (
    assert_grads_own_memory,
    broadcast_to,
    concat,
    feed_forward_taped,
    finite_diff_grad,
    generate_by_reencoding,
    generate_by_tensor_steps,
    rel_err,
    retention_output_taped,
    taped_stack,
)


def tiny_cfg(**kw):
    base = dict(layers=2, heads=2, d_q=8, d_v=8, n_inputs=2, conv_kernel=5, seed=0)
    base.update(kw)
    return ModelConfig(**base)


def signal_batch(T=32, V=2, B=3, seed=5):
    batch, _ = gen_signal(SignalSpec(length=T, variates=V, n_sequences=B, seed=seed))
    return batch


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_model_config_fields_are_pinned():
    assert [f.name for f in fields(ModelConfig)] == [
        "layers", "heads", "d_q", "d_v", "chunk_size", "gamma", "conv_kernel", "no_subsampler",
        "no_temporal_conv", "no_decay", "no_rotation", "head_kind", "n_inputs", "n_classes", "discrete", "seed",
    ]
    assert ModelConfig(heads=2, d_q=8).d_model == 16


def test_config_rotation_decay_coupling():
    with pytest.raises(ConfigError):
        ModelConfig(no_rotation=True, no_decay=False)
    cfg = ModelConfig(no_rotation=True, no_decay=True)
    np.testing.assert_array_equal(cfg.gammas, np.ones(cfg.heads))


def test_config_discrete_requires_no_subsampler():
    with pytest.raises(ConfigError):
        ModelConfig(discrete=True, no_subsampler=False)


def test_config_unknown_enums():
    with pytest.raises(ConfigError):
        ModelConfig(head_kind="segmentation")


def test_default_gamma_schedule_is_per_head():
    cfg = ModelConfig(heads=3)
    np.testing.assert_allclose(cfg.gammas, [1 - 2**-6, 1 - 2**-7, 1 - 2**-8])
    cfg2 = ModelConfig(heads=3, gamma=0.9)
    np.testing.assert_array_equal(cfg2.gammas, [0.9, 0.9, 0.9])


# ---------------------------------------------------------------------------
# forward contract
# ---------------------------------------------------------------------------


def test_forward_shapes_with_and_without_subsampler():
    batch = signal_batch(T=32)
    m = Model(tiny_cfg())
    out = m.forward(batch, train=True)
    assert out.shape == (3, subsampled_length(32), 16)

    m2 = Model(tiny_cfg(no_subsampler=True))
    out2 = m2.forward(batch, train=True)
    assert out2.shape == (3, 32, 16)


def test_zero_layer_model_is_input_projection_only():
    batch = signal_batch(T=16)
    m = Model(tiny_cfg(layers=0, no_subsampler=True))
    out = m.forward(batch)
    want = batch.values @ m.w_in.value + m.b_in.value
    np.testing.assert_allclose(out.value, want, atol=1e-15)


def test_timestamps_with_subsampler_is_config_error():
    spec = EventCohortSpec(vocab=8, classes=2, subjects=4, min_events=10, max_events=12, seed=1)
    cohort, _ = gen_cohort(spec)
    m = Model(tiny_cfg(n_inputs=8))
    with pytest.raises(ConfigError):
        m.forward(cohort)


def test_vanilla_ablation_runs_and_changes_nothing_structural():
    # all ablation flags on: plain decoder baseline still runs end to end
    batch = signal_batch(T=32)
    cfg = tiny_cfg(no_subsampler=True, no_temporal_conv=True, no_decay=True, no_rotation=True)
    m = Model(cfg)
    loss = m.pretrain_loss(batch, train=True)
    assert np.isfinite(loss.value)
    np.testing.assert_array_equal(cfg.gammas, np.ones(2))


def test_full_stack_causality_perturbation_eval_mode():
    rng = Rng(33)
    batch = signal_batch(T=24, B=2, seed=7)
    m = Model(tiny_cfg(no_subsampler=True, seed=3))
    m.pretrain_loss(batch, train=True)  # prime batch-norm statistics
    base = m.forward(batch).value
    t = 11
    vals = batch.values.copy()
    vals[:, t:, :] += rng.normal(vals[:, t:, :].shape)
    pert = Model.forward(m, SequenceBatch(values=vals)).value
    np.testing.assert_array_equal(base[:, :t], pert[:, :t])
    assert np.any(base[:, t:] != pert[:, t:])


def test_full_stack_chunkwise_and_parallel_forms_agree():
    batch = signal_batch(T=32)
    m = Model(tiny_cfg(chunk_size=3))
    m.pretrain_loss(batch, train=True)
    ref = m.forward(batch, form="parallel").value
    for form in (None, "chunkwise"):
        out = m.forward(batch, form=form).value
        assert np.max(np.abs(out - ref)) < 1e-9

    # padded irregular event cohort, several chunks long: the default
    # (chunk-wise) encode against the parallel reference
    spec = EventCohortSpec(vocab=6, subjects=5, min_events=14, max_events=23, seed=4)
    cohort, _ = gen_cohort(spec)
    assert cohort.valid.min() == 0.0 and cohort.values.shape[1] > 2 * 8
    m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, chunk_size=8))
    m.pretrain_loss(cohort, train=True)
    ref = m.encode(cohort, form="parallel").value
    assert np.max(np.abs(m.encode(cohort).value - ref)) < 1e-9


def _layer_with(cfg, rng):
    """A decoder layer whose parameters are all random draws."""
    layer = DecoderLayer(cfg, Rng(0))
    for _, p in layer.named_params():
        p.value = rng.normal(p.value.shape)
    return layer


def test_multihead_retention_single_head_reduces_to_parallel_compose():
    from tsgpt.positional import rotate_array
    from tsgpt.retention import retention_parallel
    from tsgpt.tensor import layer_norm_array

    rng = Rng(41)
    L, D = 6, 4
    layer = _layer_with(tiny_cfg(heads=1, d_q=D, d_v=D, gamma=0.9), rng)
    x = rng.normal((1, L, D))
    h = rng.normal((1, L, D))
    positions = np.arange(L)
    out, _ = layer._retention_inner(Tensor(h), Tensor(x), Geometry.build(layer.cfg, positions, "chunkwise"))
    # manual composition: rotate projections, one parallel head, layer norm, project out, residual
    cos, sin = rotation_tables(positions, RotaryAngles(D))
    q = rotate_array(h @ layer.w_q.value, cos, sin)
    k = rotate_array(h @ layer.w_k.value, cos, sin)
    ret = retention_parallel(q, k, h @ layer.w_v.value, DecayMask.build(0.9, length=L))
    want = x + layer_norm_array(ret.value, layer.ret_gain.value, layer.ret_bias.value)[0] @ layer.w_o.value
    want += layer.b_o.value
    assert np.max(np.abs(out.value - want)) < 1e-12


def test_multihead_retention_chunkwise_and_parallel_forms_agree():
    rng = Rng(42)
    L, h, dh = 11, 2, 4
    layer = _layer_with(tiny_cfg(heads=h, d_q=dh, d_v=dh, chunk_size=4), rng)
    x = Tensor(rng.normal((2, L, h * dh)))
    # a geometry with faster decays than the config's schedule
    pos, gammas = np.arange(L), np.array([0.95, 0.8])
    tables = rotation_tables(pos, RotaryAngles(dh))
    decay = {"parallel": DecayMask.build(gammas, timestamps=pos), "chunkwise": ChunkPlan.build(pos, gammas, 4)}
    outs = {}
    for form in ("parallel", "chunkwise"):
        out, _ = layer._retention_inner(x, x, Geometry(form, tables, decay[form]))
        outs[form] = out.value
    assert np.max(np.abs(outs["parallel"] - outs["chunkwise"])) < 1e-9


def test_encode_rejects_the_recurrent_form():
    """The stack runs chunk-wise or the parallel reference; the recurrent
    form is the decode step's, not a form an encode selects."""
    assert tm.RETENTION_FORMS == ("chunkwise", "parallel")
    with pytest.raises(ConfigError):
        Model(tiny_cfg()).encode(signal_batch(T=16), form="recurrent")


# B (None: no batch axis), L, heads, d_v, d_model, rows per block (None: one
# block), padded: the fused sublayer glue against its composite oracle
GLUE_CASES = {
    "unbatched": (None, 6, 2, 3, 4, None, False),
    "b1": (1, 7, 2, 3, 5, None, False),
    "ragged-blocks": (5, 7, 2, 3, 4, 2, False),
    "padded-valid": (4, 6, 3, 2, 5, 3, True),
}


def _glue_inputs(case, kind):
    """Inputs of ``retention_output`` (ret, gain, bias, w_o, b_o, residual)
    or ``feed_forward`` (x, ln gain, ln bias, w1, b1, w2, b2), the loss
    weights (zero at padded positions) and the row width that sizes the
    node's blocks."""
    B, L, h, dv, d, rows, padded = GLUE_CASES[case]
    rng = Rng(70).child(case + kind)
    lead = () if B is None else (B,)
    if kind == "retention_output":
        w = h * dv
        arrays = [rng.normal(lead + (h, L, dv)), 1.0 + rng.normal((w,), 0.3), rng.normal((w,), 0.3),
                  rng.normal((w, d)), rng.normal((d,)), rng.normal(lead + (L, d))]
        width = max(w, d)
    else:
        f = 4 * d
        arrays = [rng.normal(lead + (L, d)), 1.0 + rng.normal((d,), 0.3), rng.normal((d,), 0.3),
                  rng.normal((d, f)), rng.normal((f,)), rng.normal((f, d)), rng.normal((d,))]
        width = f
    weights = rng.normal(lead + (L, d))
    if padded:
        weights[0, L // 2 :] = 0.0
        weights[-1, L - 1 :] = 0.0
    return arrays, weights, L * width, rows


# name: (fused node, its composite oracle, FFN_KEEP_ELEMENTS): the
# feed-forward both keeping its hidden activation and recomputing it
GLUE_NODES = {
    "retention_output": (retention_output, retention_output_taped, None),
    "feed_forward-keep": (feed_forward, feed_forward_taped, 1 << 30),
    "feed_forward-recompute": (feed_forward, feed_forward_taped, 0),
}


def _glue_node(kind, monkeypatch):
    fused, oracle, keep_elements = GLUE_NODES[kind]
    if keep_elements is not None:
        monkeypatch.setattr(tm, "FFN_KEEP_ELEMENTS", keep_elements)
    return fused, oracle


@pytest.mark.parametrize("case", list(GLUE_CASES))
@pytest.mark.parametrize("kind", list(GLUE_NODES))
def test_fused_glue_equals_composite_oracle(kind, case, monkeypatch):
    """The output is bitwise the composite of Tensor ops, on the tape or
    not; every gradient agrees within 1e-12."""
    fused, oracle = _glue_node(kind, monkeypatch)
    arrays, weights, row_width, rows = _glue_inputs(case, kind)
    if rows is not None:
        monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", rows * row_width)
    with no_grad():
        eval_out = fused(*(Tensor(a) for a in arrays))
    ins = [[Tensor(a) for a in arrays] for _ in range(2)]
    outs = [fused(*ins[0]), oracle(*ins[1])]
    assert outs[0].value.tobytes() == outs[1].value.tobytes() == eval_out.value.tobytes()
    assert eval_out._backward is None and outs[0]._parents == tuple(ins[0])
    for o in outs:
        backward(tsum(mul(o, weights)))
    for a, b in zip(*ins):
        assert rel_err(a.grad, b.grad) < 1e-12
    assert_grads_own_memory(ins[0])


@pytest.mark.parametrize("kind", list(GLUE_NODES))
def test_fused_glue_gradients_match_finite_differences(kind, monkeypatch):
    fused, _ = _glue_node(kind, monkeypatch)
    arrays, weights, row_width, rows = _glue_inputs("padded-valid", kind)
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", rows * row_width)
    ins = [Tensor(a) for a in arrays]
    backward(tsum(mul(fused(*ins), weights)))

    def loss():
        with no_grad():
            return tsum(mul(fused(*(Tensor(a) for a in arrays)), weights)).value

    for i, (t, a) in enumerate(zip(ins, arrays)):
        assert rel_err(t.grad, finite_diff_grad(loss, a)) < 1e-7, i


def _fused_node_case(name):
    """(the node as a function of its operands, the operands as Tensors)."""
    rng = Rng(33).child(name)
    B, L, d = 2, 5, 4
    if name == "temporal_block":  # its operands past the input are the block's own parameters
        block = TemporalConvModule(d, 3, Rng(1))
        return (lambda x, *_: block.forward(x, train=True)), [Tensor(rng.normal((B, L, d)))] + [
            p for _, p in block.named_params()]
    tables = rotation_tables(np.arange(L), RotaryAngles(2))
    node, shapes = {
        "embed": (tm.embed, [(B, L, 2), (2, d), (d,), (1, 1, d)]),
        "layer_norm": (tensor.layer_norm, [(B, L, d), (d,), (d,)]),
        "linear": (tensor.linear, [(B, L, d), (d, 3), (3,)]),
        "swish": (tensor.swish, [(B, L, d)]),
        "conv1d": (lambda x, w, b: tensor.conv1d(x, w, b, stride=2, pad_left=2), [(B, L, 2), (3, 2, 3), (3,)]),
        "project_heads": (lambda x, w: project_heads(x, w, 2, *tables), [(B, L, d), (d, d)]),
        "retention_chunkwise": (lambda q, k, v: retention_chunkwise(q, k, v, ChunkPlan.build(np.arange(L), 0.9, 2))[0],
                                [(B, 2, L, 3)] * 3),
    }[name]
    return node, [Tensor(rng.normal(shape)) for shape in shapes]


@pytest.mark.parametrize("name", ["embed", "layer_norm", "linear", "swish", "conv1d", "project_heads",
                                  "retention_chunkwise", "temporal_block"])
def test_fused_node_records_exactly_its_operands_as_parents(name):
    """Every fused node takes Tensor operands and records each of them as a
    parent, in order, and hands each one a gradient of its shape."""
    node, ins = _fused_node_case(name)
    out = node(*ins)
    assert out._parents == tuple(ins)
    backward(tsum(mul(out, 1.0)))
    assert all(t.grad is not None and t.grad.shape == t.value.shape for t in ins)


@pytest.mark.parametrize("B", [1, 3])
def test_embed_equals_broadcast_concat_linear(B):
    """The start token and the input projection as one node: value and
    every gradient bitwise those of the broadcast, linear and concat nodes;
    the node keeps only its inputs."""
    rng = Rng(31)
    L, V, d = 6, 2, 4
    arrays = [rng.normal((B, L, V)), rng.normal((V, d)), rng.normal((d,)), rng.normal((1, 1, d))]
    weights = rng.normal((B, L + 1, d))
    ins = [[Tensor(a) for a in arrays] for _ in range(2)]
    feats, w, b, sos = ins[1]
    outs = [tm.embed(*ins[0]), concat([broadcast_to(sos, (B, 1, d)), tensor.linear(feats, w, b)], axis=1)]
    assert outs[0].value.tobytes() == outs[1].value.tobytes()
    assert outs[0]._parents == tuple(ins[0])
    cells = [c.cell_contents for c in outs[0]._backward.__closure__]
    assert not any(isinstance(c, np.ndarray) and c.size > max(a.size for a in arrays) for c in cells)
    for o in outs:
        backward(tsum(mul(o, weights)))
    for x, y in zip(*ins):
        assert x.grad.tobytes() == y.grad.tobytes()
    assert_grads_own_memory(ins[0])


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label", [-1, 2])
def test_classification_loss_rejects_labels_outside_the_classes(label):
    """np.eye(n)[-1] is class n-1 and np.eye(n)[n] an IndexError: both are
    refused as input errors."""
    cohort = padded_cohort()
    labels = cohort.labels.copy()
    labels[1] = label
    m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, head_kind="classification", n_classes=2))
    with pytest.raises(InputError, match="labels"):
        m.classification_loss(SequenceBatch(cohort.values, cohort.timestamps, cohort.codes, cohort.valid, labels))


@pytest.mark.parametrize("head", ["classification", "regression"])
def test_pooled_losses_reject_a_batch_without_labels(head):
    m = Model(tiny_cfg(no_subsampler=True, head_kind=head))
    with pytest.raises(InputError, match="no labels"):
        m.loss(signal_batch(T=8))


def test_discrete_pretrain_loss_rejects_codes_beyond_the_vocabulary():
    cohort = padded_cohort(vocab=6)
    m = Model(tiny_cfg(n_inputs=5, discrete=True, no_subsampler=True))
    batch = SequenceBatch(cohort.values[..., :5], cohort.timestamps, cohort.codes, cohort.valid)
    assert cohort.codes.max() == 5
    with pytest.raises(InputError, match="codes"):
        m.pretrain_loss(batch)


def test_pretrain_loss_too_short_sequence():
    m = Model(tiny_cfg(no_subsampler=True))
    with pytest.raises(InputError):
        m.pretrain_loss(SequenceBatch(values=np.zeros((1, 1, 2))))


def test_pretrain_loss_identity_shift_oracle():
    # zero-layer identity-ish model: loss reduces to the mean squared
    # one-step difference between consecutive tokens plus the first-token
    # term, computable directly from the data
    batch = signal_batch(T=8, V=1, B=2, seed=9)
    m = Model(tiny_cfg(layers=0, heads=1, d_q=2, d_v=2, n_inputs=1, no_subsampler=True))
    # make head output exactly the previous token value: w_in pseudo-inverse path
    m.w_in.value = np.array([[1.0, 0.0]])
    m.b_in.value[:] = 0.0
    m.w_head.value = np.array([[1.0], [0.0]])
    m.b_head.value[:] = 0.0
    m.sos.value[:] = 0.0
    loss = m.pretrain_loss(batch, train=False).value
    vals = batch.values[:, :, 0]
    preds = np.concatenate([np.zeros((2, 1)), vals[:, :-1]], axis=1)
    want = np.mean((preds - vals) ** 2)
    assert abs(loss - want) < 1e-12


def test_discrete_pretrain_loss_saturates_on_single_class_stream():
    # one event code everywhere: cross-entropy -> 0 as logits saturate
    B, L, V = 2, 12, 4
    codes = np.zeros((B, L), dtype=np.int64)
    ts = np.tile(np.arange(1, L + 1), (B, 1))
    batch = SequenceBatch(values=np.eye(V)[codes], timestamps=ts, codes=codes)
    m = Model(tiny_cfg(n_inputs=V, discrete=True, no_subsampler=True, no_temporal_conv=True, layers=0))
    m.b_head.value = np.array([30.0, 0.0, 0.0, 0.0])  # saturated logits for code 0
    loss = m.pretrain_loss(batch, train=False).value
    assert loss < 1e-10


def test_classification_loss_and_logits_shapes():
    spec = EventCohortSpec(vocab=8, classes=3, subjects=6, min_events=10, max_events=14, seed=2)
    cohort, _ = gen_cohort(spec)
    cfg = tiny_cfg(n_inputs=8, discrete=True, no_subsampler=True, head_kind="classification", n_classes=3)
    m = Model(cfg)
    logits = m.classify_logits(cohort, train=True)
    assert logits.shape == (6, 3)
    loss = m.classification_loss(cohort, train=True)
    backward(loss)
    assert all(p.grad is not None for _, p in m.named_params())


def test_head_task_errors():
    batch = signal_batch()
    m = Model(tiny_cfg(head_kind="classification"))
    with pytest.raises(TaskError):
        m.pretrain_loss(batch)
    with pytest.raises(TaskError):
        m.generate(batch, horizon=2)
    m2 = Model(tiny_cfg())
    with pytest.raises(TaskError):
        m2.classify_logits(batch)


# ---------------------------------------------------------------------------
# tape-free eval
# ---------------------------------------------------------------------------


def padded_cohort(vocab=6, classes=2):
    spec = EventCohortSpec(vocab=vocab, classes=classes, subjects=5, min_events=14, max_events=23, seed=4)
    cohort, _ = gen_cohort(spec)
    assert cohort.valid.min() == 0.0
    return cohort


def reachable(t):
    """Every tensor the recorded graph keeps alive from ``t`` (itself included)."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.mark.parametrize("irregular", [False, True])
def test_eval_encode_untaped_equals_taped_stack(irregular):
    if irregular:
        batch = padded_cohort()
        m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, chunk_size=8))
    else:
        batch = signal_batch(T=32)
        m = Model(tiny_cfg(chunk_size=3))
    m.pretrain_loss(batch, train=True)  # prime batch-norm statistics
    feats = m._token_features(batch)[0].value
    B, L = feats.shape[:2]
    if irregular:
        pos = np.concatenate([np.zeros((B, 1), dtype=np.int64), batch.timestamps], axis=1)
        valid = np.concatenate([np.ones((B, 1)), batch.valid], axis=1)
    else:
        pos, valid = np.arange(L + 1, dtype=np.int64), None
    ref = taped_stack(m, feats, pos, valid=valid)
    assert len(reachable(ref)) > 50
    out = m.encode(batch, train=False)
    assert out._parents == () and out._backward is None
    np.testing.assert_array_equal(out.value, ref.value)


def test_eval_classify_keeps_no_tape_alive():
    cohort = padded_cohort(vocab=8, classes=3)
    m = Model(tiny_cfg(n_inputs=8, discrete=True, no_subsampler=True, head_kind="classification", n_classes=3,
                       chunk_size=8))
    taped = m.classify_logits(cohort, train=True)
    assert len(reachable(taped)) >= 70
    logits = m.classify_logits(cohort, train=False)
    assert len(reachable(logits)) <= 10


@pytest.mark.parametrize("irregular, limit", [(False, 28), (True, 27)])
def test_train_step_tape_size_is_pinned(irregular, limit):
    """Per layer, the pre-norm, each of q, k and v (projection, head split
    and rotation), chunk-wise retention, the retention output glue (head
    merge, norm, projection, residual), the temporal convolution block and
    the feed-forward with its residual record one node each, which keeps a
    train step of this 2-layer model within these counts."""
    if irregular:
        batch = padded_cohort()
        m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, chunk_size=8))
    else:
        batch = signal_batch(T=32)
        m = Model(tiny_cfg(chunk_size=8))
    nodes = [t for t in reachable(m.loss(batch, train=True)) if t._backward is not None]
    assert len(nodes) <= limit


@pytest.mark.parametrize("irregular", [False, True])
def test_backward_frees_every_swept_node_and_keeps_param_grads(irregular):
    if irregular:
        batch = padded_cohort()
        m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, chunk_size=8))
    else:
        batch = signal_batch(T=32)
        m = Model(tiny_cfg(chunk_size=8))
    loss = m.loss(batch, train=True)
    inner = [t for t in reachable(loss) if t._backward is not None]
    backward(loss)
    for t in inner:
        assert t.grad is None and t._parents == ()
        with pytest.raises(ContractError, match="already consumed"):
            t._backward(np.ones(t.shape))
    params = [p for _, p in m.named_params()]
    assert all(p.grad is not None for p in params)
    assert_grads_own_memory(params)


def _train_forward_memory(monkeypatch, threads: int) -> tuple:
    """Traced bytes (at the start, held after, peak) of a second train
    forward whose feed-forward recomputes its activation, as batches above
    ``FFN_KEEP_ELEMENTS`` do, on ``threads`` threads."""
    monkeypatch.setattr(tm, "FFN_KEEP_ELEMENTS", 0)
    monkeypatch.setattr(tensor, "BLOCK_THREADS", threads)
    m = Model(tiny_cfg(layers=1, n_inputs=1, conv_kernel=3, no_subsampler=True))
    batch = SequenceBatch(values=Rng(1).normal((8, 510, 1)))  # 511 positions x 64 hidden fit one block
    assert 511 * 64 <= BLOCK_ELEMENTS < 2 * 511 * 64
    m.loss(batch, train=True)  # first-pass set-up (running statistics) and the worker's start off the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = m.loss(batch, train=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss._backward is not None
    return base, held, peak


def test_train_forward_allocates_only_what_its_tape_keeps(monkeypatch):
    """Every full-size kernel of a train forward allocates only the arrays it
    returns or keeps, and the fused sublayers make their other arrays one
    block of batch rows at a time, so on one thread the traced peak exceeds
    what the finished tape holds by at most one block's temporaries.  The
    feed-forward runs last and has the widest blocks: beside its hidden
    activation and sigmoid (at most ``BLOCK_ELEMENTS`` elements each per
    block) live the layer norm's output and centred input, each a quarter
    of that: 2.5 blocks in all, bounded here by 3.  The whole batch's
    hidden activation is 8 blocks."""
    base, held, peak = _train_forward_memory(monkeypatch, 1)
    assert held - base > 16 * BLOCK_ELEMENTS * 8
    assert peak - held <= 3 * BLOCK_ELEMENTS * 8


def test_train_forward_on_two_threads_allocates_one_block_more_per_thread(monkeypatch):
    """As above with the worker: its blocks add their own temporaries (3
    blocks), and the one ufunc buffer of numpy's and the hand-off's few
    small objects that its calls borrow.  100 two-thread forwards peaked at
    3.7 blocks above what the tape holds."""
    base, held, peak = _train_forward_memory(monkeypatch, 2)
    assert held - base > 16 * BLOCK_ELEMENTS * 8
    assert peak - held <= 2 * 3 * BLOCK_ELEMENTS * 8 + 8 * np.getbufsize() + 4096


def test_train_forward_at_the_long_pretraining_shape_keeps_at_most_60_mib():
    """One train forward of the extrapolation model at B=8, L=1024: each
    sublayer's tape keeps its input, not its intermediates."""
    assert 8 * 1025 * 4 * 32 > tm.FFN_KEEP_ELEMENTS  # the feed-forward recomputes its activation
    m = Model(extrapolation_model(1, vanilla=False))
    batch, _ = gen_signal(SignalSpec(length=1024, variates=1, n_sequences=8, seed=3))
    m.loss(batch, train=True)  # first-pass set-up (running statistics) off the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = m.loss(batch, train=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert loss._backward is not None
    assert held - base <= 60 * 2**20


def _trained_twin_batches():
    """(model, batch) pairs: the extrapolation model on B=8 signals of 1024
    tokens and the cohort model on 16 padded irregular subjects, each with
    perturbed parameters and batch-norm statistics from one train encode."""
    signal, _ = gen_signal(SignalSpec(length=1024, variates=1, n_sequences=8, seed=3))
    cohort, _ = gen_cohort(irregular_cohort_spec())
    cohort = SequenceBatch(values=cohort.values[:16], timestamps=cohort.timestamps[:16], valid=cohort.valid[:16],
                           codes=cohort.codes[:16])
    assert cohort.valid.min() == 0.0
    out = []
    for cfg, batch in ((extrapolation_model(1, vanilla=False), signal), (irregular_model(1, no_decay=False), cohort)):
        m = Model(cfg)
        rng = Rng(9)
        for name, p in m.named_params():
            p.value = p.value + 0.1 * rng.child(name).normal(p.value.shape)
        m.encode(batch, train=True)
        out.append((m, batch))
    return out


def _row(batch: SequenceBatch, i: int) -> SequenceBatch:
    return SequenceBatch(**{f: None if v is None else v[i : i + 1] for f, v in vars(batch).items()})


def test_rows_are_batch_invariant():
    """Each row's eval encode (and, for the signal, its forecast) is bitwise
    the same inside the batch and run alone: nothing blocks or reduces
    across rows, so the blocking can never depend on the batch size."""
    for m, batch in _trained_twin_batches():
        whole = m.encode(batch, train=False).value
        forecast = m.generate(batch, horizon=8) if batch.timestamps is None else None
        for i in range(whole.shape[0]):
            row = _row(batch, i)
            assert m.encode(row, train=False).value.tobytes() == whole[i : i + 1].tobytes()
            if forecast is not None:
                assert m.generate(row, horizon=8).tobytes() == forecast[i : i + 1].tobytes()


def test_benchmark_traced_entry_points_exist_and_retention_sees_the_whole_batch(monkeypatch):
    """The benchmark's tracer wraps ``vars(owner)[attr]`` for each of its
    targets, and its layer-0 check reads the first retention-kernel call's
    whole-batch [B, h, L, d] q/k/v: both must keep finding them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans.TARGETS:
        assert attr in vars(owner), (owner, attr)

    m, batch = _trained_twin_batches()[1]
    calls = []

    def seen(q, k, v, *args, **kwargs):
        calls.append((q.shape, k.shape, v.shape))
        return kernel(q, k, v, *args, **kwargs)

    kernel = tm.retention_chunkwise
    monkeypatch.setattr(tm, "retention_chunkwise", seen)
    m.encode(batch, train=False)
    B, L = batch.values.shape[0], batch.values.shape[1] + 1
    cfg = m.cfg
    assert calls == [((B, cfg.heads, L, cfg.d_q), (B, cfg.heads, L, cfg.d_q), (B, cfg.heads, L, cfg.d_v))] * cfg.layers


def test_encode_builds_its_geometry_once_for_all_layers(monkeypatch):
    """Every layer of one encode reads the same decay masks and rotation
    tables: a 3-layer encode builds as many as one layer needs."""
    import tsgpt.positional as tp

    counts = {"mask": 0, "tables": 0}
    build, tables = DecayMask.build.__func__, tp.rotation_tables

    def counted_build(cls, *args, **kwargs):
        counts["mask"] += 1
        return build(cls, *args, **kwargs)

    def counted_tables(*args):
        counts["tables"] += 1
        return tables(*args)

    monkeypatch.setattr(DecayMask, "build", classmethod(counted_build))
    for module in (tp, tm):  # wherever the package looks the tables up
        monkeypatch.setattr(module, "rotation_tables", counted_tables)
    cohort = padded_cohort()
    m = Model(tiny_cfg(layers=3, n_inputs=6, discrete=True, no_subsampler=True))
    assert cohort.values.shape[1] + 1 <= m.cfg.chunk_size  # one chunk: one mask
    m.encode(cohort, train=True)
    assert counts == {"mask": 1, "tables": 1}
    counts.update(mask=0, tables=0)
    # regular, 1025 positions in chunks of 64: 16 full chunks share one mask, the last needs its own
    m = Model(tiny_cfg(layers=3, n_inputs=1, no_subsampler=True))
    m.encode(SequenceBatch(values=Rng(3).normal((1, 1024, 1))), train=True)
    assert counts == {"mask": 2, "tables": 1}


@pytest.mark.parametrize("form", ["chunkwise", "parallel"])
def test_one_gamma_for_every_head_builds_one_mask_plane(form):
    """With every head on the same gamma, the decay masks have one head
    plane, and the retention sublayer's output and gradients are bitwise
    those of masks built with a plane per head."""
    cohort = padded_cohort()
    cfg = tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, gamma=0.9, chunk_size=8)
    B, T = cohort.values.shape[:2]
    pos = np.concatenate([np.zeros((B, 1), dtype=np.int64), cohort.timestamps], axis=1)
    geo = Geometry.build(cfg, pos, form)
    masks = [c.mask for c in geo.decay.chunks] if form == "chunkwise" else [geo.decay.matrix]
    assert all(m.shape[:2] == (B, 1) for m in masks)
    planes = ChunkPlan.build(pos, cfg.gammas, cfg.chunk_size) if form == "chunkwise" else DecayMask.build(
        cfg.gammas, timestamps=pos)
    per_head = Geometry(form, geo.tables, planes)
    layer = Model(cfg).layers[0]
    h = Rng(4).normal((B, T + 1, cfg.d_model))
    results = []
    for g in (geo, per_head):
        ht = Tensor(h)
        out, _ = layer._retention_inner(ht, ht, g)
        backward(tsum(mul(out, h)))
        results.append([out.value, ht.grad] + [p.grad for _, p in layer.named_params() if p.grad is not None])
        zero_grads([p for _, p in layer.named_params()])
    for a, b in zip(*results):
        assert a.tobytes() == b.tobytes()


def test_no_geometry_outlives_its_encode(monkeypatch):
    """The decay mask lives as long as the encode's graph: a train loss's
    tape keeps it until its backward has run, and an eval classify drops it
    on return."""
    masks = []
    build = DecayMask.build.__func__

    def kept_build(cls, *args, **kwargs):
        mask = build(cls, *args, **kwargs)
        masks.append(weakref.ref(mask.matrix))
        return mask

    monkeypatch.setattr(DecayMask, "build", classmethod(kept_build))
    cohort = padded_cohort()
    m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, head_kind="classification"))
    loss = m.classification_loss(cohort, train=True)
    assert len(masks) == 1 and masks[0]() is not None
    backward(loss)
    assert masks[0]() is None
    m.classify_logits(cohort, train=False)
    assert len(masks) == 2 and masks[1]() is None


@pytest.mark.parametrize("head", ["next_token", "classification"])
def test_train_step_after_eval_grads_every_param(head):
    cohort = padded_cohort()
    m = Model(tiny_cfg(n_inputs=6, discrete=True, no_subsampler=True, head_kind=head))
    backward(m.loss(cohort, train=True))
    with pytest.raises(ContractError, match="recorded no operations"):
        backward(m.loss(cohort, train=False))
    if head == "next_token":
        m.generate(signal_batch(T=16, V=6, B=2), horizon=3)
    else:
        m.classify_logits(cohort, train=False)
    zero_grads([p for _, p in m.named_params()])
    backward(m.loss(cohort, train=True))
    assert all(p.grad is not None for _, p in m.named_params())


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_streaming_equals_recompute():
    batch = signal_batch(T=32)
    m = Model(tiny_cfg(seed=11))
    m.pretrain_loss(batch, train=True)
    a = m.generate(batch, horizon=20)
    b = generate_by_reencoding(m, batch, horizon=20)
    assert a.shape == (3, 20, 2)
    assert np.max(np.abs(a - b)) < 1e-8


def test_generate_streaming_equals_recompute_no_subsampler():
    batch = signal_batch(T=16)
    m = Model(tiny_cfg(no_subsampler=True, seed=12))
    m.pretrain_loss(batch, train=True)
    a = m.generate(batch, horizon=20)
    b = generate_by_reencoding(m, batch, horizon=20)
    assert np.max(np.abs(a - b)) < 1e-8


def test_generate_steps_only_while_tokens_remain(monkeypatch):
    batch = signal_batch(T=16)
    m = Model(tiny_cfg(no_subsampler=True, seed=14))
    m.pretrain_loss(batch, train=True)
    calls = {"layer": 0, "tconv": 0, "head": 0}

    def counted(kind, fn):
        def run(*args):
            calls[kind] += 1
            return fn(*args)

        return run

    # the per-token entry points stay DecoderLayer.step and
    # TemporalConvModule.step, and each token leaves through the instance's _head
    monkeypatch.setattr(DecoderLayer, "step", counted("layer", DecoderLayer.step))
    monkeypatch.setattr(TemporalConvModule, "step", counted("tconv", TemporalConvModule.step))
    monkeypatch.setattr(m, "_head", counted("head", m._head))
    for horizon in (1, 7):
        calls.update(layer=0, tconv=0, head=0)
        m.generate(batch, horizon=horizon)
        assert calls == {"layer": m.cfg.layers * (horizon - 1), "tconv": m.cfg.layers * (horizon - 1), "head": horizon}


# (config, raw prompt length): the depth-wise -> point-wise temporal block,
# each ablation flag that changes the decode step, the tokenizer, the cohort
# model, and prompts shorter than the depth-wise buffer.
STEP_CASES = {
    "conv-depthwise_pointwise": (tiny_cfg(no_subsampler=True), 24),
    "no-temporal-conv": (tiny_cfg(no_subsampler=True, no_temporal_conv=True), 24),
    "vanilla": (tiny_cfg(no_subsampler=True, **VANILLA_FLAGS), 24),
    "gamma-override": (tiny_cfg(no_subsampler=True, gamma=0.8), 24),
    "subsampler": (tiny_cfg(), 48),
    "irregular-model": (irregular_model(2, no_decay=False), 30),
    "prompt-shorter-than-kernel": (tiny_cfg(no_subsampler=True, conv_kernel=7), 2),
    "kernel-1": (tiny_cfg(no_subsampler=True, conv_kernel=1), 8),
}


def perturbed_model(cfg, tag):
    """A model with every parameter moved off its init (biases non-zero)
    and batch-norm statistics from one training-mode encode."""
    m = Model(cfg)
    rng = Rng(7).child(tag)
    for name, p in m.named_params():
        p.value = p.value + 0.2 * rng.child(name).normal(p.value.shape)
    m.encode(SequenceBatch(values=Rng(1).normal((4, 32, cfg.n_inputs))), train=True)
    return m


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_generate_equals_tensor_step_oracle(case, batch_size):
    cfg, length = STEP_CASES[case]
    m = perturbed_model(cfg, case)
    prompt = SequenceBatch(values=Rng(2).child(case).normal((batch_size, length, cfg.n_inputs)))
    got = m.generate(prompt, horizon=12)
    want = generate_by_tensor_steps(m, prompt, horizon=12)
    assert got.shape == (batch_size, 12, cfg.n_inputs)
    np.testing.assert_array_equal(got, want)


def _model_arrays(m) -> dict[str, bytes]:
    return {name: a.tobytes() for name, a in [(n, p.value) for n, p in m.named_params()] + m.named_norm_stats()}


def _train_batch(cfg, tag):
    if cfg.discrete:
        codes = Rng(4).child(tag).integers(0, cfg.n_inputs, (3, 20))
        return SequenceBatch(values=np.eye(cfg.n_inputs)[codes], codes=codes)
    return SequenceBatch(values=Rng(4).child(tag).normal((3, 48, cfg.n_inputs)))


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_generate_after_training_reads_the_new_weights(case):
    # nothing of one generate call may carry over to the next: training in
    # between (one Adam step, a train-mode encode) changes every parameter
    # and batch-norm statistic
    cfg, length = STEP_CASES[case]
    m = perturbed_model(cfg, case)
    prompt = SequenceBatch(values=Rng(2).child(case).normal((2, length, cfg.n_inputs)))
    m.generate(prompt, horizon=12)
    before = _model_arrays(m)
    params = m.named_params()
    zero_grads([p for _, p in params])
    backward(m.pretrain_loss(_train_batch(cfg, case), train=True))
    adam_step(params, OptimState(lr=1e-2, warmup=0, clip_norm=None))
    m.encode(SequenceBatch(values=Rng(8).normal((4, 32, cfg.n_inputs))), train=True)
    after = _model_arrays(m)
    assert before.keys() == after.keys() and all(before[k] != after[k] for k in before)
    np.testing.assert_array_equal(m.generate(prompt, horizon=12), generate_by_tensor_steps(m, prompt, horizon=12))


@pytest.mark.parametrize("batch_size", [1, 8])
@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_generate_writes_no_model_array_and_repeats_bitwise(case, batch_size):
    # the decode updates its retention states and depth-wise windows in
    # place; none of them may alias a parameter or a batch-norm statistic
    cfg, length = STEP_CASES[case]
    m = perturbed_model(cfg, case)
    prompt = SequenceBatch(values=Rng(2).child(case).normal((batch_size, length, cfg.n_inputs)))
    before = _model_arrays(m)
    first = m.generate(prompt, horizon=12)
    assert _model_arrays(m) == before
    assert m.generate(prompt, horizon=12).tobytes() == first.tobytes()


@pytest.mark.parametrize("shape", [(1, 1, 32), (8, 1, 32), (1, 1, 16), (8, 1, 16)])
def test_stacked_qkv_product_is_bitwise_the_three_products(shape):
    # the decode step projects q|k|v with one product of the stacked
    # weight; BLAS does not promise that a column of a wider product sums
    # in the same order, so this pins it for the decode shapes
    d = shape[-1]
    rng = Rng(21).child(str(shape))
    h = rng.child("h").normal(shape)
    ws = [rng.child(n).normal((d, d)) for n in ("q", "k", "v")]
    stacked = h @ np.concatenate(ws, axis=1)
    assert stacked.tobytes() == np.concatenate([h @ w for w in ws], axis=-1).tobytes()


@pytest.mark.parametrize("first", [2, 41, 257, 1025])
@pytest.mark.parametrize("case", ["conv-depthwise_pointwise", "irregular-model"])
def test_horizon_rotation_rows_are_bitwise_the_per_position_tables(case, first):
    cfg, _ = STEP_CASES[case]
    m = Model(cfg)
    angles = RotaryAngles(cfg.d_q)
    rows = list(m._rotation_rows(first, 128))
    assert len(rows) == 128
    for i, (cos, sin) in enumerate(rows):
        want = rotation_tables(np.array([first + i]), angles)
        assert cos.tobytes() == np.tile(want[0][0], 2 * cfg.heads).tobytes()
        assert sin.tobytes() == np.tile(want[1][0], 2 * cfg.heads).tobytes()


def test_generate_builds_few_tensors_per_token(monkeypatch):
    cfg, length = STEP_CASES["conv-depthwise_pointwise"]
    m = perturbed_model(cfg, "budget")
    built = [0]
    init = Tensor.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    at_head = []
    head = m._head

    def stamped(x):
        at_head.append(built[0])
        return head(x)

    monkeypatch.setattr(Tensor, "__init__", counted)
    monkeypatch.setattr(m, "_head", stamped)
    horizon = 16
    m.generate(SequenceBatch(values=Rng(3).normal((2, length, cfg.n_inputs))), horizon=horizon)
    assert len(at_head) == horizon
    assert (at_head[-1] - at_head[0]) / (horizon - 1) <= 4


def test_generate_horizon_one_is_single_forward_prediction():
    batch = signal_batch(T=16)
    m = Model(tiny_cfg(no_subsampler=True, seed=13))
    m.pretrain_loss(batch, train=True)
    got = m.generate(batch, horizon=1)
    hidden = m.encode(batch, train=False)
    want = (hidden[:, -1:, :].value @ m.w_head.value) + m.b_head.value
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_generate_zero_weight_model_emits_constant_bias():
    batch = signal_batch(T=16)
    m = Model(tiny_cfg(no_subsampler=True, no_temporal_conv=True))
    for _, p in m.named_params():
        p.value = np.zeros_like(p.value)
    m.b_head.value = np.array([2.5, -1.0])
    out = m.generate(batch, horizon=6)
    want = np.tile([2.5, -1.0], (3, 6, 1))
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_generate_rejects_bad_horizon_and_irregular_prompt():
    m = Model(tiny_cfg(no_subsampler=True))
    batch = signal_batch(T=16)
    with pytest.raises(InputError):
        m.generate(batch, horizon=0)
    ts = np.tile(np.arange(1, 17), (3, 1))
    irregular = SequenceBatch(values=batch.values, timestamps=ts)
    with pytest.raises(InputError):
        m.generate(irregular, horizon=2)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path):
    batch = signal_batch(T=32)
    m = Model(tiny_cfg(seed=21))
    m.pretrain_loss(batch, train=True)  # give BN stats something to save
    p = tmp_path / "model.ckpt"
    m.save(p)
    m2 = Model.load(p)
    a = m.forward(batch).value
    b = m2.forward(batch).value
    assert a.tobytes() == b.tobytes()


def test_checkpoint_rejects_corrupt_header(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(CheckpointError):
        Model.load(p)


def test_checkpoint_rejects_config_the_model_rejects(tmp_path):
    p = tmp_path / "model.ckpt"
    Model(tiny_cfg()).save(p)
    line, payload = p.read_bytes().split(b"\n", 1)
    # unknown keys (checkpoints of earlier versions carry retention_form or
    # conv_variant) and values ModelConfig refuses
    for key, value in (("retention_form", "parallel"), ("conv_variant", "depthwise_pointwise"),
                       ("heads", 0), ("conv_kernel", 0)):
        header = json.loads(line)
        header["config"][key] = value
        p.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        with pytest.raises(CheckpointError):
            Model.load(p)


def test_with_head_transfers_backbone_and_hash():
    m = Model(tiny_cfg(seed=5))
    clf = m.with_head("classification", n_classes=4)
    assert clf.cfg.backbone_hash() == m.cfg.backbone_hash()
    assert clf.cfg.config_hash() != m.cfg.config_hash()
    np.testing.assert_array_equal(clf.w_in.value, m.w_in.value)
    assert clf.w_head.value.shape == (16, 4)


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------


def test_ablation_parameter_deltas_are_exact():
    full = Model(tiny_cfg())
    no_sub = Model(tiny_cfg(no_subsampler=True))
    assert full.param_count() - no_sub.param_count() == sum(
        p.value.size for _, p in full.subsampler.named_params()
    )
    no_conv = Model(tiny_cfg(no_temporal_conv=True))
    conv_params = sum(p.value.size for _, p in full.layers[0].tconv.named_params()) * len(full.layers)
    assert full.param_count() - no_conv.param_count() == conv_params
    # decay and rotation are parameter-free mechanisms
    no_decay = Model(tiny_cfg(no_decay=True))
    vanilla = Model(tiny_cfg(no_decay=True, no_rotation=True))
    assert no_decay.param_count() == full.param_count()
    assert vanilla.param_count() == full.param_count()


def test_pooled_tokens_matches_subsampled_length_and_means():
    vals = np.arange(2 * 16 * 1, dtype=np.float64).reshape(2, 16, 1)
    toks = pooled_tokens(vals)
    assert toks.shape == (2, subsampled_length(16), 1)
    np.testing.assert_allclose(toks[0, 0, 0], vals[0, 0, 0])
    np.testing.assert_allclose(toks[0, 1, 0], vals[0, 1:5, 0].mean())
    np.testing.assert_allclose(toks[0, 2, 0], vals[0, 5:9, 0].mean())
