import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from tsgpt.convolution import TemporalConvModule, subsampled_length
from tsgpt.datagen import EventCohortSpec, SequenceBatch, SignalSpec, gen_cohort, gen_signal
from tsgpt.errors import CheckpointError, ConfigError, ContractError, InputError, TaskError
from tsgpt.experiments import VANILLA_FLAGS, irregular_model
from tsgpt.model import DecoderLayer, Model, ModelConfig, pooled_tokens
from tsgpt.positional import RotaryAngles, rotation_tables
from tsgpt.tensor import Rng, Tensor, backward, zero_grads
from tsgpt.training import OptimState, adam_step

from oracles import assert_grads_own_memory, generate_by_reencoding, generate_by_tensor_steps, taped_stack


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


def test_full_stack_three_forms_agree():
    batch = signal_batch(T=32)
    m = Model(tiny_cfg(chunk_size=3))
    m.pretrain_loss(batch, train=True)
    ref = m.forward(batch, form="parallel").value
    for form in (None, "recurrent", "chunkwise"):
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


def test_multihead_retention_single_head_reduces_to_parallel_compose():
    from tsgpt.model import multihead_retention
    from tsgpt.positional import RotaryAngles
    from tsgpt.retention import DecayMask, retention_parallel
    from tsgpt.tensor import Tensor, layer_norm_array

    rng = Rng(41)
    L, D, dh = 6, 4, 4
    x = rng.normal((1, L, D))
    wq, wk, wv = rng.normal((D, dh)), rng.normal((D, dh)), rng.normal((D, dh))
    wo, bo = rng.normal((dh, D)), rng.normal((D,))
    positions = np.arange(L)
    angles = RotaryAngles(dh)
    gain, bias = rng.normal((dh,)), rng.normal((dh,))
    out, _ = multihead_retention(
        Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv), Tensor(wo), Tensor(bo),
        positions, angles, np.array([0.9]), Tensor(gain), Tensor(bias), form="chunkwise", chunk_size=64,
    )
    # manual composition: rotate projections, one parallel head, layer norm, project out
    from tsgpt.positional import rotate

    q = rotate(Tensor(x @ wq), positions, angles)
    k = rotate(Tensor(x @ wk), positions, angles)
    ret = retention_parallel(q, k, Tensor(x @ wv), DecayMask.build(0.9, length=L))
    want = layer_norm_array(ret.value, gain, bias)[0] @ wo + bo
    assert np.max(np.abs(out.value - want)) < 1e-12


def test_multihead_retention_three_forms_pairwise():
    from tsgpt.model import multihead_retention
    from tsgpt.positional import RotaryAngles
    from tsgpt.tensor import Tensor

    rng = Rng(42)
    L, D, h, dh = 11, 8, 2, 4
    x = Tensor(rng.normal((2, L, D)))
    wq, wk = Tensor(rng.normal((D, h * dh))), Tensor(rng.normal((D, h * dh)))
    wv, wo, bo = Tensor(rng.normal((D, h * dh))), Tensor(rng.normal((h * dh, D))), Tensor(rng.normal((D,)))
    gammas = np.array([0.95, 0.8])
    gain, bias = Tensor(rng.normal((h * dh,))), Tensor(rng.normal((h * dh,)))
    outs = {}
    for form in ("parallel", "recurrent", "chunkwise"):
        out, _ = multihead_retention(
            x, wq, wk, wv, wo, bo, np.arange(L), RotaryAngles(dh), gammas, gain, bias,
            form=form, chunk_size=4,
        )
        outs[form] = out.value
    assert np.max(np.abs(outs["parallel"] - outs["recurrent"])) < 1e-9
    assert np.max(np.abs(outs["parallel"] - outs["chunkwise"])) < 1e-9


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------


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
    assert len(reachable(taped)) > 100
    logits = m.classify_logits(cohort, train=False)
    assert len(reachable(logits)) <= 10


@pytest.mark.parametrize("irregular, limit", [(False, 58), (True, 57)])
def test_train_step_tape_size_is_pinned(irregular, limit):
    """Rotary, the temporal convolution block, chunk-wise retention and each
    linear layer (with the feed-forward's swish) record one node each, which
    keeps a train step of this 2-layer model within these counts."""
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


def test_train_forward_allocates_only_what_its_tape_keeps():
    """Every full-size kernel of a train forward allocates only the arrays it
    returns or keeps, so the traced peak is what the finished tape holds."""
    m = Model(tiny_cfg(layers=1, n_inputs=1, conv_kernel=3, no_subsampler=True))
    batch = SequenceBatch(values=Rng(1).normal((2, 256, 1)))
    m.loss(batch, train=True)  # first-pass set-up (running statistics) off the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = m.loss(batch, train=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss._backward is not None
    assert peak - held < 0.01 * (held - base)


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
