import json

import numpy as np
import pytest

from tsgpt.convolution import subsampled_length
from tsgpt.datagen import EventCohortSpec, SequenceBatch, SignalSpec, gen_cohort, gen_signal
from tsgpt.errors import CheckpointError, ConfigError, ContractError, InputError, TaskError
from tsgpt.model import DecoderLayer, Model, ModelConfig, pooled_tokens
from tsgpt.tensor import Rng, backward, zero_grads

from oracles import generate_by_reencoding, taped_stack


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


def test_config_d_model_must_match_heads_times_dq():
    with pytest.raises(ConfigError):
        ModelConfig(heads=2, d_q=8, d_model=17)
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
        ModelConfig(conv_variant="bogus")
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
    from tsgpt.tensor import Tensor

    rng = Rng(41)
    L, D, dh = 6, 4, 4
    x = rng.normal((1, L, D))
    wq, wk, wv = rng.normal((D, dh)), rng.normal((D, dh)), rng.normal((D, dh))
    wo, bo = rng.normal((dh, D)), rng.normal((D,))
    positions = np.arange(L)
    angles = RotaryAngles(dh)
    out, _ = multihead_retention(
        Tensor(x), Tensor(wq), Tensor(wk), Tensor(wv), Tensor(wo), Tensor(bo),
        positions, angles, np.array([0.9]), form="chunkwise", chunk_size=64,
    )
    # manual composition: rotate projections, one parallel head, project out
    from tsgpt.positional import rotate

    q = rotate(Tensor(x @ wq), positions, angles)
    k = rotate(Tensor(x @ wk), positions, angles)
    ret = retention_parallel(q, k, Tensor(x @ wv), DecayMask.build(0.9, length=L))
    want = ret.value @ wo + bo
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
    outs = {}
    for form in ("parallel", "recurrent", "chunkwise"):
        out, _ = multihead_retention(
            x, wq, wk, wv, wo, bo, np.arange(L), RotaryAngles(dh), gammas,
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
    calls = []
    step = DecoderLayer.step

    def counted(self, *args):
        calls.append(self)
        return step(self, *args)

    monkeypatch.setattr(DecoderLayer, "step", counted)
    for horizon in (1, 7):
        calls.clear()
        m.generate(batch, horizon=horizon)
        assert len(calls) == m.cfg.layers * (horizon - 1)


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
    # an unknown key (checkpoints of earlier versions carry retention_form)
    # and a value ModelConfig refuses
    for key, value in (("retention_form", "parallel"), ("heads", 0)):
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
