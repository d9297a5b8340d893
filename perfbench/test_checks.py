"""Each benchmark check passes on the program's output and fails when that
output is perturbed.  Run with ``python3 -m pytest perfbench``."""

from dataclasses import replace

import numpy as np
import pytest

import checks
import tsgpt.tensor as tt
from tsgpt.datagen import EventCohortSpec, SequenceBatch, SignalSpec, gen_cohort, gen_signal
from tsgpt.model import Model, ModelConfig
from tsgpt.training import OptimState, adam_step


def _trained(cfg: ModelConfig, batch: SequenceBatch) -> Model:
    """A model after one train step, so batch-norm statistics exist."""
    model = Model(cfg)
    params = model.named_params()
    tt.backward(model.loss(batch, train=True))
    adam_step(params, OptimState(lr=1e-3, warmup=1))
    return model


@pytest.fixture(scope="module")
def signal():
    batch, _ = gen_signal(SignalSpec(length=24, n_sequences=3, seed=4))
    cfg = ModelConfig(layers=2, heads=2, d_q=4, d_v=4, n_inputs=1, conv_kernel=3, chunk_size=5, no_subsampler=True)
    return _trained(cfg, batch), batch


@pytest.fixture(scope="module")
def cohort():
    spec = EventCohortSpec(vocab=6, classes=2, subjects=6, min_events=10, max_events=14, class_timing=True, seed=3)
    batch, _ = gen_cohort(spec)
    cfg = ModelConfig(layers=2, heads=2, d_q=4, d_v=4, n_inputs=6, discrete=True, no_subsampler=True,
                      conv_kernel=3, gamma=0.9, chunk_size=4)
    return _trained(cfg, batch), batch


@pytest.mark.parametrize("data", ["signal", "cohort"])
def test_retention_oracle_rejects_wrong_gamma_and_shifted_timestamp(data, request):
    model, batch = request.getfixturevalue(data)
    q, k, v, out = checks.capture_layer0(model, batch)
    t = checks.encode_timestamps(batch)
    gammas = checks.expected_gammas(model.cfg)
    assert checks.check_retention_oracle(q, k, v, out, t, gammas) is None
    assert checks.check_retention_oracle(q, k, v, out, t, gammas * 0.99) is not None
    shifted = np.array(t, copy=True)
    shifted[..., 5:] += 1
    assert checks.check_retention_oracle(q, k, v, out, shifted, gammas) is not None


@pytest.mark.parametrize("data", ["signal", "cohort"])
def test_forms_check_rejects_a_different_loss(data, request):
    model, batch = request.getfixturevalue(data)
    chunk = checks.train_loss(model, batch, form="chunkwise")
    parallel = checks.train_loss(model, batch, form="parallel")
    assert checks.check_close("forms", chunk, parallel) is None
    assert checks.check_close("forms", chunk * (1 + 1e-8), parallel) is not None


def test_train_loss_leaves_batch_norm_statistics_alone(signal):
    model, batch = signal
    before = [a.copy() for _, a in model.named_norm_stats()]
    checks.train_loss(model, batch)
    assert checks.check_bitwise("stats", [a for _, a in model.named_norm_stats()], before) is None


def test_gradient_check_rejects_a_scaled_gradient(signal):
    model, batch = signal
    blocks = ("w_in", "layer0.w_q", "layer0.tconv.stage0_dw_w", "layer1.ffn_w2", "w_head")
    rows = checks.finite_difference_rows(model, batch, blocks, np.random.default_rng(0))
    assert len(rows) == len(blocks)
    assert checks.check_gradients(rows) is None
    label, a, fd = rows[0]
    assert checks.check_gradients([(label, a * 1.01, fd)]) is not None


def test_rollout_checks_reject_perturbed_predictions(signal):
    model, batch = signal
    prompts = batch.values[:, :16]
    preds = model.generate(SequenceBatch(values=prompts), horizon=6)
    assert checks.check_close("stream", preds, checks.reencode_predictions(model, prompts, preds)) is None
    bad = preds.copy()
    bad[1, 3, 0] += 1e-6
    assert checks.check_close("stream", bad, checks.reencode_predictions(model, prompts, preds)) is not None
    row = model.generate(SequenceBatch(values=prompts[1:2]), horizon=6)
    assert checks.check_close("rows", preds[1:2], row) is None
    assert checks.check_close("rows", preds[2:3], row) is not None


def test_padding_check_rejects_a_shifted_timestamp(cohort):
    model, batch = cohort
    clf = model.with_head("classification", n_classes=2)
    logits = clf.classify_logits(batch, train=False).value
    assert checks.check_close("padding", logits, checks.stripped_logits(clf, batch)) is None
    shifted = replace(batch, timestamps=batch.timestamps.copy())
    shifted.timestamps[0, 5:] += 1
    moved = clf.classify_logits(shifted, train=False).value
    assert checks.check_close("padding", moved, checks.stripped_logits(clf, batch)) is not None


def test_checkpoint_check_rejects_a_flipped_bit(signal, tmp_path):
    model, _ = signal
    model.save(tmp_path / "m.ckpt")
    loaded = Model.load(tmp_path / "m.ckpt")
    assert checks.check_bitwise("ckpt", checks.model_arrays(loaded), checks.model_arrays(model)) is None
    w = loaded.w_head.value
    w.view(np.uint64).flat[0] ^= np.uint64(1)
    assert checks.check_bitwise("ckpt", checks.model_arrays(loaded), checks.model_arrays(model)) is not None


def test_finite_check_rejects_nan():
    assert checks.check_finite("x", np.ones(3)) is None
    assert checks.check_finite("x", np.array([1.0, np.nan])) is not None
