import numpy as np
import pytest

from tsgpt.datagen import SignalSpec, gen_signal
from tsgpt.errors import ConfigError, TrainingError
from tsgpt.model import Model, ModelConfig
from tsgpt.tensor import Rng, Tensor
from tsgpt.training import (
    GradCheckReport,
    OptimState,
    TrainSchedule,
    adam_step,
    grad_check,
    train,
    write_records,
)

from oracles import matmul, tsum


def test_adam_zero_gradient_is_fixed_point():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    p.grad = np.zeros(3)
    opt = OptimState(warmup=0)
    before = p.value.copy()
    for _ in range(5):
        adam_step([("p", p)], opt)
    np.testing.assert_array_equal(p.value, before)


def test_adam_constant_gradient_approaches_lr_sign():
    # closed-form moment oracle: with constant g, m_hat -> g, v_hat -> g^2,
    # so the update magnitude tends to lr * sign(g)
    p = Tensor(np.array([0.0, 0.0]))
    g = np.array([0.37, -1.9])
    opt = OptimState(lr=1e-3, warmup=0, clip_norm=None)
    prev = p.value.copy()
    for _ in range(500):
        p.grad = g.copy()
        adam_step([("p", p)], opt)
        delta = p.value - prev
        prev = p.value.copy()
    np.testing.assert_allclose(delta, -1e-3 * np.sign(g), rtol=1e-6)


def test_adam_two_runs_identical():
    def run():
        rng = Rng(4)
        p = Tensor(rng.normal((4,)))
        opt = OptimState(warmup=10)
        for i in range(50):
            p.grad = rng.normal((4,))
            adam_step([("p", p)], opt)
        return p.value

    np.testing.assert_array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient_with_name():
    p = Tensor(np.ones(2))
    p.grad = np.array([np.nan, 1.0])
    with pytest.raises(TrainingError) as ei:
        adam_step([("theta", p)], OptimState())
    assert "theta" in str(ei.value)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        TrainSchedule(patience=0)
    with pytest.raises(ConfigError):
        TrainSchedule(batch_size=0)


def _toy_model_and_data(seed=0, **cfg_kw):
    base = dict(
        layers=1, heads=2, d_q=4, d_v=4, n_inputs=1, conv_kernel=3,
        no_subsampler=True, seed=seed,
    )
    base.update(cfg_kw)
    model = Model(ModelConfig(**base))
    data, _ = gen_signal(SignalSpec(length=24, variates=1, n_sequences=12, noise_sigma=0.02, seed=seed))
    val, _ = gen_signal(SignalSpec(length=24, variates=1, n_sequences=4, noise_sigma=0.02, seed=seed + 1))
    return model, data, val


def test_train_reduces_loss_and_is_deterministic(tmp_path):
    def run():
        model, data, val = _toy_model_and_data(seed=3)
        recs = train(model, data, val, TrainSchedule(epochs=4, batch_size=4, seed=7, warmup=5))
        return model, recs

    m1, r1 = run()
    m2, r2 = run()
    first_train = next(r.loss for r in r1 if r.split == "train")
    last_valid = [r.loss for r in r1 if r.split == "valid"][-1]
    assert last_valid < first_train
    assert [(r.step, r.split, r.loss) for r in r1] == [(r.step, r.split, r.loss) for r in r2]

    p = tmp_path / "records.csv"
    write_records(p, r1)
    write_records(tmp_path / "again.csv", r2)
    assert p.read_bytes() == (tmp_path / "again.csv").read_bytes()
    assert p.read_text().splitlines()[0] == "step,split,loss,metric"


def test_early_stop_restores_best_checkpoint():
    model, data, val = _toy_model_and_data(seed=5)
    recs = train(model, data, val, TrainSchedule(epochs=8, batch_size=4, seed=1, patience=2, lr=3e-2, warmup=0))
    valid_losses = [r.loss for r in recs if r.split == "valid"]
    restored = [r.loss for r in recs if r.split == "restored"]
    assert restored, "early stopping must log the restored evaluation"
    assert restored[0] <= valid_losses[-1] + 1e-12
    assert abs(restored[0] - min(valid_losses)) < 1e-12


def test_gradcheck_linear_model_near_machine_eps():
    rng = Rng(6)
    w = Tensor(rng.normal((3, 1)))
    x = rng.normal((8, 3))

    def loss():
        return tsum(matmul(Tensor(x), w))

    report = grad_check([("w", w)], loss, tolerance=1e-4)
    assert report.passed
    assert report.block_errors["w"] < 1e-9


def test_gradcheck_full_tiny_model_passes():
    model, data, _ = _toy_model_and_data(seed=8)
    params = model.named_params()

    def loss():
        return model.loss(data.take(np.arange(3)), train=True)

    report = grad_check(params, loss, tolerance=1e-4)
    assert report.passed, report.worst()


def test_gradcheck_fault_injection_flags_only_corrupted_block():
    # corrupt one op's backward: swish gets a wrong local derivative
    model, data, _ = _toy_model_and_data(seed=9, no_temporal_conv=True)
    params = model.named_params()

    def loss():
        return model.loss(data.take(np.arange(2)), train=True)

    clean = grad_check(params, loss, tolerance=1e-4)
    assert clean.passed

    def bad_swish_grad(g, out, s):
        # the feed-forward node's swish slope, missing the out * (1 - s) term
        return g * s

    import tsgpt.model as M

    saved = M.swish_grad_array
    M.swish_grad_array = bad_swish_grad
    try:
        corrupted = grad_check(params, loss, tolerance=1e-4)
    finally:
        M.swish_grad_array = saved

    assert not corrupted.passed
    bad_blocks = {n for n, e in corrupted.block_errors.items() if e >= 1e-4}
    # the faulty derivative sits in the feed-forward path: its weights are
    # flagged, while the head bias (downstream of no swish) stays clean
    assert any("ffn" in n for n in bad_blocks)
    assert "b_head" not in bad_blocks


def test_gradcheck_report_worst():
    r = GradCheckReport({"a": 1e-6, "b": 5e-3}, 1e-4)
    assert not r.passed
    assert r.worst() == ("b", 5e-3)


def test_train_aborts_on_nonfinite_loss():
    model, data, val = _toy_model_and_data(seed=13)
    model.w_in.value[:] = np.nan
    with pytest.raises(TrainingError):
        train(model, data, val, TrainSchedule(epochs=1, batch_size=4, seed=0))


def test_zero_epoch_training_leaves_model_frozen():
    model, data, val = _toy_model_and_data(seed=12)
    model.loss(data, train=True)  # prime batch-norm statistics
    before = {n: p.value.copy() for n, p in model.named_params()}
    frozen_eval = float(model.loss(val, train=False).value)
    records = train(model, data, val, TrainSchedule(epochs=0, batch_size=4, seed=0))
    assert records == []
    for n, p in model.named_params():
        np.testing.assert_array_equal(p.value, before[n])
    assert float(model.loss(val, train=False).value) == frozen_eval
