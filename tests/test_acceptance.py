"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Behavioral experiments (6, 7) use the pinned settings in
tsgpt.experiments; everything else checks exact or toleranced invariants.
"""

import numpy as np

from tsgpt.bench import attention_flops, ffn_flops, layer_flops, run_bench
from tsgpt.convolution import subsampled_length
from tsgpt.datagen import SequenceBatch, SignalSpec, gen_signal
from tsgpt.experiments import (
    extrapolation_experiment,
    irregular_classification_experiment,
)
from tsgpt.model import Model, ModelConfig
from tsgpt.positional import RotaryAngles, rotate_array, rotation_tables, xpos_qk
from tsgpt.retention import (
    ChunkPlan,
    DecayMask,
    retention_chunkwise,
    retention_parallel,
    retention_recurrent,
)
from tsgpt.tensor import Rng, Tensor
from tsgpt.training import TrainSchedule, grad_check, train, write_records


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {text}", flush=True)


def test_criterion_1_three_form_equivalence():
    lengths = list(range(1, 65)) + [256]
    chunk_sizes = (1, 3, 16, 64)
    gammas = (1.0, 0.999, 0.98, 0.9, 0.6)
    worst = 0.0
    for seed in range(5):
        rng = Rng(1000 + seed)
        gamma = gammas[seed]
        for L in lengths:
            d = 4
            q = rng.normal((L, d))
            k = rng.normal((L, d))
            v = rng.normal((L, d))
            for irregular in (False, True):
                ts = np.cumsum(rng.integers(1, 7, (L,))).astype(np.int64) if irregular else None
                mask = DecayMask.build(gamma, length=L) if ts is None else DecayMask.build(gamma, timestamps=ts)
                par = retention_parallel(Tensor(q), Tensor(k), Tensor(v), mask).value
                rec, _ = retention_recurrent(q, k, v, ts, gamma)
                worst = max(worst, float(np.max(np.abs(par - rec))))
                t = np.arange(L) if ts is None else ts
                for B in chunk_sizes:
                    chk, _ = retention_chunkwise(Tensor(q), Tensor(k), Tensor(v), ChunkPlan.build(t, gamma, B))
                    worst = max(worst, float(np.max(np.abs(par - chk.value))))
    assert worst < 1e-9, worst
    _report(1, f"three retention forms agree to {worst:.2e} over L<=256, B in {chunk_sizes}, 5 seeds")


def test_criterion_2_irregular_reduction_bitwise():
    for L in (1, 2, 7, 33, 64, 256):
        for gamma in (1.0, 0.97, 0.5):
            regular = DecayMask.build(gamma, length=L).matrix
            via_ts = DecayMask.build(gamma, timestamps=np.arange(1, L + 1)).matrix
            assert regular.tobytes() == via_ts.tobytes()
    _report(2, "consecutive timestamps reproduce the regular decay matrix bitwise")


def test_criterion_3_xpos_shift_invariance():
    L = 8
    worst = 0.0
    for d in (2, 4, 8):
        rng = Rng(50 + d)
        angles = RotaryAngles(d)
        # positional factor isolated: fixed content rotated to every (n, m)
        q0 = rng.normal((1, d))
        k0 = rng.normal((1, d))
        cos, sin = rotation_tables(np.arange(L), angles)
        table = np.zeros((L, L))
        for n in range(L):
            for m in range(L):
                qn = rotate_array(q0, cos[n : n + 1], sin[n : n + 1])
                km = rotate_array(k0, cos[m : m + 1], sin[m : m + 1])
                table[n, m] = float((qn * km).sum())
        for rel in range(-(L - 1), L):
            diag = np.diagonal(table, offset=-rel)
            if len(diag) > 1:
                worst = max(worst, float(diag.max() - diag.min()))
        # the same property through the projection path with tiled content
        row = rng.normal((2 * d,))
        x = np.tile(row, (L, 1))
        wq = rng.normal((2 * d, d))
        wk = rng.normal((2 * d, d))
        q, k = xpos_qk(Tensor(x), Tensor(wq), Tensor(wk), (cos, sin), 1)
        qv, kv = q.value[0], k.value[0]
        scores = qv @ kv.T
        for rel in range(-(L - 1), L):
            diag = np.diagonal(scores, offset=-rel)
            if len(diag) > 1:
                worst = max(worst, float(diag.max() - diag.min()))
    assert worst < 1e-10, worst
    _report(3, f"query-key products depend on n-m only (max spread {worst:.2e}) for dims 2, 4, 8")


def test_criterion_4_gradient_suite_tiny_full_model():
    cfg = ModelConfig(layers=2, heads=2, d_q=8, d_v=8, n_inputs=2, conv_kernel=5, seed=4)
    assert cfg.d_model == 16
    model = Model(cfg)
    n_params = model.param_count()
    assert n_params <= 10_000, n_params
    data, _ = gen_signal(SignalSpec(length=16, variates=2, n_sequences=2, noise_sigma=0.1, seed=9))

    report = grad_check(model.named_params(), lambda: model.pretrain_loss(data, train=True), tolerance=1e-4)
    assert report.passed, report.worst()
    _report(4, f"all {len(report.block_errors)} parameter blocks ({n_params} params) pass FD check, worst {report.worst()[1]:.2e}")


def test_criterion_5_full_stack_causality():
    trials = 0
    for seed in range(5):
        rng = Rng(700 + seed)
        batch, _ = gen_signal(SignalSpec(length=32, variates=2, n_sequences=2, seed=800 + seed))
        # token-exact case: no tokenizer
        m = Model(ModelConfig(layers=2, heads=2, d_q=8, d_v=8, n_inputs=2, conv_kernel=5, no_subsampler=True, seed=seed))
        m.pretrain_loss(batch, train=True)  # prime batch-norm statistics
        base = m.encode(batch)[:, 1:].value
        t = int(rng.integers(4, 28))
        vals = batch.values.copy()
        vals[:, t:, :] += rng.normal(vals[:, t:, :].shape)
        pert = m.encode(SequenceBatch(values=vals))[:, 1:].value
        np.testing.assert_array_equal(base[:, :t], pert[:, :t])
        assert np.any(base[:, t:] != pert[:, t:])
        trials += 1

        # through the tokenizer: tokens strictly before ceil(r/4) are fixed
        ms = Model(ModelConfig(layers=2, heads=2, d_q=8, d_v=8, n_inputs=2, conv_kernel=5, seed=seed))
        ms.pretrain_loss(batch, train=True)
        base_s = ms.encode(batch)[:, 1:].value
        r = int(rng.integers(8, 28))
        vals = batch.values.copy()
        vals[:, r:, :] += rng.normal(vals[:, r:, :].shape)
        pert_s = ms.encode(SequenceBatch(values=vals))[:, 1:].value
        safe = int(np.ceil(r / 4))
        np.testing.assert_array_equal(base_s[:, :safe], pert_s[:, :safe])
        trials += 1
    assert trials == 10
    _report(5, "10 seeded perturbation trials leave all earlier positions bitwise unchanged")


def test_criterion_6_extrapolation_beats_baselines():
    result = extrapolation_experiment(seeds=(0, 1, 2))
    vs_pers = result.margin_vs_persistence()
    vs_vanilla = result.margin_vs_vanilla()
    assert vs_pers >= 0.10, (result.model_median, result.persistence_median)
    assert vs_vanilla >= 0.10, (result.model_median, result.vanilla_median)
    _report(
        6,
        f"512-token rollout medians: model {result.model_median:.3f} vs persistence "
        f"{result.persistence_median:.3f} ({vs_pers:+.0%}) and vanilla {result.vanilla_median:.3f} ({vs_vanilla:+.0%})",
    )


def test_criterion_7_irregular_classification():
    result = irregular_classification_experiment(seed=0)
    assert result.bayes_ceiling >= 0.9, result.bayes_ceiling
    assert result.model_accuracy >= 0.8 * result.bayes_ceiling, result
    assert result.model_accuracy > result.majority, result
    assert result.no_decay_accuracy < result.model_accuracy, result
    _report(
        7,
        f"fine-tuned accuracy {result.model_accuracy:.3f} (ceiling {result.bayes_ceiling:.2f}, "
        f"majority {result.majority:.2f}); no-decay ablation {result.no_decay_accuracy:.3f}",
    )


def test_criterion_8_complexity_crossover():
    # (i) exact boundary identities of the FLOP model
    for h, d in ((1, 16), (4, 8), (8, 64)):
        n = 2 * h * d
        assert 4 * n * h * h * d * d == 2 * n * n * h * d
        assert attention_flops(n, h, d) == 2 * (2 * n * n * h * d)
        n = 6 * h * d
        assert 2 * n * n * h * d == 12 * n * h * h * d * d
        assert layer_flops(n, h, d) == attention_flops(n, h, d) + ffn_flops(n, h, d)
    # (ii) measured wall-clock slopes
    lengths = (512, 1024, 2048, 4096, 8192)
    results, slopes = run_bench(lengths, ("parallel", "chunkwise"), heads=1, d=16, chunk_size=64, repetitions=5)
    # each length's median per form, so that a failed slope shows which length moved
    medians = "; ".join(
        f"{m} " + " ".join(f"{r.n}:{r.median_seconds * 1e3:.2f}ms" for r in results if r.mechanism == m)
        for m in slopes
    )
    assert slopes["parallel"] >= 1.8, (slopes, medians)
    assert slopes["chunkwise"] <= 1.2, (slopes, medians)
    _report(
        8,
        f"boundary identities exact; measured slopes parallel {slopes['parallel']:.2f} (>=1.8), "
        f"chunkwise {slopes['chunkwise']:.2f} (<=1.2); medians {medians}",
    )


def test_criterion_9_length_arithmetic():
    assert subsampled_length(4096) == 1024
    rng = Rng(90)
    for L in rng.integers(4, 100_000, (200,)):
        L = int(L)
        l1 = (L - 1) // 2 + 1
        assert subsampled_length(L) == (l1 - 1) // 2 + 1
        if L % 4 == 0:
            assert subsampled_length(L) == L // 4
    _report(9, "4096 -> 1024 and the stride-2 length formula holds for 200 random lengths")


def test_criterion_10_determinism_and_roundtrip(tmp_path):
    def run_training():
        data, _ = gen_signal(SignalSpec(length=24, variates=1, n_sequences=12, noise_sigma=0.05, seed=5))
        val, _ = gen_signal(SignalSpec(length=24, variates=1, n_sequences=4, noise_sigma=0.05, seed=6))
        model = Model(ModelConfig(layers=1, heads=2, d_q=4, d_v=4, n_inputs=1, conv_kernel=3, seed=2))
        records = train(model, data, val, TrainSchedule(epochs=3, batch_size=4, seed=3, warmup=5))
        return model, records, data

    m1, r1, data = run_training()
    m2, r2, _ = run_training()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(p1, r1)
    write_records(p2, r2)
    assert p1.read_bytes() == p2.read_bytes()

    ckpt = tmp_path / "model.ckpt"
    m1.save(ckpt)
    m3 = Model.load(ckpt)
    out_a = m1.encode(data)[:, 1:].value
    out_b = m3.encode(data)[:, 1:].value
    assert out_a.tobytes() == out_b.tobytes()
    _report(10, "identical seeds give byte-identical metrics CSV; checkpoint round-trip is bitwise")
