import csv
import json

import numpy as np

from tsgpt.cli import main
from tsgpt.datagen import EventCohortSpec, gen_cohort, write_cohort_jsonl
from tsgpt.model import Model, ModelConfig
from tsgpt.tensor import save_tensor


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SIGNAL_CFG = {
    "kind": "signal",
    "spec": {
        "length": 64, "variates": 1, "n_sequences": 20, "noise_sigma": 0.02,
        "seasonal": [{"amplitude": 1.0, "period": 16.0}],
    },
    "format": "ndar",
}

TINY_MODEL = {
    "layers": 1, "heads": 2, "d_q": 4, "d_v": 4, "n_inputs": 1,
    "conv_kernel": 3, "no_subsampler": True,
}


def gen_signal_dir(tmp_path, seed="3"):
    cfg = write_json(tmp_path / "sig.json", SIGNAL_CFG)
    out = tmp_path / "sig"
    assert main(["gen", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
    return out


def pretrain_dir(tmp_path, data_path, epochs=2):
    cfg = write_json(tmp_path / "pre.json", {
        "model": TINY_MODEL,
        "train": {"epochs": epochs, "batch_size": 4, "warmup": 5},
        "data": str(data_path),
    })
    out = tmp_path / "pre"
    assert main(["pretrain", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
    return out


def test_gen_is_idempotent_and_writes_meta(tmp_path):
    out = gen_signal_dir(tmp_path)
    data = (out / "signal.ndar").read_bytes()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kind"] == "signal" and meta["n_sequences"] == 20
    assert (out / "manifest.json").exists()
    gen_signal_dir(tmp_path)  # rerun overwrites with identical bytes
    assert (out / "signal.ndar").read_bytes() == data


def test_gen_csv_single_sequence(tmp_path):
    cfg = dict(SIGNAL_CFG, format="csv")
    cfg["spec"] = dict(cfg["spec"], n_sequences=1, variates=2)
    p = write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "csv"
    assert main(["gen", "--config", p, "--out", str(out)]) == 0
    rows = read_csv(out / "signal.csv")
    assert rows[0] == ["t", "v1", "v2"]
    assert len(rows) == 65


def test_pretrain_then_rerun_reproduces_artifacts_bitwise(tmp_path):
    sig = gen_signal_dir(tmp_path)
    out1 = pretrain_dir(tmp_path, sig / "signal.ndar")
    metrics = (out1 / "metrics.csv").read_bytes()
    ckpt = (out1 / "model.ckpt").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["command"] == "pretrain" and "train" in manifest["timings_seconds"]
    out2 = pretrain_dir(tmp_path, sig / "signal.ndar")
    assert (out2 / "metrics.csv").read_bytes() == metrics
    assert (out2 / "model.ckpt").read_bytes() == ckpt


def test_forecast_horizon_one_emits_single_row_and_svg(tmp_path):
    train_sig = gen_signal_dir(tmp_path)
    pre = pretrain_dir(tmp_path, train_sig / "signal.ndar")
    cfg = dict(SIGNAL_CFG, format="ndar")
    cfg["spec"] = dict(cfg["spec"], n_sequences=1)
    p = write_json(tmp_path / "one.json", cfg)
    sig = tmp_path / "one"
    assert main(["gen", "--config", p, "--out", str(sig)]) == 0
    out = tmp_path / "fc"
    assert main([
        "forecast", "--checkpoint", str(pre / "model.ckpt"), "--data", str(sig / "signal.ndar"),
        "--horizon", "1", "--out", str(out), "--prompt-tokens", "32", "--train-len", "32",
    ]) == 0
    rows = read_csv(out / "forecast.csv")
    assert len(rows) == 2  # header + one forecast row
    assert rows[0][:2] == ["seq", "token"]
    svg = (out / "forecast.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "train length" in svg


def test_classify_on_separable_cohort_reaches_bayes_ceiling(tmp_path):
    cohort_cfg = write_json(tmp_path / "coh.json", {
        "kind": "cohort",
        "spec": {"vocab": 10, "classes": 2, "subjects": 60, "min_events": 10,
                 "max_events": 14, "separation": 1.0},
    })
    coh = tmp_path / "coh"
    assert main(["gen", "--config", cohort_cfg, "--out", str(coh), "--seed", "5"]) == 0
    meta = json.loads((coh / "meta.json").read_text())
    assert meta["bayes_ceiling"] == 1.0

    pre_cfg = write_json(tmp_path / "pre.json", {
        "model": {"layers": 1, "heads": 2, "d_q": 4, "d_v": 4, "n_inputs": 10,
                  "discrete": True, "no_subsampler": True, "conv_kernel": 3},
        "train": {"epochs": 2, "batch_size": 8, "warmup": 5},
        "data": str(coh / "cohort.jsonl"),
    })
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", pre_cfg, "--out", str(pre), "--seed", "2"]) == 0

    ft_cfg = write_json(tmp_path / "ft.json", {
        "head": "classification", "n_classes": 2, "data": str(coh / "cohort.jsonl"),
        "train": {"epochs": 4, "batch_size": 8, "warmup": 5, "lr": 0.01},
    })
    ft = tmp_path / "ft"
    assert main(["finetune", "--config", ft_cfg, "--checkpoint", str(pre / "model.ckpt"),
                 "--out", str(ft), "--seed", "2"]) == 0

    # rerunning finetune reproduces metrics bit for bit
    ft2 = tmp_path / "ft2"
    assert main(["finetune", "--config", ft_cfg, "--checkpoint", str(pre / "model.ckpt"),
                 "--out", str(ft2), "--seed", "2"]) == 0
    assert (ft2 / "metrics.csv").read_bytes() == (ft / "metrics.csv").read_bytes()
    assert (ft2 / "model.ckpt").read_bytes() == (ft / "model.ckpt").read_bytes()

    cls = tmp_path / "cls"
    assert main(["classify", "--checkpoint", str(ft / "model.ckpt"),
                 "--data", str(coh / "cohort.jsonl"), "--out", str(cls)]) == 0
    rows = dict((r[0], r[1]) for r in read_csv(cls / "metrics.csv")[1:])
    assert float(rows["accuracy"]) >= 0.95
    preds = read_csv(cls / "predictions.csv")
    assert preds[0][:3] == ["id", "label", "pred"]
    assert len(preds) == 61

    # classify also accepts its inputs from a config file
    cls_cfg = write_json(tmp_path / "cls.json", {
        "checkpoint": str(ft / "model.ckpt"), "data": str(coh / "cohort.jsonl"),
    })
    cls2 = tmp_path / "cls2"
    assert main(["classify", "--config", cls_cfg, "--out", str(cls2)]) == 0
    assert (cls2 / "metrics.csv").read_bytes() == (cls / "metrics.csv").read_bytes()


def test_finetune_backbone_hash_mismatch_is_checkpoint_error(tmp_path):
    sig = gen_signal_dir(tmp_path)
    pre = pretrain_dir(tmp_path, sig / "signal.ndar")
    bad = write_json(tmp_path / "bad.json", {
        "model": dict(TINY_MODEL, layers=2),  # different backbone
        "head": "regression",
        "data": str(sig / "signal.ndar"),
        "train": {"epochs": 1, "batch_size": 4},
    })
    rc = main(["finetune", "--config", bad, "--checkpoint", str(pre / "model.ckpt"),
               "--out", str(tmp_path / "ftbad")])
    assert rc == 3


def test_classify_with_outdated_checkpoint_config_exits_three(tmp_path, capsys):
    cfg = ModelConfig(layers=1, heads=1, d_q=2, d_v=2, n_inputs=4, conv_kernel=3, discrete=True,
                      no_subsampler=True, head_kind="classification")
    ckpt = tmp_path / "clf.ckpt"
    Model(cfg).save(ckpt)
    line, payload = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"]["retention_form"] = "parallel"  # a key only earlier versions wrote
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    rc = main(["classify", "--checkpoint", str(ckpt), "--data", str(tmp_path / "cohort.jsonl"),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "invalid model config" in capsys.readouterr().err


def test_eval_on_checkpoint_saved_before_training_exits_three(tmp_path, capsys):
    ckpt = tmp_path / "untrained.ckpt"
    Model(ModelConfig(no_subsampler=True)).save(ckpt)
    save_tensor(tmp_path / "sig.ndar", np.zeros((2, 64, 1)))
    rc = main(["forecast", "--checkpoint", str(ckpt), "--data", str(tmp_path / "sig.ndar"),
               "--out", str(tmp_path / "d"), "--horizon", "4"])
    assert rc == 3
    assert "holds no batch-norm statistics" in capsys.readouterr().err

    clf = tmp_path / "clf.ckpt"
    Model(ModelConfig(n_inputs=4, discrete=True, no_subsampler=True, head_kind="classification", n_classes=3)).save(clf)
    cohort, _ = gen_cohort(EventCohortSpec(vocab=4, subjects=3, min_events=10, max_events=12, seed=1))
    write_cohort_jsonl(tmp_path / "cohort.jsonl", cohort)
    rc = main(["classify", "--checkpoint", str(clf), "--data", str(tmp_path / "cohort.jsonl"),
               "--out", str(tmp_path / "c")])
    assert rc == 3
    assert "holds no batch-norm statistics" in capsys.readouterr().err


def test_forecast_with_wrong_head_is_task_error(tmp_path):
    cfg = ModelConfig(layers=0, heads=1, d_q=2, d_v=2, n_inputs=1, no_subsampler=True,
                      no_temporal_conv=True, head_kind="classification")
    ckpt = tmp_path / "clf.ckpt"
    Model(cfg).save(ckpt)
    sig = gen_signal_dir(tmp_path)
    rc = main(["forecast", "--checkpoint", str(ckpt), "--data", str(sig / "signal.ndar"),
               "--horizon", "2", "--out", str(tmp_path / "x")])
    assert rc == 3


def test_usage_errors_exit_two(tmp_path):
    assert main(["gen", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 2
    bad = write_json(tmp_path / "nokind.json", {"spec": {}})
    assert main(["gen", "--config", bad, "--out", str(tmp_path / "o2")]) == 2
    assert main(["bench", "--lengths", "64,128", "--out", str(tmp_path / "b")]) == 2
    assert main(["bench", "--lengths", "64,96,128,160", "--out", str(tmp_path / "b2")]) == 2
    assert main(["bench", "--lengths", "16,32,64,128", "--mechanisms", "psychic",
                 "--out", str(tmp_path / "b3")]) == 2
    old = write_json(tmp_path / "old.json", {
        "model": dict(TINY_MODEL, retention_form="parallel"), "data": str(tmp_path / "nope.ndar"),
    })
    assert main(["pretrain", "--config", old, "--out", str(tmp_path / "o3")]) == 2


def test_missing_data_exits_three(tmp_path):
    cfg = write_json(tmp_path / "p.json", {
        "model": TINY_MODEL, "train": {"epochs": 1}, "data": str(tmp_path / "nope.ndar"),
    })
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_bench_writes_results_and_slopes(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--lengths", "16,32,64,128", "--mechanisms", "chunkwise,attention",
                 "--d", "8", "--reps", "5", "--out", str(out)]) == 0
    rows = read_csv(out / "bench.csv")
    assert rows[0] == ["mechanism", "n", "heads", "d", "chunk_size", "repetitions",
                       "median_seconds", "model_flops", "loglog_slope"]
    assert len(rows) == 1 + 2 * 4
    # the fitted slope is constant within a mechanism
    by_mech = {}
    for r in rows[1:]:
        by_mech.setdefault(r[0], set()).add(r[8])
    assert all(len(v) == 1 for v in by_mech.values())
    slopes = read_csv(out / "slopes.csv")
    assert {r[0] for r in slopes[1:]} == {"chunkwise", "attention"}


def test_ablate_table_param_audit_and_determinism(tmp_path):
    sig = gen_signal_dir(tmp_path)
    cfg = write_json(tmp_path / "ab.json", {
        "model": {"layers": 1, "heads": 2, "d_q": 4, "d_v": 4, "n_inputs": 1, "conv_kernel": 3},
        "train": {"epochs": 1, "batch_size": 8, "warmup": 2},
        "data": str(sig / "signal.ndar"),
    })
    out = tmp_path / "ab"
    assert main(["ablate", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    rows = read_csv(out / "ablate.csv")
    assert [r[0] for r in rows[1:]] == ["full", "no_subsampler", "no_temporal_conv", "no_decay", "vanilla"]
    params = {r[0]: int(r[1]) for r in rows[1:]}

    base = dict(layers=1, heads=2, d_q=4, d_v=4, n_inputs=1, conv_kernel=3)
    full = Model(ModelConfig(**base))
    sub_params = sum(p.value.size for _, p in full.subsampler.named_params())
    conv_params = sum(p.value.size for _, p in full.layers[0].tconv.named_params())
    assert params["full"] - params["no_subsampler"] == sub_params
    assert params["no_subsampler"] - params["no_temporal_conv"] == conv_params
    assert params["no_temporal_conv"] == params["no_decay"] == params["vanilla"]

    table = (out / "ablate.csv").read_bytes()
    assert main(["ablate", "--config", cfg, "--out", str(out), "--seed", "4"]) == 0
    assert (out / "ablate.csv").read_bytes() == table


def test_ablate_irregular_skips_subsampler_row(tmp_path):
    coh_cfg = write_json(tmp_path / "c.json", {
        "kind": "cohort",
        "spec": {"vocab": 8, "classes": 2, "subjects": 40, "min_events": 10,
                 "max_events": 12, "separation": 1.0},
    })
    coh = tmp_path / "coh"
    assert main(["gen", "--config", coh_cfg, "--out", str(coh), "--seed", "1"]) == 0
    cfg = write_json(tmp_path / "abi.json", {
        "model": {"layers": 1, "heads": 2, "d_q": 4, "d_v": 4, "n_inputs": 8,
                  "discrete": True, "no_subsampler": True, "conv_kernel": 3},
        "train": {"epochs": 1, "batch_size": 8, "warmup": 2},
        "finetune": {"epochs": 2, "batch_size": 8, "warmup": 2},
        "data": str(coh / "cohort.jsonl"),
    })
    out = tmp_path / "abi"
    assert main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "ablate.csv")
    names = [r[0] for r in rows[1:]]
    assert "no_subsampler" not in names
    assert names[0] == "full" and "vanilla" in names
    assert all(r[2] == "test_accuracy" for r in rows[1:])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out
