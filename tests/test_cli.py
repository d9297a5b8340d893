import csv
import hashlib
import json

import numpy as np
import pytest

from tsgpt import tensor
from tsgpt.cli import main
from tsgpt.datagen import EventCohortSpec, gen_cohort, read_signal_csv, write_cohort_jsonl, write_signal_csv
from tsgpt.datagen import SequenceBatch
from tsgpt.model import Model, ModelConfig
from tsgpt.tensor import Rng, save_tensor


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
    assert manifest["peak_rss_mb"] > 0
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "blas", "cpu_count", "block_threads", "worker_cpu", "loadavg"}
    assert env["block_threads"] in (1, 2)
    assert env["worker_cpu"] == tensor.worker_cpu() and (env["worker_cpu"] is None) == (len(tensor.CPUS) < 2)
    assert env["blas"]["threads"] == tensor.blas_threads()
    assert env["numpy"] == np.__version__ and set(env["blas"]) == {"name", "version", "threads"}
    assert env["cpu_count"] >= 1 and len(env["loadavg"]) == 3
    assert json.loads((sig / "manifest.json").read_text())["peak_rss_mb"] > 0
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


def test_classify_with_invalid_conv_kernel_in_checkpoint_exits_three(tmp_path, capsys):
    cfg = ModelConfig(layers=1, heads=1, d_q=2, d_v=2, n_inputs=4, conv_kernel=3, discrete=True,
                      no_subsampler=True, head_kind="classification")
    ckpt = tmp_path / "clf.ckpt"
    Model(cfg).save(ckpt)
    line, payload = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"]["conv_kernel"] = 0
    # a config hash that matches the edited config, so only the value is wrong
    header["config_hash"] = hashlib.sha256(json.dumps(header["config"], sort_keys=True).encode()).hexdigest()[:16]
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    rc = main(["classify", "--checkpoint", str(ckpt), "--data", str(tmp_path / "cohort.jsonl"),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "conv_kernel must be >= 1" in capsys.readouterr().err


def test_bit_flip_in_checkpoint_payload_exits_three(tmp_path, capsys):
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "sig.ndar"
    m.save(ckpt)
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    args = ["forecast", "--checkpoint", str(ckpt), "--data", str(data), "--horizon", "2", "--out", str(tmp_path / "f")]
    assert main(args) == 0
    capsys.readouterr()
    raw = bytearray(ckpt.read_bytes())
    raw[-3] ^= 0x01  # a mantissa bit of the last value of the last record
    ckpt.write_bytes(bytes(raw))
    assert main(args) == 3
    assert "sha256 mismatch" in capsys.readouterr().err


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


def _truncate_payload(ckpt, data):
    ckpt.write_bytes(ckpt.read_bytes()[:-20])


def _header_line_only(ckpt, data):
    ckpt.write_bytes(ckpt.read_bytes().split(b"\n", 1)[0] + b"\n")


def _record_header_only(ckpt, data):
    ckpt.write_bytes(ckpt.read_bytes().split(b"\n", 1)[0] + b"\nNDAR1\x02\x00")


def _non_utf8_header(ckpt, data):
    ckpt.write_bytes(b"\xff\xfe" + ckpt.read_bytes())


def _garbage_header(ckpt, data):
    ckpt.write_bytes(b"not json\n" + ckpt.read_bytes().split(b"\n", 1)[1])


def _bad_magic(ckpt, data):
    line, payload = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(line + b"\nNDAR2" + payload[5:])


def _trailing_bytes(ckpt, data):
    ckpt.write_bytes(ckpt.read_bytes() + b"\x00")


def _truncated_data(ckpt, data):
    data.write_bytes(data.read_bytes()[:-8])


def _no_sequences(ckpt, data):
    save_tensor(data, np.zeros((0, 32, 1)))


@pytest.mark.parametrize("corrupt", [
    _truncate_payload, _header_line_only, _record_header_only, _non_utf8_header, _garbage_header, _bad_magic,
    _trailing_bytes, _truncated_data, _no_sequences,
], ids=lambda f: f.__name__.strip("_"))
def test_malformed_checkpoint_or_data_exits_three(tmp_path, capsys, corrupt):
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "sig.ndar"
    m.save(ckpt)
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    args = ["forecast", "--checkpoint", str(ckpt), "--data", str(data), "--horizon", "2", "--out", str(tmp_path / "f")]
    assert main(args) == 0
    capsys.readouterr()
    corrupt(ckpt, data)
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("raw", [b"", b"NDAR2\x00", b"NDAR1\x03\x00\x00\x00\x02", b"NDAR1\x01\x00\x00\x00"
                                 + (4).to_bytes(8, "little") + bytes(16)],
                         ids=["empty", "bad-magic", "truncated-dims", "short-payload"])
def test_bad_data_record_names_the_file_and_exits_three(tmp_path, capsys, raw):
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "sig.ndar"
    m.save(ckpt)
    data.write_bytes(raw)
    rc = main(["forecast", "--checkpoint", str(ckpt), "--data", str(data), "--horizon", "2", "--out", str(tmp_path / "f")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data) in err and "NDAR1" in err


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
    not_object = write_json(tmp_path / "ab.json", {"model": 5, "data": str(tmp_path / "nope.ndar")})
    assert main(["ablate", "--config", not_object, "--out", str(tmp_path / "o4")]) == 2


@pytest.mark.parametrize("field, value", [
    ("d_model", 8), ("ffn_expansion", 4), ("rotation_base", 10000.0), ("retention_norm", True), ("output_gate", False),
])
def test_config_naming_a_removed_model_field_exits_two(tmp_path, capsys, field, value):
    cfg = write_json(tmp_path / "pre.json", {"model": dict(TINY_MODEL, **{field: value}), "data": str(tmp_path / "nope.ndar")})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


def test_checkpoint_config_with_output_gate_exits_three(tmp_path, capsys):
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "sig.ndar"
    m.save(ckpt)
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    line, payload = ckpt.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["config"]["output_gate"] = False  # a key checkpoints of earlier versions carry
    # hashes that match the edited file, so only the stale key is wrong
    header["config_hash"] = hashlib.sha256(json.dumps(header["config"], sort_keys=True).encode()).hexdigest()[:16]
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    ckpt.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
    rc = main(["forecast", "--checkpoint", str(ckpt), "--data", str(data), "--horizon", "2", "--out", str(tmp_path / "f")])
    assert rc == 3
    assert "output_gate" in capsys.readouterr().err


@pytest.mark.parametrize("command, fields", [
    ("forecast", {"horizon": "abc"}),
    ("forecast", {"horizon": [1]}),
    ("forecast", {"horizon": True}),
    ("forecast", {"prompt_tokens": "abc"}),
    ("forecast", {"train_len": "abc"}),
    ("pretrain", {"splits": 5}),
    ("pretrain", {"splits": [0.8, "a", 0.1]}),
    ("pretrain", {"splits": [0.5, 0.5]}),
    ("pretrain", {"seed": "abc"}),
    ("pretrain", {"split_seed": "x"}),
    ("finetune", {"n_classes": "two"}),
    ("finetune", {"n_classes": 2.5}),
    ("finetune", {"subset_fraction": "half"}),
    ("pretrain", {"train": {"epochs": 1, "lr": "abc"}}),
    ("pretrain", {"train": {"epochs": 1.0}}),
    ("pretrain", {"train": {"epochs": 1, "clip_norm": True}}),
    ("pretrain", {"model": dict(TINY_MODEL, chunk_size=2.5)}),
    ("pretrain", {"model": dict(TINY_MODEL, no_decay="yes")}),
    ("pretrain", {"model": dict(TINY_MODEL, head_kind=None)}),
    ("pretrain", {"data": 0}),  # open(0) would read the training set from stdin
    ("forecast", {"checkpoint": 3}),  # open(3) would read file descriptor 3
    ("classify", {"data": ["cohort.jsonl"]}),
    ("forecast", {"data": "signal\u0000.ndar"}),  # no path holds a NUL
    ("finetune", {"head": 1}),
], ids=["horizon_str", "horizon_list", "horizon_bool", "prompt_tokens_str", "train_len_str", "splits_int",
        "splits_str_item", "splits_two_items", "seed_str", "split_seed_str", "n_classes_str", "n_classes_float",
        "subset_fraction_str", "train_lr_str", "train_epochs_float", "train_clip_norm_bool",
        "model_chunk_size_float", "model_no_decay_str", "model_head_kind_null", "data_int", "checkpoint_int",
        "data_list", "data_nul", "head_int"])
def test_mistyped_command_config_field_exits_two(tmp_path, capsys, command, fields):
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "sig.ndar"
    m.save(ckpt)
    save_tensor(data, Rng(2).normal((20, 32, 1)))
    base = {
        "forecast": {"checkpoint": str(ckpt), "data": str(data)},
        "classify": {"checkpoint": str(ckpt), "data": str(data)},
        "pretrain": {"model": TINY_MODEL, "train": {"epochs": 1}, "data": str(data)},
        "finetune": {"head": "classification", "train": {"epochs": 1}, "data": str(data)},
    }[command]
    cfg = write_json(tmp_path / "cmd.json", dict(base, **fields))
    args = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "finetune":
        args += ["--checkpoint", str(ckpt)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(fields)) in err


@pytest.mark.parametrize("command, fields, flags", [
    ("finetune", {"n_classes": 1}, []),
    ("forecast", {}, ["--prompt-tokens", "-3"]),
    ("forecast", {"prompt_tokens": 0}, []),
    ("finetune", {"subset_fraction": -0.5}, []),
    ("finetune", {"subset_fraction": 0}, []),
], ids=["n_classes_at_largest_label", "prompt_tokens_negative_flag", "prompt_tokens_zero",
        "subset_fraction_negative", "subset_fraction_zero"])
def test_out_of_range_command_config_field_exits_two(tmp_path, capsys, command, fields, flags):
    """A value of the right type outside the range the command can use is a
    usage error, not a traceback or a silent misread."""
    if command == "finetune":  # a binary cohort and a backbone for it
        batch, _ = gen_cohort(EventCohortSpec(vocab=6, classes=2, subjects=30, min_events=10, max_events=12, seed=1))
        assert batch.labels.max() == 1
        data, ckpt = tmp_path / "cohort.jsonl", tmp_path / "model.ckpt"
        write_cohort_jsonl(data, batch)
        Model(ModelConfig(**dict(TINY_MODEL, n_inputs=6, discrete=True))).save(ckpt)
        base = {"head": "classification", "train": {"epochs": 1}, "data": str(data)}
        flags = flags + ["--checkpoint", str(ckpt)]
    else:
        m = Model(ModelConfig(**TINY_MODEL))
        m.encode(SequenceBatch(values=Rng(1).normal((2, 16, 1))), train=True)  # batch-norm statistics
        data, ckpt = tmp_path / "sig.ndar", tmp_path / "model.ckpt"
        m.save(ckpt)
        save_tensor(data, Rng(2).normal((2, 32, 1)))
        base = {"checkpoint": str(ckpt), "data": str(data), "horizon": 2}
    cfg = write_json(tmp_path / "cmd.json", dict(base, **fields))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(fields), "prompt_tokens") in err


@pytest.mark.parametrize("lengths", ["64,abc", "16,32,64,1.5", "0,16,32,64"])
def test_bench_malformed_lengths_exit_two(tmp_path, capsys, lengths):
    assert main(["bench", "--lengths", lengths, "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_selftest_fails_when_the_flop_model_is_wrong(monkeypatch, capsys):
    import tsgpt.bench

    monkeypatch.setattr(tsgpt.bench, "dominant_term", lambda n, h, d: "quadratic")
    assert main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "FAIL  flop-boundary-2hd" in out and "FAIL  flop-boundary-6hd" in out


def test_config_naming_conv_variant_exits_two(tmp_path, capsys):
    cfg = write_json(tmp_path / "pre.json", {
        "model": dict(TINY_MODEL, conv_variant="depthwise_pointwise"), "data": str(tmp_path / "nope.ndar"),
    })
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "conv_variant" in capsys.readouterr().err


def test_unknown_spec_field_exits_two(tmp_path, capsys):
    for kind, spec in [("cohort", {"bogus": 1}), ("signal", dict(SIGNAL_CFG["spec"], bogus=1)),
                       ("signal", dict(SIGNAL_CFG["spec"], seasonal=[{"amplitude": 1.0, "phase_shift": 2}]))]:
        cfg = write_json(tmp_path / "gen.json", {"kind": kind, "spec": spec})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config field" in capsys.readouterr().err
    bad_train = write_json(tmp_path / "pre.json", {
        "model": TINY_MODEL, "train": {"epochs": 1, "bogus": 1}, "data": str(tmp_path / "nope.ndar"),
    })
    assert main(["pretrain", "--config", bad_train, "--out", str(tmp_path / "p")]) == 2


@pytest.mark.parametrize("spec", [5, {"length": 64, "seasonal": 5}], ids=["spec_int", "seasonal_int"])
def test_malformed_signal_spec_exits_two(tmp_path, capsys, spec):
    cfg = write_json(tmp_path / "gen.json", {"kind": "signal", "spec": spec})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "must be a JSON" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    '{"id": 9, "events": [[-1, 1], [2, 3]], "label": 1}',  # negative code
    '{"id": 9, "events": [[1, 1], [4, 3]], "label": 1}',  # code == vocab
    '{"id": 9, "events": [[1, 1], [2, 3]], "label": 1',  # malformed JSON
    '{"id": 9, "label": 1}',  # no events
    '{"id": 9, "events": [[1, 1], [2, 3]]}',  # no label
    '{"id": 9, "events": [], "label": 1}',  # empty events
    '{"id": 9, "events": [[1, 1], [2]], "label": 1}',  # event without a timestamp
    '{"id": 9, "events": [[1.5, 1], [2, 3]], "label": 1}',  # a float code
    '{"id": 9, "events": [[true, 1], [2, 3]], "label": 1}',  # a boolean code
    '{"id": 9, "events": [["3", 1], [2, 3]], "label": 1}',  # a string code
    '{"id": 9, "events": [[1, 0.7], [2, 3]], "label": 1}',  # a float timestamp
    '{"id": 9, "events": [[1, 1], [2, 9223372036854775808]], "label": 1}',  # a timestamp past int64
    '{"id": 9, "events": [[1, 1], [2, 9223372036854775807]], "label": 1}',  # padding would pass int64
    '{"id": 9, "events": [[1, 1], [2, 3]], "label": 1.9}',  # a float label
    '{"id": 9, "events": [[1, 1], [2, 3]], "label": -3}',  # a negative label
    '{"id": 9, "events": [[1, -5], [2, 3]], "label": 1}',  # a negative timestamp
    '{"id": 9, "events": [[1, 0], [2, 3]], "label": 1}',  # a timestamp at the start token's 0
    '{"id": 9, "events": [[1, 3], [2, 3]], "label": 1}',  # a repeated timestamp
    '{"id": 9, "events": [[1, 5], [2, 3]], "label": 1}',  # a decreasing timestamp
], ids=["negative_code", "code_at_vocab", "malformed_json", "no_events", "no_label", "empty_events", "short_event",
        "float_code", "bool_code", "string_code", "float_timestamp", "int64_overflow_timestamp", "int64_padding_overflow", "float_label",
        "negative_label", "negative_timestamp", "zero_timestamp", "repeated_timestamp", "decreasing_timestamp"])
def test_malformed_cohort_file_exits_three(tmp_path, capsys, line):
    data = tmp_path / "cohort.jsonl"
    cohort, _ = gen_cohort(EventCohortSpec(vocab=4, subjects=10, min_events=10, max_events=12, seed=1))
    write_cohort_jsonl(data, cohort)
    cfg = write_json(tmp_path / "pre.json", {
        "model": dict(TINY_MODEL, n_inputs=4, discrete=True), "train": {"epochs": 1}, "data": str(data),
    })
    args = ["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]
    assert main(args) == 0
    capsys.readouterr()
    with open(data, "a") as fh:
        fh.write(line + "\n")
    assert main(args) == 3
    assert capsys.readouterr().err.startswith(f"error: {data}: ")


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[:3] + [rows[3][:1] + ["abc"]] + rows[4:],  # a non-numeric cell
    lambda rows: rows[:3] + [rows[3][:1]] + rows[4:],  # a row short of a cell
    lambda rows: rows[:3] + [[]] + rows[3:],  # a blank row
    lambda rows: rows[:1],  # a header with no rows
], ids=["non_numeric_cell", "ragged_row", "blank_row", "header_only"])
def test_malformed_signal_csv_exits_three(tmp_path, capsys, corrupt):
    # forecast is the command that reads a signal CSV
    data = tmp_path / "signal.csv"
    write_signal_csv(data, SequenceBatch(values=Rng(4).normal((1, 64, 1))))
    ckpt = trained_checkpoint(tmp_path)
    assert read_signal_csv(data).values.shape == (1, 64, 1)
    rows = corrupt(read_csv(data))
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["forecast", "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {data}: ")


def trained_checkpoint(tmp_path) -> str:
    """A TINY_MODEL checkpoint with batch-norm statistics, as eval commands need."""
    m = Model(ModelConfig(**TINY_MODEL))
    m.encode(SequenceBatch(values=Rng(5).normal((2, 16, 1))), train=True)
    path = str(tmp_path / "tiny.ckpt")
    m.save(path)
    return path


def test_training_on_a_signal_csv_exits_two(tmp_path, capsys):
    # a CSV holds one sequence, which no three-way split can divide
    data = tmp_path / "signal.csv"
    write_signal_csv(data, SequenceBatch(values=Rng(4).normal((1, 64, 1))))
    cfg = write_json(tmp_path / "pre.json", {"model": TINY_MODEL, "train": {"epochs": 1}, "data": str(data)})
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "CSV input is for forecast" in capsys.readouterr().err
    ckpt = trained_checkpoint(tmp_path)
    assert main(["finetune", "--config", cfg, "--checkpoint", ckpt, "--out", str(tmp_path / "f")]) == 2
    assert "CSV input is for forecast" in capsys.readouterr().err
    assert main(["forecast", "--checkpoint", ckpt, "--data", str(data), "--horizon", "2", "--out", str(tmp_path / "c")]) == 0


def test_missing_data_exits_three(tmp_path):
    cfg = write_json(tmp_path / "p.json", {
        "model": TINY_MODEL, "train": {"epochs": 1}, "data": str(tmp_path / "nope.ndar"),
    })
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def _error_line(capsys) -> str:
    """The one line a failed command wrote to stderr."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("command", ["finetune", "forecast", "classify"])
def test_missing_checkpoint_exits_three(tmp_path, capsys, command):
    data = tmp_path / "sig.ndar"
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    if command == "finetune":  # which reads its data path from the config
        inputs = ["--config", write_json(tmp_path / "ft.json", {"train": {"epochs": 1}, "data": str(data)})]
    else:
        inputs = ["--data", str(data)]
    missing = tmp_path / "nope.ckpt"
    assert main([command, "--checkpoint", str(missing), "--out", str(tmp_path / "o")] + inputs) == 3
    assert str(missing) in _error_line(capsys)


@pytest.mark.parametrize("which", ["data", "checkpoint"])
def test_directory_as_data_or_checkpoint_exits_three(tmp_path, capsys, which):
    ckpt, data = trained_checkpoint(tmp_path), tmp_path / "sig.ndar"
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"checkpoint": ckpt, "data": data, which: folder}
    assert main(["forecast", "--checkpoint", str(paths["checkpoint"]), "--data", str(paths["data"]),
                 "--horizon", "2", "--out", str(tmp_path / "o")]) == 3
    assert str(folder) in _error_line(capsys)


@pytest.mark.parametrize("write", [
    lambda path: path.mkdir(),
    lambda path: path.write_text("[1, 2]"),
    lambda path: path.write_text('"forecast"'),
    lambda path: path.write_bytes(b'{"horizon": 2, "note": "\xff"}'),
], ids=["directory", "array", "string", "not_utf8"])
def test_unreadable_or_non_object_config_exits_two(tmp_path, capsys, write):
    ckpt, data = trained_checkpoint(tmp_path), tmp_path / "sig.ndar"
    save_tensor(data, Rng(2).normal((2, 32, 1)))
    cfg = tmp_path / "cfg.json"
    write(cfg)
    args = ["forecast", "--config", str(cfg), "--checkpoint", ckpt, "--data", str(data), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    assert str(cfg) in _error_line(capsys)


def test_non_utf8_signal_csv_exits_three(tmp_path, capsys):
    data = tmp_path / "signal.csv"
    write_signal_csv(data, SequenceBatch(values=Rng(4).normal((1, 64, 1))))
    data.write_bytes(data.read_bytes().replace(b"\n1,", b"\n1\xff,", 1))
    assert main(["forecast", "--checkpoint", trained_checkpoint(tmp_path), "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 3
    assert _error_line(capsys).startswith(f"error: {data}: ")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("suffix", [".ndar", ".csv"])
def test_nonfinite_signal_exits_three(tmp_path, capsys, bad, suffix):
    """A NaN or inf in a signal file is refused, not forecast from into a
    ``token_mae`` of nan."""
    values = Rng(4).normal((1, 64, 1))
    values[0, 10, 0] = float(bad)
    data = tmp_path / f"signal{suffix}"
    if suffix == ".ndar":
        save_tensor(data, values)
    else:
        data.write_text("t,v1\n" + "".join(f"{t},{float(v)!r}\n" for t, v in enumerate(values[0, :, 0])))
    assert main(["forecast", "--checkpoint", trained_checkpoint(tmp_path), "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 3
    assert "finite" in _error_line(capsys)


@pytest.mark.parametrize("length", [0, 1])
def test_forecast_of_data_with_no_token_after_the_prompt_exits_three(tmp_path, capsys, length):
    """Sequences of 0 or 1 tokens leave no truth after the shortest prompt
    (the start token and one more): refused with the file and the token
    counts, not scored as a ``token_mae`` of nan."""
    data = tmp_path / "short.ndar"
    save_tensor(data, np.zeros((2, length, 1)))
    assert main(["forecast", "--checkpoint", trained_checkpoint(tmp_path), "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 3
    assert _error_line(capsys) == (f"error: {data}: {length} tokens leave no truth after a prompt of 2 "
                                   "to score the forecast against\n")
    assert not (tmp_path / "o" / "eval.csv").exists()


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
