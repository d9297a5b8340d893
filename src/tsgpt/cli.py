"""Command-line surface: gen, pretrain, finetune, forecast, classify,
bench, ablate, selftest.

Every command takes a JSON config and/or flags (flags win), writes its
artifacts under --out, and records a manifest.json with the resolved
settings and wall-clock timings.  Artifacts other than the manifest are
byte-identical across reruns with the same config and seed.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
import typing

import numpy as np

from . import bench as bench_mod
from . import datagen as dg
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InputError,
    TaskError,
    TsgptError,
    UsageError,
)
from .metrics import accuracy, macro_auprc, mae
from .model import Model, ModelConfig, pooled_tokens
from .svgplot import line_plot_svg
from .tensor import Rng, Tensor
from .training import TrainSchedule, train, write_records

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 2, 3, 4


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def _load_config(path) -> dict:
    if path is None:
        raise UsageError("missing required --config")
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise UsageError(f"config {path} is not valid JSON: {e}")


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise UsageError(f"config for {context} is missing required field {key!r}")
    return cfg[key]


def _scalar(cfg: dict, key: str, kind: type, default=None):
    """``cfg[key]``, or ``default`` when absent: a JSON integer when ``kind``
    is int, any JSON number when it is float (never a boolean); anything else
    is a UsageError."""
    if key not in cfg:
        return default
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise UsageError(f"config field {key!r} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return value


def _from_section(cls, section, context: str, seed: int | None = None, **fields):
    """``cls(**section, **fields)``, with ``seed`` set when given.  A section
    that is not an object, names a field ``cls`` does not take, or gives a
    bool, int, float or str field (or one of these or None) a value of
    another JSON type is a UsageError; integers pass as floats."""
    if not isinstance(section, dict):
        raise UsageError(f"{context} config must be a JSON object, got {type(section).__name__}")
    hints = typing.get_type_hints(cls) if dataclasses.is_dataclass(cls) else {}
    json_kinds = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
    for key, value in section.items():
        kinds = typing.get_args(hints.get(key)) or (hints.get(key),)  # X | None names both
        kind = next((k for k in kinds if k in json_kinds), None)
        if kind and not (value is None and type(None) in kinds) and (
                isinstance(value, bool) != (kind is bool) or not isinstance(value, json_kinds[kind])):
            raise UsageError(f"{context} config field {key!r} must be {kind.__name__}, got {value!r}")
    d = dict(section, **fields)
    if seed is not None:
        d["seed"] = seed
    try:
        return cls(**d)
    except TypeError as e:
        raise UsageError(f"bad {context} config field: {e}")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _environment() -> dict:
    """What a run's timings depend on beyond the code: interpreter, numpy
    and its BLAS, the host's CPU count and its load averages (1, 5, 15 min)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _write_manifest(out_dir, command: str, config_path, seed, timings: dict, extra: dict | None = None) -> None:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "command": command,
        "config": config_path,
        "seed": seed,
        "git_describe": _git_describe(),
        "out_dir": str(out_dir),
        "argv": sys.argv[1:],
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1),
        "minor_faults": usage.ru_minflt,  # pages the process faulted in without I/O
        "env": _environment(),
    }
    if extra:
        manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_signal(path) -> dg.SequenceBatch:
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    if str(path).endswith(".csv"):
        return dg.read_signal_csv(path)
    return dg.read_signal_ndar(path)


def _load_cohort(path, vocab: int) -> dg.SequenceBatch:
    if not os.path.exists(path):
        raise DataError(f"data file not found: {path}")
    return dg.read_cohort_jsonl(path, vocab)


def _load_batch(path, model_cfg: ModelConfig, command: str) -> dg.SequenceBatch:
    """The cohort (discrete models) or signal file a model of ``model_cfg``
    trains on.  A signal CSV holds one sequence, which the three-way split
    of every training command rejects, so it is refused up front."""
    if str(path).endswith(".csv"):
        raise UsageError(f"{command} cannot train on {path}: a signal CSV holds one sequence; CSV input is for forecast")
    if model_cfg.discrete:
        return _load_cohort(path, model_cfg.n_inputs)
    return _load_signal(path)


def _eval_inputs(args, command: str) -> tuple[dict, str, str]:
    """(config, checkpoint, data) for an eval command; flags win over the
    config's ``checkpoint`` and ``data`` fields."""
    cfg = _load_config(args.config) if args.config else {}
    checkpoint = args.checkpoint or cfg.get("checkpoint")
    data = args.data or cfg.get("data")
    if not checkpoint:
        raise UsageError(f"{command} needs a checkpoint (--checkpoint or config field 'checkpoint')")
    if not data:
        raise UsageError(f"{command} needs data (--data or config field 'data')")
    return cfg, checkpoint, data


def _load_trained(path) -> Model:
    """Load a checkpoint for eval, which reads the batch-norm running statistics."""
    model = Model.load(path)
    if any(layer.tconv is not None for layer in model.layers) and not model.named_norm_stats():
        raise CheckpointError(f"checkpoint {path} holds no batch-norm statistics: it was saved before any training step")
    return model


def _write_metric_csv(path, rows: list[tuple[str, float]]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "value"])
        for name, value in rows:
            w.writerow([name, repr(float(value))])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _scalar(cfg, "seed", int, 0)
    os.makedirs(args.out, exist_ok=True)
    kind = _require(cfg, "kind", "gen")
    t0 = time.perf_counter()
    if kind == "signal":
        spec_d = _from_section(dict, _require(cfg, "spec", "gen"), "signal spec")
        seasonal = spec_d.pop("seasonal", [{"amplitude": 1.0, "period": 64.0}])
        if not isinstance(seasonal, list):
            raise UsageError(f"signal spec field 'seasonal' must be a JSON list, got {type(seasonal).__name__}")
        seasonal = tuple(_from_section(dg.Seasonal, s, "seasonal") for s in seasonal)
        spec = _from_section(dg.SignalSpec, spec_d, "signal spec", seed, seasonal=seasonal)
        batch, comps = dg.gen_signal(spec)
        fmt = cfg.get("format", "ndar")
        if fmt == "csv":
            data_path = os.path.join(args.out, "signal.csv")
            dg.write_signal_csv(data_path, batch)
        elif fmt == "ndar":
            data_path = os.path.join(args.out, "signal.ndar")
            dg.write_signal_ndar(data_path, batch)
        else:
            raise UsageError(f"unknown signal format {fmt!r} (csv or ndar)")
        meta = {"kind": "signal", "length": spec.length, "variates": spec.variates,
                "n_sequences": spec.n_sequences, "seed": seed, "data": os.path.basename(data_path)}
    elif kind == "cohort":
        spec = _from_section(dg.EventCohortSpec, _require(cfg, "spec", "gen"), "cohort spec", seed)
        batch, info = dg.gen_cohort(spec)
        data_path = os.path.join(args.out, "cohort.jsonl")
        dg.write_cohort_jsonl(data_path, batch)
        meta = {
            "kind": "cohort",
            "vocab": spec.vocab,
            "classes": spec.classes,
            "subjects": spec.subjects,
            "seed": seed,
            "data": os.path.basename(data_path),
            "bayes_ceiling": dg.bayes_accuracy(batch, info),
            "majority": dg.majority_accuracy(batch.labels),
            "class_prior": info.class_prior.tolist(),
        }
    else:
        raise UsageError(f"unknown gen kind {kind!r} (signal or cohort)")
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(args.out, "gen", args.config, seed, {"generate": time.perf_counter() - t0})
    print(f"wrote {meta['data']} and meta.json to {args.out}")
    return 0


def _split_three(batch, cfg, seed):
    fracs = cfg.get("splits", [0.8, 0.1, 0.1])
    if not isinstance(fracs, list) or len(fracs) != 3:
        raise UsageError(f"config field 'splits' must be a list of three numbers, got {fracs!r}")
    fracs = tuple(_scalar({"splits": f}, "splits", float) for f in fracs)
    return dg.split(batch, fracs, seed=_scalar(cfg, "split_seed", int, seed))


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _scalar(cfg, "seed", int, 0)
    os.makedirs(args.out, exist_ok=True)
    model_cfg = _from_section(ModelConfig, _require(cfg, "model", "pretrain"), "model", seed)
    sched = _from_section(TrainSchedule, cfg.get("train", {}), "train", seed)
    data_path = _require(cfg, "data", "pretrain")

    t0 = time.perf_counter()
    batch = _load_batch(data_path, model_cfg, "pretrain")
    tr, va, _te = _split_three(batch, cfg, seed)
    t_load = time.perf_counter() - t0

    model = Model(model_cfg)
    t0 = time.perf_counter()
    records = train(model, tr, va, sched)
    t_train = time.perf_counter() - t0

    ckpt = os.path.join(args.out, "model.ckpt")
    model.save(ckpt)
    write_records(os.path.join(args.out, "metrics.csv"), records)
    extra = {"checkpoint": "model.ckpt", "train_tokens": int(batch.values.shape[1]), "params": model.param_count()}
    _write_manifest(args.out, "pretrain", args.config, seed, {"load": t_load, "train": t_train}, extra)
    print(f"pretrained {model.param_count()} params; checkpoint at {ckpt}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _scalar(cfg, "seed", int, 0)
    os.makedirs(args.out, exist_ok=True)
    if not args.checkpoint:
        raise UsageError("finetune needs --checkpoint")
    pretrained = Model.load(args.checkpoint)
    if "model" in cfg:
        wanted = _from_section(ModelConfig, cfg["model"], "model")
        if wanted.backbone_hash() != pretrained.cfg.backbone_hash():
            raise CheckpointError(
                f"checkpoint backbone {pretrained.cfg.backbone_hash()} does not match config {wanted.backbone_hash()}"
            )
    head = cfg.get("head", "classification")
    sched = _from_section(TrainSchedule, cfg.get("train", {"epochs": 5}), "train", seed)
    data_path = _require(cfg, "data", "finetune")

    t0 = time.perf_counter()
    batch = _load_batch(data_path, pretrained.cfg, "finetune")
    tr, va, te = _split_three(batch, cfg, seed)
    fraction = _scalar(cfg, "subset_fraction", float)
    if fraction:
        tr = dg.finetune_subset(tr, fraction, seed=seed)
    t_load = time.perf_counter() - t0

    n_classes = _scalar(cfg, "n_classes", int, int(batch.labels.max()) + 1 if batch.labels is not None else 2)
    model = pretrained.with_head(head, n_classes=n_classes)

    def metric_fn(m, val_batch):
        if head == "classification":
            logits = m.classify_logits(val_batch, train=False).value
            return accuracy(logits.argmax(axis=1), val_batch.labels)
        if head == "regression":
            out = m.regression_output(val_batch, train=False).value[:, 0]
            return mae(out, val_batch.labels)
        return float(m.loss(val_batch, train=False).value)

    t0 = time.perf_counter()
    records = train(model, tr, va, sched, metric_fn=metric_fn)
    t_train = time.perf_counter() - t0

    ckpt = os.path.join(args.out, "model.ckpt")
    model.save(ckpt)
    write_records(os.path.join(args.out, "metrics.csv"), records)

    rows = [("val_loss", float(model.loss(va, train=False).value))]
    if head == "classification":
        logits = model.classify_logits(te, train=False).value
        rows += [
            ("test_accuracy", accuracy(logits.argmax(axis=1), te.labels)),
            ("test_auprc", macro_auprc(logits, te.labels)),
        ]
    elif head == "regression":
        rows += [("test_mae", mae(model.regression_output(te, train=False).value[:, 0], te.labels))]
    _write_metric_csv(os.path.join(args.out, "eval.csv"), rows)
    _write_manifest(args.out, "finetune", args.config, seed, {"load": t_load, "train": t_train},
                    {"checkpoint": "model.ckpt", "head": head})
    print(f"finetuned head={head}; checkpoint at {ckpt}")
    return 0


def cmd_forecast(args) -> int:
    cfg, checkpoint, data = _eval_inputs(args, "forecast")
    horizon = args.horizon if args.horizon is not None else _scalar(cfg, "horizon", int, 32)
    prompt_tokens_arg = args.prompt_tokens if args.prompt_tokens is not None else _scalar(cfg, "prompt_tokens", int)
    train_len = args.train_len if args.train_len is not None else _scalar(cfg, "train_len", float)
    if horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {horizon}")
    os.makedirs(args.out, exist_ok=True)
    model = _load_trained(checkpoint)
    full = _load_signal(data)

    t0 = time.perf_counter()
    tokens_full = pooled_tokens(full.values) if model.subsampler is not None else full.values
    total_tokens = tokens_full.shape[1]
    ratio = 4 if model.subsampler is not None else 1
    prompt_tokens = prompt_tokens_arg or max(2, total_tokens // 2)
    if prompt_tokens >= total_tokens and total_tokens > 2:
        prompt_tokens = max(2, total_tokens - horizon)
    prompt = dg.SequenceBatch(values=full.values[:, : prompt_tokens * ratio, :])
    preds = model.generate(prompt, horizon=horizon)
    t_gen = time.perf_counter() - t0

    truth = tokens_full[:, prompt_tokens : prompt_tokens + horizon, :]
    with open(os.path.join(args.out, "forecast.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        V = preds.shape[-1]
        w.writerow(["seq", "token"] + [f"pred_v{i+1}" for i in range(V)] + [f"true_v{i+1}" for i in range(V)])
        for b in range(preds.shape[0]):
            for t in range(preds.shape[1]):
                row = [b, prompt_tokens + t] + [repr(float(x)) for x in preds[b, t]]
                row += [repr(float(x)) for x in truth[b, t]] if t < truth.shape[1] else [""] * V
                w.writerow(row)

    fc_mae = mae(preds[:, : truth.shape[1]], truth) if truth.shape[1] else float("nan")
    _write_metric_csv(os.path.join(args.out, "eval.csv"), [("token_mae", fc_mae)])

    prompt_t = np.arange(prompt_tokens)
    series = [
        ("prompt", prompt_t, tokens_full[0, :prompt_tokens, 0], "#555555", False),
        ("forecast", prompt_tokens + np.arange(preds.shape[1]), preds[0, :, 0], "#c0392b", False),
    ]
    if truth.shape[1]:
        series.append(("truth", prompt_tokens + np.arange(truth.shape[1]), truth[0, :, 0], "#2e86c1", True))
    svg = line_plot_svg(series, vline=None if train_len is None else float(train_len),
                        title="token-granularity forecast")
    with open(os.path.join(args.out, "forecast.svg"), "w") as fh:
        fh.write(svg)
    _write_manifest(args.out, "forecast", args.config, None, {"generate": t_gen},
                    {"horizon": horizon, "prompt_tokens": int(prompt_tokens), "token_mae": fc_mae})
    print(f"forecast horizon={horizon}, token MAE vs truth: {fc_mae:.4f}")
    return 0


def cmd_classify(args) -> int:
    _cfg, checkpoint, data = _eval_inputs(args, "classify")
    os.makedirs(args.out, exist_ok=True)
    model = _load_trained(checkpoint)
    if model.cfg.head_kind != "classification":
        raise TaskError(f"checkpoint head is {model.cfg.head_kind!r}, classify needs a classification head")
    batch = _load_cohort(data, model.cfg.n_inputs)
    t0 = time.perf_counter()
    logits = model.classify_logits(batch, train=False).value
    t_eval = time.perf_counter() - t0
    preds = logits.argmax(axis=1)
    with open(os.path.join(args.out, "predictions.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "label", "pred"] + [f"score_c{c}" for c in range(logits.shape[1])])
        for i in range(len(preds)):
            w.writerow([i, int(batch.labels[i]), int(preds[i])] + [repr(float(s)) for s in logits[i]])
    rows = [("accuracy", accuracy(preds, batch.labels)), ("auprc", macro_auprc(logits, batch.labels))]
    _write_metric_csv(os.path.join(args.out, "metrics.csv"), rows)
    _write_manifest(args.out, "classify", args.config, None, {"eval": t_eval}, {"accuracy": rows[0][1]})
    print(f"accuracy {rows[0][1]:.4f}, macro AUPRC {rows[1][1]:.4f}")
    return 0


def cmd_bench(args) -> int:
    lengths = [int(x) if x.strip().isdecimal() else 0 for x in args.lengths.split(",")]
    if min(lengths) < 1:
        raise UsageError(f"--lengths must be comma-separated positive integers, got {args.lengths!r}")
    mechanisms = args.mechanisms.split(",")
    for m in mechanisms:
        if m not in bench_mod.MECHANISMS:
            raise UsageError(f"unknown mechanism {m!r}; choose from {bench_mod.MECHANISMS}")
    os.makedirs(args.out, exist_ok=True)
    t0 = time.perf_counter()
    results, slopes = bench_mod.run_bench(
        lengths, mechanisms, heads=args.heads, d=args.d,
        chunk_size=args.chunk_size, repetitions=args.reps, seed=args.seed or 0,
    )
    t_bench = time.perf_counter() - t0
    with open(os.path.join(args.out, "bench.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mechanism", "n", "heads", "d", "chunk_size", "repetitions",
                    "median_seconds", "model_flops", "loglog_slope"])
        for r in results:
            w.writerow([r.mechanism, r.n, r.heads, r.d, r.chunk_size, r.repetitions,
                        repr(r.median_seconds), r.model_flops, repr(r.loglog_slope)])
    with open(os.path.join(args.out, "slopes.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["mechanism", "loglog_slope"])
        for m, s in slopes.items():
            w.writerow([m, repr(s)])
    _write_manifest(args.out, "bench", None, args.seed, {"bench": t_bench}, {"slopes": slopes})
    for m, s in slopes.items():
        print(f"{m}: slope {s:.3f}")
    return 0


ABLATION_ROWS = (
    ("full", {}),
    ("no_subsampler", {"no_subsampler": True}),
    ("no_temporal_conv", {"no_subsampler": True, "no_temporal_conv": True}),
    ("no_decay", {"no_subsampler": True, "no_temporal_conv": True, "no_decay": True}),
    ("vanilla", {"no_subsampler": True, "no_temporal_conv": True, "no_decay": True, "no_rotation": True}),
)


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else _scalar(cfg, "seed", int, 0)
    os.makedirs(args.out, exist_ok=True)
    base_model = _from_section(dict, _require(cfg, "model", "ablate"), "model")
    sched = _from_section(TrainSchedule, cfg.get("train", {"epochs": 2}), "train", seed)
    data_path = _require(cfg, "data", "ablate")
    irregular = bool(base_model.get("discrete", False))
    row_cfgs = []
    for name, flags in ABLATION_ROWS:
        if irregular and name == "no_subsampler":
            # discrete event streams never use the tokenizer, so the row
            # would duplicate "full"
            continue
        fields = dict({"no_subsampler": True} if irregular else {}, **flags)
        row_cfgs.append((name, _from_section(ModelConfig, base_model, "model", seed, **fields)))

    t0 = time.perf_counter()
    batch = _load_batch(data_path, row_cfgs[0][1], "ablate")
    tr, va, te = _split_three(batch, cfg, seed)
    rows_out = []
    for name, model_cfg in row_cfgs:
        model = Model(model_cfg)
        train(model, tr, va, sched)
        if irregular and batch.labels is not None:
            n_classes = int(batch.labels.max()) + 1
            clf = model.with_head("classification", n_classes=n_classes)
            fsched = _from_section(TrainSchedule, cfg.get("finetune", {"epochs": 3}), "finetune", seed)
            train(clf, tr, va, fsched)
            logits = clf.classify_logits(te, train=False).value
            metric = accuracy(logits.argmax(axis=1), te.labels)
            metric_name = "test_accuracy"
        else:
            metric = float(model.loss(va, train=False).value)
            metric_name = "val_loss"
        rows_out.append((name, model.param_count(), metric_name, metric))
    t_all = time.perf_counter() - t0

    with open(os.path.join(args.out, "ablate.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "params", "metric", "value"])
        for name, params, mname, val in rows_out:
            w.writerow([name, params, mname, repr(val)])
    _write_manifest(args.out, "ablate", args.config, seed, {"ablate": t_all})
    for name, params, mname, val in rows_out:
        print(f"{name:18s} params={params:7d} {mname}={val:.4f}")
    return 0


def cmd_selftest(args) -> int:
    """Fast invariant sweep; prints one PASS/FAIL line per check."""
    checks: list[tuple[str, bool]] = []

    from .positional import RotaryAngles, rotate
    from .retention import ChunkPlan, DecayMask, retention_chunkwise, retention_parallel, retention_recurrent

    rng = Rng(args.seed or 0)

    # three-form equivalence on a small irregular case
    q, k, v = (rng.normal((2, 12, 4)) for _ in range(3))
    ts = np.cumsum(rng.integers(1, 5, (12,))).astype(np.int64)
    par = retention_parallel(Tensor(q), Tensor(k), Tensor(v), DecayMask.build(0.9, timestamps=ts)).value
    rec, _ = retention_recurrent(Tensor(q), Tensor(k), Tensor(v), ts, 0.9)
    chk, _ = retention_chunkwise(Tensor(q), Tensor(k), Tensor(v), ts, 0.9, ChunkPlan.build(12, 5))
    checks.append(("retention-three-form-equivalence", float(max(np.max(np.abs(par - rec.value)), np.max(np.abs(par - chk.value)))) < 1e-9))

    # irregular reduction is bitwise
    checks.append((
        "irregular-mask-reduction",
        DecayMask.build(0.95, length=9).matrix.tobytes() == DecayMask.build(0.95, timestamps=np.arange(2, 11)).matrix.tobytes(),
    ))

    # rotation shift invariance
    x = rng.normal((1, 8))
    y = rng.normal((1, 8))
    ang = RotaryAngles(8)
    s1 = float((rotate(Tensor(x), np.array([5]), ang).value * rotate(Tensor(y), np.array([2]), ang).value).sum())
    s2 = float((rotate(Tensor(x), np.array([9]), ang).value * rotate(Tensor(y), np.array([6]), ang).value).sum())
    checks.append(("rotation-shift-invariance", abs(s1 - s2) < 1e-10))

    # FLOP crossovers: attention ties the feed-forward at n = 2hd (its
    # quadratic term equals its projections) and reaches twice it at n = 6hd
    # (the quadratic term equals the layer's whole linear part); one token
    # past each it leads, and dominant_term switches there
    h, d = 4, 16
    for ratio, n, below, above in ((1, 2 * h * d, "feed-forward", "linear"), (2, 6 * h * d, "linear", "quadratic")):
        att = [bench_mod.attention_flops(m, h, d) for m in (n, n + 1)]
        ffn = [ratio * bench_mod.ffn_flops(m, h, d) for m in (n, n + 1)]
        terms = [bench_mod.dominant_term(m, h, d) for m in (n, n + 1)]
        checks.append((f"flop-boundary-{n // (h * d)}hd", att[0] == ffn[0] and att[1] > ffn[1] and terms == [below, above]))

    # micro gradient check
    from .datagen import SignalSpec, gen_signal
    from .training import grad_check

    model = Model(ModelConfig(layers=1, heads=1, d_q=4, d_v=4, n_inputs=1, conv_kernel=3, no_subsampler=True, seed=1))
    data, _ = gen_signal(SignalSpec(length=8, variates=1, n_sequences=2, seed=2))
    report = grad_check(model.named_params(), lambda: model.loss(data, train=True), tolerance=1e-4)
    checks.append(("gradient-check-tiny-model", report.passed))

    # determinism
    a, _ = gen_signal(SignalSpec(seed=7))
    b, _ = gen_signal(SignalSpec(seed=7))
    checks.append(("generator-determinism", a.values.tobytes() == b.values.tobytes()))

    ok = True
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    return 0 if ok else NUMERIC_EXIT


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tsgpt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True, out=True):
        if config:
            sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        if out:
            sp.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("gen", help="generate synthetic data"))
    common(sub.add_parser("pretrain", help="next-token pre-training"))
    sp = sub.add_parser("finetune", help="fine-tune from a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", help="pretrained checkpoint path")
    sp = sub.add_parser("forecast", help="autoregressive rollout from a checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", help="next-token checkpoint path")
    sp.add_argument("--data", help="signal file (csv or ndar)")
    sp.add_argument("--horizon", type=int, default=None, help="tokens to roll out (default 32)")
    sp.add_argument("--prompt-tokens", type=int, default=None, help="prompt length in tokens")
    sp.add_argument("--train-len", type=float, default=None, help="training length marker (tokens)")
    sp = sub.add_parser("classify", help="evaluate a classification checkpoint")
    common(sp)
    sp.add_argument("--checkpoint", help="classification checkpoint path")
    sp.add_argument("--data", help="cohort jsonl file")
    sp = sub.add_parser("bench", help="wall-clock complexity benchmark")
    common(sp, config=False)
    sp.add_argument("--lengths", default="512,1024,2048,4096,8192")
    sp.add_argument("--mechanisms", default="parallel,chunkwise")
    sp.add_argument("--heads", type=int, default=1)
    sp.add_argument("--d", type=int, default=16)
    sp.add_argument("--chunk-size", type=int, default=64)
    sp.add_argument("--reps", type=int, default=5)
    common(sub.add_parser("ablate", help="component ablation table"))
    sp = sub.add_parser("selftest", help="fast invariant sweep")
    sp.add_argument("--seed", type=int, default=None)
    return p


COMMANDS = {
    "gen": cmd_gen,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "forecast": cmd_forecast,
    "classify": cmd_classify,
    "bench": cmd_bench,
    "ablate": cmd_ablate,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (UsageError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except (DataError, InputError, CheckpointError, TaskError) as e:
        print(f"error: {e}", file=sys.stderr)
        return DATA_EXIT
    except TsgptError as e:
        print(f"error: {e}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
