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
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import datagen as dg
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    InputError,
    TaskError,
    TrainingError,
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


def _model_config(section: dict, seed: int | None) -> ModelConfig:
    d = dict(section)
    if seed is not None:
        d["seed"] = seed
    try:
        return ModelConfig(**d)
    except TypeError as e:
        raise UsageError(f"bad model config field: {e}")


def _schedule(section: dict, seed: int | None) -> TrainSchedule:
    d = dict(section)
    if seed is not None:
        d["seed"] = seed
    try:
        return TrainSchedule(**d)
    except TypeError as e:
        raise UsageError(f"bad train config field: {e}")


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _write_manifest(out_dir, command: str, config_path, seed, timings: dict, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config_path,
        "seed": seed,
        "git_describe": _git_describe(),
        "out_dir": str(out_dir),
        "argv": sys.argv[1:],
        "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
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


def _load_trained(path) -> Model:
    """Load a checkpoint for eval, which reads the batch-norm running statistics."""
    model = Model.load(path)
    if any(layer.tconv is not None and layer.tconv.bn_state is not None and layer.tconv.bn_state.running_mean is None
           for layer in model.layers):
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
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    kind = _require(cfg, "kind", "gen")
    t0 = time.perf_counter()
    if kind == "signal":
        spec_d = dict(_require(cfg, "spec", "gen"))
        spec_d["seed"] = seed
        seasonal = tuple(dg.Seasonal(**s) for s in spec_d.pop("seasonal", [{"amplitude": 1.0, "period": 64.0}]))
        spec = dg.SignalSpec(seasonal=seasonal, **spec_d)
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
        spec_d = dict(_require(cfg, "spec", "gen"))
        spec_d["seed"] = seed
        spec = dg.EventCohortSpec(**spec_d)
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
    fracs = tuple(cfg.get("splits", (0.8, 0.1, 0.1)))
    return dg.split(batch, fracs, seed=cfg.get("split_seed", seed))


def cmd_pretrain(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    model_cfg = _model_config(_require(cfg, "model", "pretrain"), seed)
    sched = _schedule(cfg.get("train", {}), seed)
    data_path = _require(cfg, "data", "pretrain")

    t0 = time.perf_counter()
    if model_cfg.discrete:
        batch = _load_cohort(data_path, model_cfg.n_inputs)
    else:
        batch = _load_signal(data_path)
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
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    if not args.checkpoint:
        raise UsageError("finetune needs --checkpoint")
    pretrained = Model.load(args.checkpoint)
    if "model" in cfg:
        wanted = _model_config(cfg["model"], None)
        if wanted.backbone_hash() != pretrained.cfg.backbone_hash():
            raise CheckpointError(
                f"checkpoint backbone {pretrained.cfg.backbone_hash()} does not match config {wanted.backbone_hash()}"
            )
    head = cfg.get("head", "classification")
    sched = _schedule(cfg.get("train", {"epochs": 5}), seed)
    data_path = _require(cfg, "data", "finetune")

    t0 = time.perf_counter()
    if pretrained.cfg.discrete:
        batch = _load_cohort(data_path, pretrained.cfg.n_inputs)
    else:
        batch = _load_signal(data_path)
    tr, va, te = _split_three(batch, cfg, seed)
    if cfg.get("subset_fraction"):
        tr = dg.finetune_subset(tr, float(cfg["subset_fraction"]), seed=seed)
    t_load = time.perf_counter() - t0

    n_classes = int(cfg.get("n_classes", int(batch.labels.max()) + 1 if batch.labels is not None else 2))
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
    cfg = _load_config(args.config) if args.config else {}
    checkpoint = args.checkpoint or cfg.get("checkpoint")
    data = args.data or cfg.get("data")
    horizon = args.horizon if args.horizon is not None else int(cfg.get("horizon", 32))
    prompt_tokens_arg = args.prompt_tokens if args.prompt_tokens is not None else cfg.get("prompt_tokens")
    train_len = args.train_len if args.train_len is not None else cfg.get("train_len")
    if not checkpoint:
        raise UsageError("forecast needs a checkpoint (--checkpoint or config field 'checkpoint')")
    if not data:
        raise UsageError("forecast needs data (--data or config field 'data')")
    if horizon < 1:
        raise UsageError(f"horizon must be >= 1, got {horizon}")
    os.makedirs(args.out, exist_ok=True)
    model = _load_trained(checkpoint)
    full = _load_signal(data)

    t0 = time.perf_counter()
    tokens_full = pooled_tokens(full.values) if model.subsampler is not None else full.values
    total_tokens = tokens_full.shape[1]
    ratio = 4 if model.subsampler is not None else 1
    prompt_tokens = int(prompt_tokens_arg) if prompt_tokens_arg else max(2, total_tokens // 2)
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
    cfg = _load_config(args.config) if args.config else {}
    checkpoint = args.checkpoint or cfg.get("checkpoint")
    data = args.data or cfg.get("data")
    if not checkpoint:
        raise UsageError("classify needs a checkpoint (--checkpoint or config field 'checkpoint')")
    if not data:
        raise UsageError("classify needs data (--data or config field 'data')")
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
    lengths = [int(x) for x in args.lengths.split(",")]
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
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(args.out, exist_ok=True)
    base_model = dict(_require(cfg, "model", "ablate"))
    sched_cfg = cfg.get("train", {"epochs": 2})
    data_path = _require(cfg, "data", "ablate")
    irregular = bool(base_model.get("discrete", False))

    t0 = time.perf_counter()
    rows_out = []
    for name, flags in ABLATION_ROWS:
        if irregular and name == "no_subsampler":
            # discrete event streams never use the tokenizer, so the row
            # would duplicate "full"
            continue
        d = dict(base_model)
        if irregular:
            d["no_subsampler"] = True
        d.update(flags)
        model_cfg = _model_config(d, seed)
        sched = _schedule(sched_cfg, seed)
        if irregular:
            batch = _load_cohort(data_path, model_cfg.n_inputs)
        else:
            batch = _load_signal(data_path)
        tr, va, te = _split_three(batch, cfg, seed)
        model = Model(model_cfg)
        train(model, tr, va, sched)
        if irregular and batch.labels is not None:
            n_classes = int(batch.labels.max()) + 1
            clf = model.with_head("classification", n_classes=n_classes)
            fsched = _schedule(cfg.get("finetune", {"epochs": 3}), seed)
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

    # FLOP boundary identities
    h, d = 4, 16
    n2, n6 = 2 * h * d, 6 * h * d
    checks.append(("flop-boundary-2hd", 4 * n2 * h * h * d * d == 2 * n2 * n2 * h * d))
    checks.append(("flop-boundary-6hd", 12 * n6 * h * h * d * d == 2 * n6 * n6 * h * d))

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
    except (TrainingError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return NUMERIC_EXIT
    except TsgptError as e:
        print(f"error: {e}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
