"""tsgpt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {pretrain-long,rollout,cohort} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``
beside this directory.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A line before it records the environment.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, so that timings do not depend
# on how many cores the machine happens to have free.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("pretrain-long", "rollout", "cohort")

# Share of a traced run spent untraced, as the reference for the overhead.
UNTRACED_SHARE = 1 / 3
BUSY_LOAD_PER_CPU = 0.75

LAYERS = (
    "retention.core",
    "positional.xpos_qk",
    "convolution.tconv",
    "model.retention_block",
    "model.ffn",
    "model.head",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> None:
    """Import tsgpt from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tsgpt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tsgpt sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import tsgpt

    if Path(tsgpt.__file__).resolve().parent != (src / "tsgpt").resolve():
        sys.exit(f"perfbench: tsgpt imported from {tsgpt.__file__}, not from {src}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    ncpu = os.cpu_count() or 1
    load = os.getloadavg()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": ncpu,
        "load_start": list(load),
        "busy": load[0] > BUSY_LOAD_PER_CPU * ncpu,
        "commit": git_commit(),
    }


def median(xs) -> float:
    return float(statistics.median(xs))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(w, setup_times) -> dict:
    """Medians over the timed operations of the run; per-token latency pools
    the gaps between consecutive tokens of every rollout after the first."""
    p, s = w.plan, w.samples
    return {
        "setup_s": metric(median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train.tokens_per_s": metric(p.train_batch * p.length / median(s["train"]), "tokens/s"),
        "finetune.seqs_per_s": metric(p.finetune_batch / median(s["finetune"]), "sequences/s"),
        "classify.subjects_per_s": metric(p.classify_n / median(s["classify"]), "subjects/s"),
        "rollout.ttft_ms.b1": metric(1e3 * median(s["ttft.b1"]), "ms"),
        "rollout.ttft_ms.b8": metric(1e3 * median(s["ttft.b8"]), "ms"),
        "rollout.ms_per_token.b1": metric(1e3 * median(s["gap.b1"]), "ms"),
        "rollout.ms_per_token.b8": metric(1e3 * median(s["gap.b8"]), "ms"),
    }


def sample_summary(samples: dict) -> dict:
    """Count, fastest and median of every sample set, in ms as measured."""
    return {
        kind: {"n": len(xs), "min_ms": 1e3 * min(xs), "median_ms": 1e3 * median(xs)}
        for kind, xs in samples.items()
    }


def per_layer(w, setup_recs, untraced_train) -> dict:
    """Medians over traced ops: train steps for fwd/bwd, B=1 rollouts per
    emitted token, B=8 rollouts for the prompt encode, set-ups for the
    checkpoint round trip and data generation."""
    recs = {}
    for r in w.records:
        recs.setdefault(r["kind"], []).append(r)
    train, b1, b8 = recs["train"], recs["rollout.b1"], recs["rollout.b8"]
    H = w.plan.horizon
    from spans import STACK_SPANS

    def med(f, rs):
        return median([f(r) for r in rs])

    def fwd(r, names):
        return 1e3 * sum(r["self"].get(n, 0.0) for n in names)

    def bwd(r, names):
        return 1e3 * sum(r["bwd"].get(n, 0.0) for n in names)

    def backward_self(r):
        return 1e3 * r["self"].get("tensor.backward", 0.0) - bwd(r, r["bwd"])

    def attributed(r):
        names = LAYERS + STACK_SPANS
        return fwd(r, names) + bwd(r, names) + backward_self(r) + fwd(r, ("training.adam",))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.fwd_ms"] = metric(med(lambda r: fwd(r, (layer,)), train), "ms")
        out[f"{layer}.bwd_ms"] = metric(med(lambda r: bwd(r, (layer,)), train), "ms")
        out[f"{layer}.token_ms"] = metric(med(lambda r: 1e3 * r["after_encode"].get(layer, 0.0) / H, b1), "ms")
    out["model.stack.fwd_ms"] = metric(med(lambda r: fwd(r, STACK_SPANS), train), "ms")
    out["model.stack.bwd_ms"] = metric(med(lambda r: bwd(r, STACK_SPANS), train), "ms")
    out["retention.mask_mb"] = metric(med(lambda r: r["mask_bytes"] / 1e6, train), "MB")
    out["model.encode_ms"] = metric(med(lambda r: r["encode_ms"], b8), "ms")
    out["model.layer_step_ms"] = metric(med(lambda r: 1e3 * r["layer_step"] / H, b1), "ms")
    out["model.checkpoint.save_ms"] = metric(med(lambda r: fwd(r, ("model.checkpoint.save",)), setup_recs), "ms")
    out["model.checkpoint.load_ms"] = metric(med(lambda r: fwd(r, ("model.checkpoint.load",)), setup_recs), "ms")
    out["datagen.gen_ms"] = metric(med(lambda r: fwd(r, ("datagen.gen",)), setup_recs), "ms")
    out["tensor.backward.self_ms"] = metric(med(backward_self, train), "ms")
    out["tensor.tape_nodes"] = metric(med(lambda r: r["nodes"], train), "count")
    out["tensor.tensors_per_token"] = metric(med(lambda r: r["tensors_after_encode"] / H, b1), "count")
    out["training.adam_ms"] = metric(med(lambda r: fwd(r, ("training.adam",)), train), "ms")
    traced_step = med(lambda r: 1e3 * r["wall"], train)
    unattributed = med(lambda r: 1e3 * r["wall"] - attributed(r), train)
    out["trace.unattributed_ms"] = metric(unattributed, "ms")
    out["trace.unattributed_pct"] = metric(100.0 * unattributed / traced_step, "%")
    # train steps rescaled by the host-speed probe, so the host's drift
    # between the untraced and the traced part of the run cancels
    untraced_step, rescaled_step = median(untraced_train), median(w.samples["train"])
    out["trace.overhead_pct"] = metric(100.0 * (rescaled_step - untraced_step) / untraced_step, "%")
    return out


def rounds_until(w, deadline: float) -> None:
    """Whole timed rounds, at least one, until the deadline has passed."""
    w.round(timed=True)
    while perf_counter() < deadline:
        w.round(timed=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    import_package()
    from spans import Tracer
    from workloads import SETUP_REPEATS, Workload

    env = environment()
    if env["busy"]:
        print(f"perfbench: warning: load average {env['load_start'][0]:.2f} on {env['nproc']} cpus", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as scratch:
        w = Workload(args.workload, args.seed, scratch)
        setup_times, setup_recs = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # each set-up starts from a heap without the last one's garbage
            if tracer is None:
                scale = w.bulk_probe.scale()
                t0 = perf_counter()
                w.setup()
                setup_times.append((perf_counter() - t0) * scale)
            else:
                with tracer.installed(), tracer.op("setup") as rec:
                    w.setup()
                setup_recs.append(rec)
        w.round(timed=False)  # warm-up: allocations and first-call costs

        t_end = perf_counter() + args.seconds
        untraced_train = []
        if tracer is not None:
            rounds_until(w, perf_counter() + UNTRACED_SHARE * args.seconds)
            untraced_train = w.samples["train"]
            w.drop_samples()
            w.op = tracer.op
            with tracer.installed():
                rounds_until(w, t_end)
        else:
            rounds_until(w, t_end)
        metrics = per_layer(w, setup_recs, untraced_train) if tracer else end_to_end(w, setup_times)
        w.check()
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    env["load_end"] = list(os.getloadavg())
    probes = {"probe.bulk": w.bulk_probe.times, "probe.small_ops": w.token_probe.times}
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": sample_summary({**w.wall, **probes})}))
    for line in w.failures + w.problems:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not w.problems,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
