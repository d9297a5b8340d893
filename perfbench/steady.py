"""Steadiness of the benchmark: two sets of runs over several seeds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--trace 0|1]

Runs ``perfbench/run.py`` one run at a time, for BENCHMARK.json's
``run_seconds``, in two sets one after the other: set 1 on seeds 1..N for
every workload, then set 2 on seeds N+1..2N.  For each set and metric it
prints the median, the quartiles and the spread (q3 - q1) / median against
the metric's bound; then how far set 2's median lies from set 1's, as a
share of set 1's, against the same bound.  The raw results go to
``.perfbench/steady-<workload>-trace<0|1>.json``.

The benchmark is steady when every run is correct, every run fails the same
share of its operations, every spread is within a third of its bound and
every set-to-set gap is within its bound.  The bounds in BENCHMARK.json were
set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2]) if len(lines) >= 2 else {}
    return {"seed": seed, "elapsed_s": elapsed, "env": info.get("env", {}), "samples": info.get("samples", {}),
            "stderr": proc.stderr, **json.loads(lines[-1])}


def summary(runs: list[dict], name: str) -> tuple[float, float, float, float]:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(workload: str, sets: list[list[dict]], bounds: dict) -> bool:
    """Print the tables for one workload; True when it is steady."""
    runs = [r for s in sets for r in s]
    shares = {r["failed"] / r["attempted"] for r in runs}
    busy = sum(bool(r["env"].get("busy")) for r in runs)
    longest = max(r["elapsed_s"] for r in runs)
    print(f"\n{workload}: {len(sets)} sets of {len(sets[0])} runs, correct in {sum(r['correct'] for r in runs)}, "
          f"failed share {sorted(shares)}, started busy {busy}, longest run {longest:.1f} s")
    steady = len(shares) == 1 and all(r["correct"] for r in runs)
    names = list(runs[0]["metrics"])
    for i, runs_i in enumerate(sets, 1):
        print(f"  set {i}, seeds {runs_i[0]['seed']}..{runs_i[-1]['seed']}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in names:
            med, q1, q3, spread = summary(runs_i, name)
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                ok = spread <= bound / 3
                steady &= ok
                mark = "ok" if ok else "WIDE"
            bound_s = f"{bound:6.2f}" if bound is not None else f"{'':6s}"
            unit = runs_i[0]["metrics"][name]["unit"]
            print(f"  {name:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound_s} {unit} {mark}")
    print("  set 2 against set 1")
    for name in names:
        first, second = summary(sets[0], name)[0], summary(sets[1], name)[0]
        gap = (second - first) / first if first else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            ok = abs(gap) <= bound
            steady &= ok
            mark = "ok" if ok else "APART"
        print(f"  {name:32s} {first:12.4f} {second:12.4f} {gap:+8.4f} {mark}")
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if args.trace == 0 else {}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    sets: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for first_seed in (1, 1 + args.runs):
        for workload in workloads:
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
                print(f"  {workload} seed {seed}: done", file=sys.stderr)
            sets[workload].append(runs)
    steady = True
    for workload in workloads:
        (out_dir / f"steady-{workload}-trace{args.trace}.json").write_text(json.dumps(sets[workload], indent=1))
        steady &= report(workload, sets[workload], bounds)
    print("\nsteady" if steady else "\nNOT steady: a run was incorrect, failure shares differ, a spread exceeds "
          "a third of its bound, or the two sets' medians lie further apart than the bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
