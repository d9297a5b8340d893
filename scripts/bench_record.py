"""Record a before/after benchmark of this checkout as one BENCH file.

    python3 scripts/bench_record.py --number 20 --label retention_blocks \\
        --runs cohort=1-10 --runs cohort@heldout=21-24 --runs rollout=1-3

The tree before the change is ``HEAD``, extracted with ``git archive`` (the
helper ``scripts/parity.py`` uses); the changed tree is a copy of the files
git tracks or would add in this checkout, as they are on disk.  Both go to
a fresh temporary directory; nothing runs from the development checkout.
Each ``--runs GROUP=SEEDS`` runs the unmodified
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` of each
tree once per seed, W being GROUP up to an optional ``@tag`` (so that
held-out seeds can form a group of their own) and S the ``run_seconds`` of
``BENCHMARK.json``.  The two trees alternate within each seed, the first of
them switching from seed to seed.  Before each run the script waits, up to
``MAX_WAIT`` seconds, for the 1-minute load average to fall below
``MAX_LOAD``; a run whose ``env.busy`` is set anyway is run once more.

It writes ``BENCH_<number>_<label>.json`` at the repository root.  Per
group and tree: every end-to-end metric of ``BENCHMARK.json`` with its
median, inter-quartile range and count, and each run's seed, ``correct``,
``failed`` and ``busy``; per metric, how many seeds the change won (by the
metric's ``better`` direction) and the median of the per-seed changes.
Also each tree's commit, the ``env`` block of its first run, the line
count of each ``src/tsgpt`` module, and the tier-1 pass count and wall
time of the changed tree.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from parity import REPO, extract, line_counts  # noqa: E402

MAX_LOAD = 1.2  # 1-minute load average to wait below before each run
MAX_WAIT = 900.0  # longest wait for it, in seconds


def seeds(spec: str) -> list[int]:
    """``1-10,21`` -> [1, ..., 10, 21]."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def copy_worktree(dest: Path) -> Path:
    """The files git tracks or would add in this checkout, as they are on
    disk, copied under ``dest``."""
    files = subprocess.run(["git", "-C", str(REPO), "ls-files", "-co", "--exclude-standard", "-z"],
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, files):
        src = REPO / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def wait_for_load() -> float:
    """Sleep until the 1-minute load average is below ``MAX_LOAD`` or
    ``MAX_WAIT`` seconds have passed; returns the last load read."""
    deadline = time.monotonic() + MAX_WAIT
    while (load := os.getloadavg()[0]) >= MAX_LOAD and time.monotonic() < deadline:
        time.sleep(5)
    return load


def bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, env) of one untraced ``perfbench/run.py`` run in ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_record: {workload} seed {seed} in {root} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])["env"]


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "iqr": q[2] - q[0], "count": len(values)}


def tier1(root: Path) -> dict:
    """Pass count and wall time of the tier-1 suite run in ``root``."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=root, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")))
    seconds = time.monotonic() - t0
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error|errors)", proc.stdout.splitlines()[-1])}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0), "seconds": round(seconds, 1)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--number", type=int, required=True, help="number in the BENCH file's name")
    ap.add_argument("--label", required=True, help="label in the BENCH file's name")
    ap.add_argument("--runs", action="append", required=True, metavar="GROUP=SEEDS",
                    help="workload (optionally @tag) and seeds, e.g. cohort=1-10")
    args = ap.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    groups = [(g, seeds(s)) for g, _, s in (r.partition("=") for r in args.runs)]
    head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                          check=True, capture_output=True, text=True).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"base": extract("HEAD", Path(tmp) / "base", ()), "change": copy_worktree(Path(tmp) / "change")}
        record = {"number": args.number, "label": args.label, "seconds": seconds, "trees": {}}
        for side, commit in (("base", head), ("change", head + "+worktree")):
            lines = line_counts(roots[side] / "src")
            record["trees"][side] = {"commit": commit, "src_tsgpt_lines": {**lines, "total": sum(lines.values())}}
        record["groups"] = {}
        for group, group_seeds in groups:
            workload = group.partition("@")[0]
            runs = {"base": [], "change": []}
            for i, seed in enumerate(group_seeds):
                for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                    for attempt in range(2):
                        load = wait_for_load()
                        result, env = bench(roots[side], workload, seed, seconds)
                        if not env["busy"]:
                            break
                    record["trees"][side].setdefault("env", env)
                    runs[side].append({"seed": seed, "correct": result["correct"], "failed": result["failed"],
                                       "busy": env["busy"], "load_before": round(load, 2),
                                       "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                    print(f"{group} seed {seed} {side}: correct={result['correct']} failed={result['failed']} "
                          + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
            out = {"workload": workload, "seeds": group_seeds}
            for side in ("base", "change"):
                out[side] = {"metrics": {m: summary([r["metrics"][m] for r in runs[side]]) for m in better},
                             "runs": runs[side]}
            out["pairs"] = {}
            for m, direction in better.items():
                changes = [c["metrics"][m] / b["metrics"][m] - 1 for b, c in zip(runs["base"], runs["change"])]
                wins = sum((d > 0) == (direction == "higher") and d != 0 for d in changes)
                out["pairs"][m] = {"change_wins": wins, "of": len(changes),
                                   "median_change_pct": round(100 * statistics.median(changes), 2)}
            record["groups"][group] = out
        record["tier1"] = tier1(roots["change"])

    path = REPO / f"BENCH_{args.number}_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
