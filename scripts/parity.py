"""Check that two source trees of tsgpt compute bitwise the same arrays.

    python3 scripts/parity.py [REV]

REV (default ``HEAD``) is a git revision of this repository.  Its ``src/``
is extracted with ``git archive`` into a temporary directory; then this
script runs once per tree and BLAS setting in a fresh interpreter, with
``tsgpt`` imported from that tree's ``src/``, and writes every array below
to an ``.npz`` file.  The two BLAS settings are numpy's default thread
count (``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` unset) and
``OPENBLAS_NUM_THREADS=1``, which the benchmark uses; a tree's own arrays
may differ between the two, so the trees are compared within each setting
only.  For each setting the script prints how many arrays are bitwise
equal and the first one that differs, and it exits 0 only when every array
is equal under both.  It also prints the line count of each ``src/tsgpt``
module in both trees and the change in the total.

What is compared, for ``extrapolation_model``, its vanilla variant and
``irregular_model``: the loss and every gradient of three Adam steps and
the parameters after them, the eval encode and batch-norm statistics, a
16-token ``generate`` at B=1 and B=8 (the signal models), and the
classifier's gradients and logits over two steps.  At the benchmark's
``cohort`` shape (the 400-subject cohort of seed 1, ``irregular_model(1)``):
the loss and gradients of a B=16 next-token train step, those of a B=16
classifier step, and the classifier's logits over all 400 subjects.  At the benchmark's
``pretrain-long`` shape (``extrapolation_model(1)`` on signals of 1024
tokens, where every blocked node's blocks are single rows large enough to
run on two threads): the loss and gradients of a B=8 train step, a B=8
eval encode, and those of a B=2 classifier step.  Also
the checkpoint bytes of a fresh model, and for seven cohort specs (criterion 7's, the
benchmark's seeds 1, 13, 301 and 901, the default spec and a 5-class
``class_timing`` spec) every array of the cohort and ``bayes_predict``.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def _train(model, batch, steps: int, out: dict, tag: str) -> None:
    """``steps`` Adam steps; records each loss and gradient, then the parameters."""
    from tsgpt.tensor import backward, zero_grads
    from tsgpt.training import OptimState, adam_step

    params = model.named_params()
    opt = OptimState(lr=1.5e-3, warmup=20)
    for step in range(steps):
        zero_grads([p for _, p in params])
        loss = model.loss(batch, train=True)
        backward(loss)
        out[f"{tag}/step{step}/loss"] = loss.value
        for name, p in params:
            out[f"{tag}/step{step}/grad/{name}"] = p.grad
        adam_step(params, opt)
    for name, p in params:
        out[f"{tag}/param/{name}"] = p.value


def _model_arrays(name: str, cfg, batch, out: dict) -> None:
    from tsgpt.datagen import SequenceBatch
    from tsgpt.model import Model

    model = Model(cfg)
    _train(model, batch, 3, out, name)
    out[f"{name}/encode"] = model.encode(batch, train=False).value
    for stat, arr in model.named_norm_stats():
        out[f"{name}/bn/{stat}"] = arr
    if batch.timestamps is None:
        for b in (1, 8):
            prompt = SequenceBatch(values=batch.values[:b, :48])
            out[f"{name}/generate/b{b}"] = model.generate(prompt, 16)
    clf = model.with_head("classification", n_classes=2)
    _train(clf, batch, 2, out, f"{name}/classifier")
    out[f"{name}/classifier/logits"] = clf.classify_logits(batch, train=False).value


def _labelled(values: np.ndarray):
    """A batch of signals labelled 1 where the last 16 values' mean exceeds the first 16's."""
    from tsgpt.datagen import SequenceBatch

    labels = (values[:, -16:, 0].mean(axis=1) > values[:, :16, 0].mean(axis=1)).astype(np.int64)
    return SequenceBatch(values=values, labels=labels)


def dump(path: str, src: str) -> None:
    """Compute every compared array with ``tsgpt`` from ``src``; save to ``path``."""
    import tsgpt
    from tsgpt import datagen as dg
    from tsgpt.experiments import extrapolation_model, extrapolation_signal, irregular_cohort_spec, irregular_model
    from tsgpt.model import Model

    if Path(tsgpt.__file__).resolve().parent != (Path(src) / "tsgpt").resolve():
        sys.exit(f"parity: tsgpt imported from {tsgpt.__file__}, not from {src}")
    out: dict[str, np.ndarray] = {}

    full, _ = dg.gen_signal(replace(extrapolation_signal(1), length=96, n_sequences=8))
    signal = _labelled(full.values)
    cohort, _ = dg.gen_cohort(irregular_cohort_spec())
    events = cohort.take(np.arange(16))
    _model_arrays("extrapolation", extrapolation_model(1, vanilla=False), signal, out)
    _model_arrays("vanilla", extrapolation_model(1, vanilla=True), signal, out)
    _model_arrays("irregular", irregular_model(1, no_decay=False), events, out)

    cohort400, _ = dg.gen_cohort(replace(irregular_cohort_spec(), seed=1))
    first16 = cohort400.take(np.arange(16))
    cfg = irregular_model(1, no_decay=False)
    _train(Model(cfg), first16, 1, out, "cohort400/train")
    clf = Model(replace(cfg, head_kind="classification"))
    _train(clf, first16, 1, out, "cohort400/classifier")
    out["cohort400/classifier/logits"] = clf.classify_logits(cohort400, train=False).value

    long, _ = dg.gen_signal(replace(extrapolation_signal(1), length=1024, n_sequences=8))
    model = Model(extrapolation_model(1, vanilla=False))
    _train(model, long, 1, out, "long/train")
    out["long/encode"] = model.encode(long, train=False).value
    _train(model.with_head("classification", n_classes=2), _labelled(long.values[:2]), 1, out, "long/classifier")

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "fresh.ckpt")
        Model(extrapolation_model(3, vanilla=False)).save(ckpt)
        out["fresh_checkpoint"] = np.frombuffer(Path(ckpt).read_bytes(), dtype=np.uint8)

    base = irregular_cohort_spec()
    specs = {
        "criterion7": base,
        **{f"seed{s}": replace(base, seed=s) for s in (1, 13, 301, 901)},
        "default": dg.EventCohortSpec(),
        "five_class_timing": dg.EventCohortSpec(classes=5, subjects=120, class_timing=True, seed=5),
    }
    for name, spec in specs.items():
        batch, info = dg.gen_cohort(spec)
        for field in ("values", "timestamps", "codes", "valid", "labels"):
            out[f"cohort/{name}/{field}"] = getattr(batch, field)
        out[f"cohort/{name}/profiles"] = info.profiles
        out[f"cohort/{name}/class_prior"] = info.class_prior
        out[f"cohort/{name}/bayes_predict"] = dg.bayes_predict(batch, info)
    np.savez(path, **out)


# (name, environment changes): None unsets a variable.
BLAS_SETTINGS = (
    ("default BLAS threads", {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}),
    ("OPENBLAS_NUM_THREADS=1", {"OPENBLAS_NUM_THREADS": "1"}),
)


def _run_dump(src: Path, path: Path, blas: dict) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var, value in blas.items():
        env.pop(var, None)
        if value is not None:
            env[var] = value
    subprocess.run([sys.executable, __file__, "--dump", str(path), "--src", str(src)], env=env, check=True)


def extract(rev: str, dest: Path, paths: tuple[str, ...] = ("src",)) -> Path:
    """``paths`` of git revision ``rev`` of this repository, extracted with
    ``git archive`` into ``dest`` (made if missing); returns ``dest``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", rev, *paths],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def compare(a_path: Path, b_path: Path) -> int:
    with np.load(a_path) as a, np.load(b_path) as b:
        names = sorted(set(a.files) | set(b.files))
        differing = []
        for name in names:
            if name not in a.files or name not in b.files:
                differing.append((name, "present in one tree only"))
                continue
            x, y = a[name], b[name]
            if x.shape != y.shape or x.dtype != y.dtype:
                differing.append((name, f"{x.dtype}{x.shape} against {y.dtype}{y.shape}"))
            elif x.tobytes() != y.tobytes():
                diff = np.max(np.abs(x.astype(np.float64) - y.astype(np.float64)))
                differing.append((name, f"max abs difference {diff:.3g}"))
    print(f"{len(names) - len(differing)} of {len(names)} arrays bitwise equal")
    if differing:
        name, how = differing[0]
        print(f"first that differs: {name} ({how}); {len(differing)} differ in all")
        return 1
    return 0


def line_counts(src: Path) -> dict[str, int]:
    """Lines of each module of ``src/tsgpt``, by file name."""
    return {p.name: len(p.read_text().splitlines()) for p in sorted((src / "tsgpt").glob("*.py"))}


def print_line_counts(base: dict[str, int], this: dict[str, int]) -> None:
    print(f"{'src/tsgpt':16s} {'base':>6s} {'this':>6s} {'change':>7s}")
    for name in sorted(set(base) | set(this)):
        a, b = base.get(name, 0), this.get(name, 0)
        print(f"{name:16s} {a:6d} {b:6d} {b - a:+7d}")
    a, b = sum(base.values()), sum(this.values())
    print(f"{'total':16s} {a:6d} {b:6d} {b - a:+7d}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("rev", nargs="?", default="HEAD", help="git revision to compare this checkout against")
    ap.add_argument("--dump", help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(args.dump, args.src)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = extract(args.rev, tmp / "base") / "src"
        print_line_counts(line_counts(base), line_counts(REPO / "src"))
        failed = 0
        for i, (name, blas) in enumerate(BLAS_SETTINGS):
            print(f"{name}:")
            _run_dump(base, tmp / f"base{i}.npz", blas)
            _run_dump(REPO / "src", tmp / f"this{i}.npz", blas)
            failed |= compare(tmp / f"base{i}.npz", tmp / f"this{i}.npz")
        return failed


if __name__ == "__main__":
    sys.exit(main())
