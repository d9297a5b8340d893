"""The three workloads and the operations one round of each runs.

Every workload runs the same pipeline through tsgpt's Python API: next-token
train steps, a checkpoint round trip, fine-tune steps of a classification
head, one whole-batch ``classify_logits`` call, and autoregressive rollouts
at B=1 and B=8.  The workloads differ in the input properties the cost
depends on (sequence length, regular vs irregular timestamps, padding,
prompt length and horizon) and in which operation takes most of a round:

- ``pretrain-long``: train steps at B=8, L=1024 tokens (retention-bound);
- ``rollout``: 256-token prompts and 128-token forecasts (per-op overhead);
- ``cohort``: the 400-subject irregular event cohort, padded to 60 events.

Every input is drawn from the ``--seed`` the benchmark is given.

Every timed operation is preceded by a host-speed probe (``probe.py``), and
its time is reported rescaled to the probe's reference speed.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

import tsgpt.datagen as dg
import tsgpt.tensor as tt
import tsgpt.training as ttr
from tsgpt.errors import TsgptError
from tsgpt.experiments import extrapolation_model, extrapolation_signal, irregular_cohort_spec, irregular_model
from tsgpt.model import Model

import checks
import probe
from spans import patched

SETUP_REPEATS = 12
# Fixed reference times of the probes (see README, "Host-speed probes"):
# reported times are wall times rescaled to a host that runs the probes in
# these times.  Changing them rescales every reported time.
BULK_REF_S = 0.0125
SMALL_OPS_REF_S = 0.0150
FD_BLOCKS = ("w_in", "layer0.w_q", "layer0.tconv.stage0_dw_w", "layer1.ffn_w2", "w_head")


@dataclass(frozen=True)
class Plan:
    """What one round of a workload runs, and the inputs it draws from."""

    kind: str  # "signal" or "cohort"
    length: int  # tokens per training sequence
    train_batch: int
    train_steps: int
    finetune_batch: int
    finetune_steps: int
    classify_n: int  # sequences per classify call
    prompt_len: int
    horizon: int
    warm_steps: int  # train steps in set-up, so batch-norm statistics exist
    check_batch: int  # sequences in the retention-oracle and form checks
    fd_batch: int  # sequences in the finite-difference check


PLANS = {
    "pretrain-long": Plan(
        kind="signal", length=1024, train_batch=8, train_steps=1, finetune_batch=2, finetune_steps=1,
        classify_n=2, prompt_len=1024, horizon=64, warm_steps=0, check_batch=2, fd_batch=1,
    ),
    "rollout": Plan(
        kind="signal", length=256, train_batch=8, train_steps=1, finetune_batch=8, finetune_steps=1,
        classify_n=8, prompt_len=256, horizon=128, warm_steps=2, check_batch=8, fd_batch=2,
    ),
    "cohort": Plan(
        kind="cohort", length=60, train_batch=16, train_steps=4, finetune_batch=8, finetune_steps=4,
        classify_n=400, prompt_len=40, horizon=32, warm_steps=2, check_batch=64, fd_batch=4,
    ),
}


def _train_step(model, params, opt, batch) -> float:
    tt.zero_grads([p for _, p in params])
    loss = model.loss(batch, train=True)
    tt.backward(loss)
    ttr.adam_step(params, opt)
    return float(loss.value)


class Workload:
    """Set-up, timed rounds and end-of-run checks of one workload."""

    def __init__(self, name: str, seed: int, scratch: str):
        self.name = name
        self.plan = PLANS[name]
        self.seed = seed
        self.scratch = scratch
        self.rng = np.random.default_rng([seed, 7])
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed correctness checks
        self.failures: list[str] = []  # operations that raised
        self.samples: dict[str, list[float]] = {}  # seconds, rescaled by the probe
        self.wall: dict[str, list[float]] = {}  # the same, as measured
        self.records: list[dict] = []
        self.bulk_probe = probe.Probe(probe.bulk, BULK_REF_S, window=5)
        self.token_probe = probe.Probe(probe.small_ops, SMALL_OPS_REF_S, window=3)
        self.scale = 1.0  # wall time to reference time, for the next operation
        self.token_scale = 1.0  # the same, for the tokens after the first
        self.op = lambda kind: contextlib.nullcontext({"kind": kind})

    # -- set-up ------------------------------------------------------------------

    def setup(self) -> None:
        """Data, model, warm train steps, checkpoint round trip, classifier."""
        p = self.plan
        if p.kind == "signal":
            # generated at prompt + horizon length, as the extrapolation study does
            spec = replace(extrapolation_signal(self.seed), length=p.length + p.horizon, n_sequences=16)
            full, _ = dg.gen_signal(spec)
            values = full.values[:, : p.length]
            first, last = values[:, :64, 0].mean(axis=1), values[:, -64:, 0].mean(axis=1)
            self.data = dg.SequenceBatch(values=values, labels=(last > first).astype(np.int64))
            cfg = extrapolation_model(self.seed, vanilla=False)
            self.prompts = values[:8, : p.prompt_len]
        else:
            self.data, _ = dg.gen_cohort(replace(irregular_cohort_spec(), seed=self.seed))
            cfg = irregular_model(self.seed, no_decay=False)
            self.prompts = self.data.values[:8, : p.prompt_len]
        model = Model(cfg)
        params = model.named_params()
        opt = ttr.OptimState(lr=1.5e-3, warmup=20)
        for _ in range(p.warm_steps):
            _train_step(model, params, opt, self._batch(p.train_batch))
        path = os.path.join(self.scratch, f"{self.name}.ckpt")
        model.save(path)
        self.model = Model.load(path)
        problem = checks.check_bitwise("checkpoint round trip", checks.model_arrays(self.model), checks.model_arrays(model))
        if problem is None and self.model.cfg != model.cfg:
            problem = "checkpoint round trip: config differs"
        self._note(problem)
        self.params = self.model.named_params()
        self.opt = opt
        self.clf = self.model.with_head("classification", n_classes=2)
        self.clf_params = self.clf.named_params()
        self.clf_opt = ttr.OptimState(lr=3e-3, warmup=10)
        self.classify_batch = self.data.take(np.arange(p.classify_n))

    def _batch(self, n: int) -> dg.SequenceBatch:
        return self.data.take(np.sort(self.rng.choice(len(self.data), size=n, replace=False)))

    # -- one round -------------------------------------------------------------

    def round(self, timed: bool) -> None:
        """Every operation of the workload once, in pipeline order."""
        p = self.plan
        for _ in range(p.train_steps):
            self._run("train", timed, lambda: self._step(self.model, self.params, self.opt, p.train_batch))
        for _ in range(p.finetune_steps):
            self._run("finetune", timed, lambda: self._step(self.clf, self.clf_params, self.clf_opt, p.finetune_batch))
        self._run("classify", timed, self._classify, count=p.classify_n)
        row = self.rounds % len(self.prompts)
        self.rounds += 1
        b1 = self._run("rollout.b1", timed, lambda: self._rollout(self.prompts[row : row + 1], "b1", timed), tokens=True)
        b8 = self._run("rollout.b8", timed, lambda: self._rollout(self.prompts, "b8", timed), tokens=True)
        if b1 is not None and b8 is not None:
            self._note(checks.check_close("B=8 rollout row vs B=1 rollout", b8[row : row + 1], b1))
            self.last_rollout = b8

    def _run(self, kind: str, timed: bool, fn, count: int = 1, tokens: bool = False):
        """Run one operation; a TsgptError counts it as failed.  ``tokens``
        marks a rollout, whose per-token gaps take the small-ops probe."""
        self.attempted += count
        if timed:
            self.scale = self.bulk_probe.scale()
            if tokens:
                self.token_scale = self.token_probe.scale()
        with self.op(kind) as rec:
            t0 = perf_counter()
            try:
                out = fn()
            except TsgptError as exc:
                self.failed += count
                self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
                return None
            rec["seconds"] = perf_counter() - t0
        if timed:
            self.samples.setdefault(kind, []).append(rec["seconds"] * self.scale)
            self.wall.setdefault(kind, []).append(rec["seconds"])
            self.records.append(rec)
        return out

    def _step(self, model, params, opt, batch_size: int) -> float:
        loss = _train_step(model, params, opt, self._batch(batch_size))
        self._note(checks.check_finite("training loss", loss))
        return loss

    def _classify(self) -> np.ndarray:
        self.logits = self.clf.classify_logits(self.classify_batch, train=False).value
        self._note(checks.check_finite("classification logits", self.logits))
        return self.logits

    def _rollout(self, prompt: np.ndarray, tag: str, timed: bool) -> np.ndarray:
        """Model.generate, with the time each token leaves the head."""
        stamps: list[float] = []
        head = type(self.model)._head

        def stamped_head(x):
            y = head(self.model, x)
            stamps.append(perf_counter())
            return y

        with patched(self.model, "_head", stamped_head):
            t0 = perf_counter()
            preds = self.model.generate(dg.SequenceBatch(values=prompt), self.plan.horizon)
        if timed:
            for out, scale, token_scale in ((self.wall, 1.0, 1.0), (self.samples, self.scale, self.token_scale)):
                out.setdefault("ttft." + tag, []).append((stamps[0] - t0) * scale)
                out.setdefault("gap." + tag, []).extend((np.diff(stamps) * token_scale).tolist())
        self._note(checks.check_finite("rollout predictions", preds))
        return preds

    def _note(self, problem: str | None) -> None:
        if problem is not None and problem not in self.problems:
            self.problems.append(problem)

    def drop_samples(self) -> None:
        self.samples = {}
        self.wall = {}
        self.records = []

    # -- end-of-run checks ------------------------------------------------------

    def check(self) -> None:
        """The checks too costly to run on every operation."""
        p, model = self.plan, self.model
        batch = self.data.take(np.arange(p.check_batch))
        q, k, v, out = checks.capture_layer0(model, batch)
        self._note(checks.check_retention_oracle(q, k, v, out, checks.encode_timestamps(batch), checks.expected_gammas(model.cfg)))
        self._note(checks.check_close(
            "loss, parallel vs chunk-wise form",
            checks.train_loss(model, batch, form="chunkwise"),
            checks.train_loss(model, batch, form="parallel"),
        ))
        fd_batch = self.data.take(np.arange(p.fd_batch))
        # coordinates from the seed alone, not from how many rounds the run drew
        fd_rng = np.random.default_rng([self.seed, 11])
        self._note(checks.check_gradients(checks.finite_difference_rows(model, fd_batch, FD_BLOCKS, fd_rng)))
        if hasattr(self, "last_rollout"):
            self._note(checks.check_close(
                "rollout vs full re-encode",
                self.last_rollout,
                checks.reencode_predictions(model, self.prompts, self.last_rollout),
            ))
        if self.classify_batch.valid is not None and hasattr(self, "logits"):
            self._note(checks.check_close(
                "padded vs padding-free logits",
                self.logits,
                checks.stripped_logits(self.clf, self.classify_batch),
            ))
