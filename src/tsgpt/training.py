"""Optimizer, training loop with early stopping, and the gradient checker."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .datagen import SequenceBatch
from .errors import ConfigError, TrainingError
from .tensor import Rng, Tensor, backward, zero_grads

Array = np.ndarray


@dataclass
class OptimState:
    """Adaptive-moment accumulators; shapes mirror the parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    warmup: int = 100
    clip_norm: float | None = 1.0
    step_count: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_step(params: list[tuple[str, Tensor]], opt: OptimState) -> None:
    """One adaptive-moment update over named parameters (reads .grad).

    Gradients are globally norm-clipped; the learning rate ramps linearly
    over ``warmup`` steps.  Non-finite gradients abort with the offending
    parameter's name.
    """
    grads = {}
    sq = 0.0
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in parameter {name!r}")
        grads[name] = g
        sq += float((g * g).sum())
    if opt.clip_norm is not None and sq > opt.clip_norm**2:
        scale = opt.clip_norm / (np.sqrt(sq) + 1e-12)
        grads = {k: g * scale for k, g in grads.items()}

    opt.step_count += 1
    t = opt.step_count
    lr_t = opt.lr * min(1.0, t / opt.warmup) if opt.warmup > 0 else opt.lr
    b1, b2 = opt.beta1, opt.beta2
    for name, p in params:
        g = grads[name]
        if name not in opt.m:
            opt.m[name] = np.zeros_like(p.value)
            opt.v[name] = np.zeros_like(p.value)
        opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1 - b2) * g * g
        mhat = opt.m[name] / (1 - b1**t)
        vhat = opt.v[name] / (1 - b2**t)
        p.value = p.value - lr_t * mhat / (np.sqrt(vhat) + opt.eps)


@dataclass
class TrainSchedule:
    epochs: int = 20
    patience: int = 3
    batch_size: int = 16
    seed: int = 0
    lr: float = 1e-3
    warmup: int = 100
    clip_norm: float | None = 1.0

    def __post_init__(self):
        if self.patience < 1:
            raise ConfigError("early-stop patience must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")


@dataclass
class TrainRecord:
    step: int
    split: str
    loss: float
    metric: float | None = None


def write_records(path, records: list[TrainRecord]) -> None:
    """TrainRecord CSV: step, split, loss, metric (metric may be empty)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "split", "loss", "metric"])
        for r in records:
            w.writerow([r.step, r.split, repr(r.loss), "" if r.metric is None else repr(r.metric)])


def _snapshot(model) -> tuple[dict[str, Array], list[tuple[str, Array]]]:
    params = {n: p.value.copy() for n, p in model.named_params()}
    return params, [(n, a.copy()) for n, a in model.named_norm_stats()]


def _restore(model, snap) -> None:
    params, stats = snap
    for n, p in model.named_params():
        p.value = params[n].copy()
    model.set_norm_stats(stats)


def train(
    model,
    train_data: SequenceBatch,
    val_data: SequenceBatch | None,
    schedule: TrainSchedule,
    metric_fn=None,
    log_every: int = 10,
) -> list[TrainRecord]:
    """Minibatch training with validation-based early stopping.

    The best-validation parameter snapshot is restored before returning, so
    the model never ends worse than its best epoch.  Aborts on non-finite
    loss.  Deterministic for a fixed (schedule.seed, data) pair.
    """
    params = model.named_params()
    opt = OptimState(lr=schedule.lr, warmup=schedule.warmup, clip_norm=schedule.clip_norm)
    rng = Rng(schedule.seed).child("train-shuffle")
    records: list[TrainRecord] = []
    best_val = np.inf
    best_snap = None
    bad_epochs = 0
    step = 0

    for epoch in range(schedule.epochs):
        order = rng.child(f"epoch{epoch}").permutation(len(train_data))
        for lo in range(0, len(order), schedule.batch_size):
            batch = train_data.take(order[lo : lo + schedule.batch_size])
            zero_grads([p for _, p in params])
            loss = model.loss(batch, train=True)
            if not np.isfinite(loss.value):
                raise TrainingError(f"non-finite training loss at step {step}")
            backward(loss)
            adam_step(params, opt)
            if step % log_every == 0:
                records.append(TrainRecord(step, "train", float(loss.value)))
            step += 1

        if val_data is not None:
            vloss = float(model.loss(val_data, train=False).value)
            if not np.isfinite(vloss):
                raise TrainingError(f"non-finite validation loss after epoch {epoch}")
            metric = None if metric_fn is None else float(metric_fn(model, val_data))
            records.append(TrainRecord(step, "valid", vloss, metric))
            if vloss < best_val:
                best_val = vloss
                best_snap = _snapshot(model)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= schedule.patience:
                    break

    if best_snap is not None:
        _restore(model, best_snap)
        final = float(model.loss(val_data, train=False).value)
        metric = None if metric_fn is None else float(metric_fn(model, val_data))
        records.append(TrainRecord(step, "restored", final, metric))
    return records


@dataclass
class GradCheckReport:
    block_errors: dict[str, float]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e < self.tolerance for e in self.block_errors.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.block_errors, key=self.block_errors.get)
        return name, self.block_errors[name]


def grad_check(params: list[tuple[str, Tensor]], loss_fn, tolerance: float = 1e-4, h: float = 1e-5) -> GradCheckReport:
    """Analytic vs central-finite-difference gradients, per parameter block.

    ``loss_fn`` rebuilds the loss from the live parameter tensors; keep the
    model small (<= ~10k parameters), the sweep runs two forward passes per
    entry.  A report is always produced, pass/fail is the caller's call.
    """
    zero_grads([p for _, p in params])
    loss = loss_fn()
    backward(loss)
    analytic = {n: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value)) for n, p in params}

    errors: dict[str, float] = {}
    for name, p in params:
        flat = p.value.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(loss_fn().value)
            flat[i] = orig - h
            fm = float(loss_fn().value)
            flat[i] = orig
            fd[i] = (fp - fm) / (2.0 * h)
        a = analytic[name].reshape(-1)
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(fd)))
        errors[name] = float(np.max(np.abs(a - fd) / denom)) if flat.size else 0.0
    return GradCheckReport(errors, tolerance)
