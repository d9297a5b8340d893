"""Correctness checks on the outputs of a benchmark run.

Each ``check_*`` function returns ``None`` when the outputs are right and a
one-line reason when they are not.  Tolerances follow from float64
round-off, not from the outputs of any particular commit: results that are
equal in exact arithmetic but summed in another order must agree to
``RTOL`` relative to their scale; finite differences to ``FD_RTOL``.
The helpers below the checks recompute what a check compares against
(a numpy retention sum, a re-encode, padding-free logits, ...).
"""

from __future__ import annotations

import contextlib

import numpy as np

import tsgpt.model as tm
import tsgpt.tensor as tt
from tsgpt.datagen import SequenceBatch

from spans import patched

RTOL = 1e-10
FD_STEP = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-7


def check_finite(name: str, arr) -> str | None:
    a = np.asarray(arr)
    if not np.all(np.isfinite(a)):
        return f"{name}: {int(np.size(a) - np.isfinite(a).sum())} non-finite values"
    return None


def check_close(name: str, got, want, rtol: float = RTOL) -> str | None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    if not err <= rtol * scale:
        return f"{name}: max error {err:.3e} > {rtol:.0e} x scale {scale:.3e}"
    return None


def check_bitwise(name: str, got: list, want: list) -> str | None:
    if len(got) != len(want):
        return f"{name}: {len(got)} arrays != {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            return f"{name}: array {i} differs"
    return None


def check_retention_oracle(q, k, v, out, timestamps, gammas) -> str | None:
    """out_n == sum_{m<=n} gamma_h^(t_n - t_m) (q_n . k_m) v_m, by direct sum.

    q, k, v, out: [B, h, L, d]; timestamps [L] or [B, L]; gammas [h].
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    t = np.asarray(timestamps, dtype=np.float64)
    t = np.broadcast_to(t, (q.shape[0], q.shape[2]))
    g = np.asarray(gammas, dtype=np.float64)[None, :, None]  # [1, h, 1]
    ref = np.empty(q.shape[:3] + (v.shape[-1],))
    for n in range(q.shape[2]):
        scores = np.einsum("bhd,bhmd->bhm", q[:, :, n], k[:, :, : n + 1])
        decay = g ** (t[:, None, n : n + 1] - t[:, None, : n + 1])  # [B, h, n+1]
        ref[:, :, n] = np.einsum("bhm,bhmd->bhd", scores * decay, v[:, :, : n + 1])
    return check_close("layer-0 retention vs numpy sum", out, ref, rtol=1e-9)


def check_gradients(rows) -> str | None:
    """rows: (label, analytic, finite-difference) per sampled coordinate."""
    for label, a, fd in rows:
        if not abs(a - fd) <= FD_ATOL + FD_RTOL * abs(fd):
            return f"gradient {label}: analytic {a:.9e} vs finite difference {fd:.9e}"
    return None


# ---------------------------------------------------------------------------
# what the checks compare against
# ---------------------------------------------------------------------------


def expected_gammas(cfg) -> np.ndarray:
    """Per-head decay from the config, by the schedule the paper states:
    gamma_h = 1 - 2^-(5+h) unless a scalar override or no_decay is set."""
    if cfg.no_decay:
        return np.ones(cfg.heads)
    if cfg.gamma is not None:
        return np.full(cfg.heads, cfg.gamma)
    return 1.0 - 2.0 ** (-(5.0 + np.arange(1, cfg.heads + 1)))


def encode_timestamps(batch: SequenceBatch) -> np.ndarray:
    """Decay timestamps of the encoded sequence: the start token sits at 0,
    token i at i (regular) or at its own event time (irregular)."""
    B, T = batch.values.shape[:2]
    if batch.timestamps is None:
        return np.arange(T + 1)
    return np.concatenate([np.zeros((B, 1), dtype=np.int64), batch.timestamps], axis=1)


def capture_layer0(model, batch: SequenceBatch):
    """(q, k, v, out) of the first retention-kernel call of an eval encode."""
    seen = []

    def hook(fn):
        def capture(q, k, v, *args, **kwargs):
            res = fn(q, k, v, *args, **kwargs)
            if not seen:
                out = res[0] if isinstance(res, tuple) else res
                seen.append(tuple(np.array(a.value if isinstance(a, tt.Tensor) else a) for a in (q, k, v, out)))
            return res

        return capture

    names = ("retention_parallel", "retention_chunkwise", "retention_recurrent")
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(patched(tm, name, hook(getattr(tm, name))))
        model.encode(batch, train=False)
    return seen[0]


def bn_snapshot(model) -> list:
    """Running batch-norm statistics, to undo updates made by a check."""
    out = []
    for layer in model.layers:
        st = layer.tconv.bn_state if layer.tconv is not None else None
        if st is not None:
            out.append((st, st.running_mean, st.running_var))
    return out


def bn_restore(snap) -> None:
    for st, mean, var in snap:
        st.running_mean, st.running_var = mean, var


def train_loss(model, batch: SequenceBatch, form: str | None = None) -> float:
    """Training-mode loss without leaving batch-norm statistics changed."""
    snap = bn_snapshot(model)
    try:
        return float(model.pretrain_loss(batch, train=True, form=form).value)
    finally:
        bn_restore(snap)


def finite_difference_rows(model, batch: SequenceBatch, blocks, rng: np.random.Generator):
    """Analytic vs central-difference gradient of the training loss at one
    random coordinate per named parameter block, drawn among those whose
    gradient is at least 1e-3 of the block's largest."""
    params = dict(model.named_params())
    snap = bn_snapshot(model)
    tt.zero_grads(params.values())
    try:
        tt.backward(model.pretrain_loss(batch, train=True))
    finally:
        bn_restore(snap)
    rows = []
    for name in blocks:
        p = params[name]
        grad = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        i = int(rng.choice(np.flatnonzero(np.abs(grad) >= 1e-3 * np.abs(grad).max())))
        orig = flat[i]
        flat[i] = orig + FD_STEP
        up = train_loss(model, batch)
        flat[i] = orig - FD_STEP
        down = train_loss(model, batch)
        flat[i] = orig
        rows.append((f"{name}[{i}]", float(grad[i]), (up - down) / (2.0 * FD_STEP)))
    tt.zero_grads(params.values())
    return rows


def reencode_predictions(model, prompt: np.ndarray, preds: np.ndarray) -> np.ndarray:
    """Next-token predictions from one full encode of prompt + emitted tokens:
    prediction j reads the hidden state after token P + j."""
    P, H = prompt.shape[1], preds.shape[1]
    values = np.concatenate([prompt, preds[:, : H - 1]], axis=1)
    hidden = model.encode(SequenceBatch(values=values), train=False)
    return model._head(hidden[:, P : P + H, :]).value


def stripped_logits(model, batch: SequenceBatch) -> np.ndarray:
    """Per-subject logits with padding removed, batching subjects of equal
    length together."""
    lengths = np.asarray(batch.valid, dtype=np.float64).sum(axis=1).astype(int)
    out = None
    for m in np.unique(lengths):
        idx = np.flatnonzero(lengths == m)
        part = SequenceBatch(values=batch.values[idx, :m], timestamps=batch.timestamps[idx, :m])
        logits = model.classify_logits(part, train=False).value
        if out is None:
            out = np.zeros((len(batch), logits.shape[1]))
        out[idx] = logits
    return out


def model_arrays(model) -> list[np.ndarray]:
    return [p.value for _, p in model.named_params()] + [a for _, a in model.named_norm_stats()]
