"""Shared test helpers: a central-finite-difference oracle and a
re-encoding oracle for streaming generation."""

import numpy as np

from tsgpt.tensor import Tensor, add, broadcast_to, concat, matmul


def finite_diff_grad(loss_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of loss_fn() w.r.t. the entries of x.

    loss_fn must recompute the loss from scratch reading the (mutated) x
    buffer; this stays independent of any recorded graph.
    """
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(loss_fn())
        flat[i] = orig - h
        fm = float(loss_fn())
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise error relative to unit scale (absolute below 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def generate_by_reencoding(model, prompt, horizon: int) -> np.ndarray:
    """Oracle for ``Model.generate``: every emitted token re-encodes the
    whole prefix with the parallel retention form.

    Emitted tokens re-enter after the tokenizer, as model inputs at token
    granularity, the way streaming generation feeds them back.
    """
    tokens = model._token_features(prompt)[0].value
    preds = []
    for _ in range(horizon):
        feats = Tensor(np.concatenate([tokens] + preds, axis=1))
        B, L = feats.shape[0], feats.shape[1]
        emb = add(matmul(feats, model.w_in), model.b_in)
        x = concat([broadcast_to(model.sos, (B, 1, model.cfg.d_model)), emb], axis=1)
        pos = np.arange(L + 1, dtype=np.int64)
        for layer in model.layers:
            x, _ = layer.forward(x, pos, train=False, form="parallel")
        preds.append(model._head(x[:, -1:, :]).value)
    return np.concatenate(preds, axis=1)
