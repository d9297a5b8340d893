"""Complexity accounting and a wall-clock benchmark for the retention forms.

The FLOP model counts a full transformer-style layer at sequence length n,
h heads and per-head width d: q/k/v plus output projections cost 4nh^2d^2,
the attention products 2n^2hd, and the 4x-expansion feed-forward 8nh^2d^2.
The crossovers fall out exactly: attention's linear and quadratic terms tie
at n = 2hd, and the quadratic term overtakes the full 12nh^2d^2 linear part
at n = 6hd.

The timing harness measures single-layer retention forward passes (and a
softmax-attention comparator) at growing lengths and fits a log-log slope,
so the quadratic parallel form and the linear chunk-wise form separate
cleanly regardless of constant factors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .retention import ChunkPlan, DecayMask, retention_chunkwise, retention_parallel, retention_recurrent
from .tensor import Rng, Tensor

MECHANISMS = ("parallel", "recurrent", "chunkwise", "attention")


def attention_flops(n: int, h: int, d: int) -> int:
    """Projections plus attention products: 4 n h^2 d^2 + 2 n^2 h d."""
    return 4 * n * h * h * d * d + 2 * n * n * h * d


def ffn_flops(n: int, h: int, d: int) -> int:
    """Two hd <-> 4hd projections: 8 n h^2 d^2."""
    return 8 * n * h * h * d * d


def layer_flops(n: int, h: int, d: int) -> int:
    return attention_flops(n, h, d) + ffn_flops(n, h, d)


def dominant_term(n: int, h: int, d: int) -> str:
    """Which cost dominates a full layer at this size."""
    if n <= 2 * h * d:
        return "feed-forward"
    if n <= 6 * h * d:
        return "linear"
    return "quadratic"


@dataclass
class BenchResult:
    mechanism: str
    n: int
    heads: int
    d: int
    chunk_size: int
    repetitions: int
    median_seconds: float
    model_flops: int
    loglog_slope: float | None = None  # fitted per mechanism across lengths


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Causal softmax attention comparator (timing stub, forward only)."""
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = (q @ np.swapaxes(k, -1, -2)) * scale
    L = scores.shape[-1]
    scores = np.where(np.tril(np.ones((L, L), dtype=bool)), scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=-1, keepdims=True)
    return w @ v


def _run_once(mechanism: str, q, k, v, gamma, chunk_size: int) -> None:
    L = q.shape[-2]
    if mechanism == "parallel":
        retention_parallel(Tensor(q), Tensor(k), Tensor(v), DecayMask.build(gamma, length=L))
    elif mechanism == "recurrent":
        retention_recurrent(q, k, v, None, gamma)
    elif mechanism == "chunkwise":
        retention_chunkwise(Tensor(q), Tensor(k), Tensor(v), ChunkPlan.build(np.arange(L), gamma, chunk_size))
    elif mechanism == "attention":
        softmax_attention(q, k, v)
    else:
        raise UsageError(f"unknown mechanism {mechanism!r}; choose from {MECHANISMS}")


def time_mechanism(
    mechanism: str,
    n: int,
    heads: int = 1,
    d: int = 16,
    chunk_size: int = 64,
    repetitions: int = 5,
    gamma: float = 0.97,
    seed: int = 0,
) -> BenchResult:
    """Median wall-clock of ``repetitions`` forward passes after one warmup."""
    if repetitions < 5:
        raise UsageError(f"need at least 5 repetitions, got {repetitions}")
    rng = Rng(seed).child(f"bench-{mechanism}-{n}")
    q = rng.normal((heads, n, d))
    k = rng.normal((heads, n, d))
    v = rng.normal((heads, n, d))
    _run_once(mechanism, q, k, v, gamma, chunk_size)  # warmup
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        _run_once(mechanism, q, k, v, gamma, chunk_size)
        times.append(time.perf_counter() - t0)
    return BenchResult(
        mechanism=mechanism,
        n=n,
        heads=heads,
        d=d,
        chunk_size=chunk_size,
        repetitions=repetitions,
        median_seconds=float(np.median(times)),
        model_flops=layer_flops(n, heads, d),
    )


def fit_loglog_slope(lengths, seconds) -> float:
    """Least-squares slope of log(seconds) against log(length)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    seconds = np.asarray(seconds, dtype=np.float64)
    if len(lengths) < 4:
        raise UsageError(f"slope fit needs >= 4 lengths, got {len(lengths)}")
    x = np.log(lengths)
    y = np.log(seconds)
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


def run_bench(
    lengths,
    mechanisms,
    heads: int = 1,
    d: int = 16,
    chunk_size: int = 64,
    repetitions: int = 5,
    seed: int = 0,
) -> tuple[list[BenchResult], dict[str, float]]:
    """Benchmark table plus fitted log-log slope per mechanism."""
    lengths = sorted(int(n) for n in lengths)
    if len(lengths) < 4:
        raise UsageError(f"need at least 4 lengths, got {len(lengths)}")
    if lengths[-1] < 8 * lengths[0]:
        raise UsageError(f"lengths must span at least 8x, got {lengths[0]}..{lengths[-1]}")
    results = []
    slopes = {}
    for mech in mechanisms:
        rows = [
            time_mechanism(mech, n, heads=heads, d=d, chunk_size=chunk_size, repetitions=repetitions, seed=seed)
            for n in lengths
        ]
        slopes[mech] = fit_loglog_slope(lengths, [r.median_seconds for r in rows])
        for r in rows:
            r.loglog_slope = slopes[mech]
        results.extend(rows)
    return results, slopes
