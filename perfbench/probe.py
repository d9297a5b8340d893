"""Host-speed probes: fixed work that runs no tsgpt code.

The shared host's speed drifts by tens of percent over seconds to minutes,
and not every kind of work drifts by the same share.  Two probes follow the
two kinds of work the benchmark times:

- :func:`bulk`: a Python loop, four 256x256 matmuls and one pass over 16 MB.
  It follows train steps, classify calls, prompt encodes and set-up.
- :func:`small_ops`: a toy two-layer recurrent decoder on 1x16 arrays that
  keeps a tape of small nodes with closures.  It follows per-token decoding,
  which slows down more than bulk work when the host is busy.

A :class:`Probe` turns a wall time into the time on a host that runs the
probe in its reference time: wall time x reference / the median of the
probe's last few times.  No change to the package moves a probe, so the
rescaling cancels when two commits are compared.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_MAT = _RNG.standard_normal((256, 256))
_VEC = _RNG.standard_normal(1 << 21)
_W = _RNG.standard_normal((8, 16, 16)) / 4.0


def bulk() -> float:
    """Seconds of interpreter, BLAS and memory-bound work (~12 ms)."""
    t0 = perf_counter()
    n = 0
    for i in range(100_000):
        n += i
    for _ in range(4):
        _MAT @ _MAT
    (_VEC * 1.0001).sum()
    return perf_counter() - t0


class _Node:
    __slots__ = ("value", "parents", "back")

    def __init__(self, value, parents=(), back=None):
        self.value, self.parents, self.back = value, parents, back


def _matmul(a: _Node, w: np.ndarray) -> _Node:
    return _Node(a.value @ w, (a,), lambda g: g @ w.T)


def _tanh(a: _Node) -> _Node:
    v = np.tanh(a.value)
    return _Node(v, (a,), lambda g: g * (1.0 - v * v))


def _add(a: _Node, b: _Node) -> _Node:
    return _Node(a.value + b.value, (a, b), lambda g: (g, g))


def small_ops() -> float:
    """Seconds of 192 steps of a toy decoder on tiny arrays (~15 ms)."""
    t0 = perf_counter()
    x, state = _Node(np.ones((1, 16))), _Node(np.zeros((1, 16)))
    for _ in range(192):
        for layer in range(2):
            w = _W[4 * layer : 4 * layer + 4]
            h = _tanh(_matmul(x, w[0]))
            q, k = _matmul(h, w[1]), _matmul(h, w[2])
            state = _add(_Node(0.9 * state.value, (state,)), _matmul(k, w[3]))
            x = _add(x, _tanh(_add(q, state)))
            x = _Node(x.value / (np.sqrt((x.value * x.value).sum(axis=-1, keepdims=True)) + 1.0), (x,))
    return perf_counter() - t0


class Probe:
    """One probe, its reference time and a rolling window of its times."""

    def __init__(self, fn, ref_s: float, window: int):
        self.fn, self.ref_s = fn, ref_s
        self.recent: deque[float] = deque(maxlen=window)
        self.times: list[float] = []
        fn()  # the first call pays for page faults and warm-up; not a sample

    def scale(self) -> float:
        """Run the probe; the factor that turns wall time into reference time."""
        t = self.fn()
        self.recent.append(t)
        self.times.append(t)
        return self.ref_s / statistics.median(self.recent)
