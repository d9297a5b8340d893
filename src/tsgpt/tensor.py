"""Dense float64 array engine with reverse-mode differentiation.

A ``Tensor`` wraps a row-major float64 numpy array together with an
operation record; calling :func:`backward` on a scalar-shaped tensor walks
the recorded graph once in reverse topological order and consumes it: each
node's gradient, closure and parents are freed once its closure has run,
so afterwards only leaves (parameters and inputs) carry ``.grad``.  The
tape is rebuilt on every forward pass (define-by-run).  Layer norm and a
linear layer (``x @ w + b``) are each one fused op with an analytic
backward, as are, in their modules, the temporal convolution block,
chunk-wise retention, the per-head projections and the retention output
and feed-forward sublayers.  A slice adds to its parent's
``.grad`` in place.

Two rules keep a train step from churning the heap:

- A full-size kernel allocates only the arrays it returns or keeps for its
  backward; every other step writes into one of those (``out=`` or an
  in-place operator), or into a temporary of one block of batch rows
  (:func:`row_blocks`), in the order and with the operands the plain
  expression would use, so the results are bitwise the same.
- The blocks of a kernel run on the calling thread and one worker thread
  (:func:`map_blocks`), and the worker keeps nothing.  A block run there
  allocates only temporaries it frees before it returns, and returns at
  most parameter-sized partials, which the caller sums in block order.
  Everything that outlives the kernel call (its output, its input
  gradient, what its backward keeps) is a slice of an array the caller
  allocated, or is made on the caller.  glibc gives each thread its own
  malloc arena: memory freed into the worker's is not reused by the
  caller, so an array the worker made and the caller kept past the call
  would add its size to the process's peak.  The chunk-wise retention
  kernel runs its blocks on the calling thread only: each is a loop of
  small products per chunk that holds the GIL too often to gain from a
  second thread.
- A tensor's first gradient is adopted, not copied, when the caller
  passes ``own=True`` to :func:`_accum`: the caller guarantees that the
  array is C-contiguous and that nothing else refers to it or will write
  to it (a result it just made, or a node's own incoming gradient handed to
  one parent only).  Later gradients add into it in place, so no two
  tensors' ``.grad`` share memory.

Where the process may use two CPUs or more, the worker pins itself to the
last of them (:func:`worker_cpu`), and while a call runs blocks on both
threads the calling thread runs on its own CPUs minus that one; it gets its
mask back when the call returns or raises.  Left to itself, the scheduler
often ran the woken worker on the caller's CPU, where the two threads took
turns instead of running side by side.  The caller is narrowed only where
the BLAS runs each call on one thread (:func:`blas_threads`): the threads
of a multi-threaded BLAS need a free CPU, and with caller and worker each
held on one, a train step ran two to four times slower.

Inside a :func:`no_grad` block nothing is recorded: new tensors hold no
parents and no backward closure, so an eval pass frees each intermediate
as soon as it drops it.

Operands.  A fused node (:func:`linear`, :func:`layer_norm`,
:func:`swish`, :func:`conv1d` here; the retention, projection, output,
feed-forward, embedding and temporal-convolution nodes in their modules)
takes ``Tensor`` operands only, reads their ``.value`` and records every
one of them as a parent, in argument order.  The generic ops (:func:`mul`,
:func:`sub`, :func:`matmul`, :func:`swapaxes`, :func:`tsum`,
:func:`tmean`, :func:`getitem`, :func:`log_softmax`) also take
non-``Tensor`` operands (python floats, numpy arrays) as constants: they
join the computation but receive no gradient.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import math
import os
import queue
import struct
import threading
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError, StateError

Array = np.ndarray

_grad_enabled = True

# Elements per array of one block of batch rows (256 KB): the few arrays a
# block works on at once stay in a 2 MB L2 cache.
BLOCK_ELEMENTS = 1 << 15


# The CPUs this process may run on, as at import; empty where a thread
# cannot be pinned to a CPU.
CPUS = frozenset(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else frozenset()

# Threads a blocked kernel may run on: the calling thread, plus one worker
# when the process may use two cores or more.
BLOCK_THREADS = min(2, len(CPUS) or os.cpu_count() or 1)


def row_blocks(batch: int, row_elements: int) -> list[slice]:
    """Blocks of whole batch rows, each as many rows as keep an array of
    ``row_elements`` elements per row within ``BLOCK_ELEMENTS`` (at least
    one row).  Every kernel that runs by blocks sizes them here, by its
    widest per-block array; no block splits a row, so a row's results never
    depend on the rows beside it."""
    rows = max(1, min(batch, BLOCK_ELEMENTS // max(1, row_elements)))
    return [slice(lo, min(lo + rows, batch)) for lo in range(0, batch, rows)]


def block_threads(blocks: list[slice]) -> int:
    """How many threads :func:`map_blocks` runs ``blocks`` on: 2, the caller
    and the worker, when ``BLOCK_THREADS`` allows it and there are two
    blocks or more; else 1.  Where caller and worker run on CPUs of their
    own (see the module docstring), even the small blocks of a 400-subject
    cohort gain from the hand-off."""
    return 2 if BLOCK_THREADS >= 2 and len(blocks) >= 2 else 1


def worker_cpu() -> int | None:
    """The CPU the worker pins itself to: the last of ``CPUS`` when there
    are two or more; else None, and the worker is not pinned."""
    return max(CPUS) if len(CPUS) >= 2 else None


def map_blocks(fn, blocks: list[slice]) -> list:
    """``[fn(b, slot) for b in blocks]``, run on :func:`block_threads`
    threads: slot 0 is the calling thread and slot 1 the worker, so that
    ``fn`` can pick a scratch buffer of its own.  Each thread takes the
    next block not yet taken.  No block reads another's rows, and the
    results come back in block order for the caller to sum, so nothing
    depends on which thread ran which block.  What ``fn`` may allocate is
    in the module docstring.  Where the worker is pinned and the BLAS runs
    one thread, the caller keeps off the worker's CPU while both threads
    run (see the module docstring); its mask is restored before this
    returns or raises.  An exception in either thread is raised here once
    both have stopped."""
    if block_threads(blocks) < 2:
        return [fn(b, 0) for b in blocks]
    results = [None] * len(blocks)
    taken, lock = 0, threading.Lock()
    failed: list[BaseException] = []
    done = threading.Event()

    def drain(slot: int) -> None:
        nonlocal taken
        while True:
            with lock:
                i, taken = taken, taken + 1
            if i >= len(blocks) or failed:
                return
            results[i] = fn(blocks[i], slot)

    def work() -> None:
        try:
            drain(1)
        except BaseException as e:
            failed.append(e)
        finally:
            done.set()

    with _off_worker_cpu():
        _worker_jobs().put(work)
        try:
            drain(0)
        except BaseException as e:
            failed.append(e)  # the worker takes no further block
            raise
        finally:
            done.wait()
    if failed:
        raise failed[0]
    return results


@functools.cache
def blas_threads() -> int | None:
    """Threads numpy's BLAS runs a call on, asked of OpenBLAS (the BLAS of
    numpy's wheels) under each name it exports the query as, once per
    process; None for a BLAS this cannot ask."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already loaded by numpy: no new code runs
        except OSError:
            continue
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            query = getattr(lib, name, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


@contextlib.contextmanager
def _off_worker_cpu():
    """Inside the block, the calling thread runs on its CPUs minus the
    worker's; its mask is restored on the way out.  Nothing is narrowed
    when the worker is not pinned, the BLAS may run more than one thread,
    or the caller's mask lacks the worker's CPU or holds no other."""
    cpu = worker_cpu()
    mask = os.sched_getaffinity(0) if cpu is not None and blas_threads() == 1 else set()
    if cpu not in mask or len(mask) < 2:
        yield
        return
    os.sched_setaffinity(0, mask - {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


def add_partials(sums: Sequence[Array], partials: list) -> None:
    """Add each block's partials (a tuple per block, as :func:`map_blocks`
    returns them) into the matching arrays of ``sums``, in block order: the
    order a loop over the blocks would add them in."""
    for parts in partials:
        for total, part in zip(sums, parts):
            total += part


_jobs: queue.SimpleQueue | None = None


def _worker_jobs() -> queue.SimpleQueue:
    """The worker's job queue.  The first call starts the worker: a daemon
    thread that pins itself to :func:`worker_cpu` and runs each job put on
    the queue, in turn."""
    global _jobs
    if _jobs is None:
        _jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), name="tsgpt-blocks", daemon=True).start()
    return _jobs


def _serve(jobs: queue.SimpleQueue) -> None:
    cpu = worker_cpu()
    if cpu is not None:
        with contextlib.suppress(OSError):  # the CPU has left the process's set since import
            os.sched_setaffinity(0, {cpu})
    while True:
        jobs.get()()


def _forget_worker() -> None:
    global _jobs
    _jobs = None


os.register_at_fork(after_in_child=_forget_worker)  # a forked child has no worker thread


@contextlib.contextmanager
def no_grad():
    """Record no tape for the tensors built inside the block (nests)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether new tensors record the tape (False inside :func:`no_grad`)."""
    return _grad_enabled


def as_f64(x) -> Array:
    """Coerce to a contiguous row-major float64 array (0-d stays 0-d)."""
    return np.asarray(x, dtype=np.float64, order="C")


class Tensor:
    """A float64 array plus the operation record needed for backward."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, _parents: tuple = (), _backward=None):
        self.value = as_f64(value)
        self.grad: Array | None = None
        self._parents = _parents if _grad_enabled else ()
        self._backward = _backward if _grad_enabled else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def ndim(self) -> int:
        return self.value.ndim

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape})"

    def __getitem__(self, idx):
        return getitem(self, idx)


def _val(x) -> Array:
    return x.value if isinstance(x, Tensor) else as_f64(x)


def _accum(t: Tensor, g: Array, own: bool = False) -> None:
    """Add ``g`` into ``t.grad``.  A first gradient is copied in, or adopted
    as it is when ``own`` (see the module docstring for when that holds)."""
    if t.grad is None:
        t.grad = g if own else np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to ``shape`` (reverses numpy broadcasting);
    ``g`` itself when nothing is summed."""
    extra = g.ndim - len(shape)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[extra + i] != 1)
    if extra == 0 and not axes:
        return g
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Array, b: Array, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def sub(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "sub")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape), own=True)
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(-g, bv.shape), own=True)

    return Tensor(av - bv, parents, back)


def mul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "mul")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g * bv, av.shape), own=True)
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * av, bv.shape), own=True)

    return Tensor(av * bv, parents, back)


def _sigmoid(xv: Array) -> Array:
    """sigmoid(x) in one new array: p = 1 / (1 + exp(-|x|)) where x >= 0 and
    1 - p where x < 0, bitwise.  The sign select is 0.5 + copysign(p - 0.5, x):
    with p in [0.5, 1], both p - 0.5 and 1 - p are exact (Sterbenz), so the
    sum is exactly p or 1 - p; p = 0.5 at x = -0.0 and x = 0."""
    s = np.abs(xv)
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    s -= 0.5
    np.copysign(s, xv, out=s)
    s += 0.5
    return s


def swish_array(xv: Array) -> tuple[Array, Array]:
    """Forward arithmetic of :func:`swish` on a plain array: (out, sigmoid)."""
    s = _sigmoid(xv)
    return xv * s, s


def swish_grad_array(g: Array, out: Array, s: Array) -> Array:
    """Gradient at swish's input, ``g * (s + out * (1 - s))``, from its
    output ``out = x * s`` and sigmoid ``s``, formed in one new array."""
    slope = np.subtract(1.0, s)
    slope *= out
    slope += s
    slope *= g
    return slope


def swish(x: Tensor) -> Tensor:
    """swish(x) = x * sigmoid(x)."""
    out, s = swish_array(x.value)

    def back(g):
        _accum(x, swish_grad_array(g, out, s), own=True)

    return Tensor(out, (x,), back)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def tsum(x, axis=None) -> Tensor:
    xv = _val(x)
    out = xv.sum(axis=axis)

    def back(g):
        if not isinstance(x, Tensor):
            return
        gg = np.asarray(g)
        if axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            gg = np.expand_dims(gg, tuple(a % xv.ndim for a in axes))
        _accum(x, np.broadcast_to(gg, xv.shape))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def tmean(x, axis=None) -> Tensor:
    xv = _val(x)
    if axis is None:
        n = xv.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([xv.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis), 1.0 / n)


def swapaxes(x, a1: int, a2: int) -> Tensor:
    xv = _val(x)
    out = np.swapaxes(xv, a1, a2)

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, np.swapaxes(g, a1, a2))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def getitem(x, idx) -> Tensor:
    """``x[idx]``; its backward adds into ``x.grad`` in place, with
    ``np.add.at`` for advanced indices so repeated entries accumulate."""
    xv = _val(x)
    out = xv[idx]
    parts = idx if isinstance(idx, tuple) else (idx,)
    basic = all(i is None or i is Ellipsis or isinstance(i, (slice, int, np.integer)) and not isinstance(i, bool)
                for i in parts)

    def back(g):
        if isinstance(x, Tensor):
            if x.grad is None:
                x.grad = np.zeros_like(xv)
            if basic:
                x.grad[idx] += g
            else:
                np.add.at(x.grad, idx, g)

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def _check_matmul(av: Array, bv: Array, op: str) -> None:
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"{op}: operands must be >= 2-D, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"{op}: inner dims differ, {av.shape} x {bv.shape}")
    if av.ndim > 2 and bv.ndim > 2:  # a 2-D operand has no batch dims to disagree
        _check_broadcast(av[..., :1, :1], bv[..., :1, :1], f"{op}(batch dims)")


def matmul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_matmul(av, bv, "matmul")
    out = av @ bv
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape), own=True)
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape), own=True)

    return Tensor(out, parents, back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``matmul(x, w) + b`` as one node whose values and gradients are
    bitwise those of the two-node composite.  The product takes the bias in
    place, so the tape keeps no bias-free copy of it."""
    xv, wv, bv = x.value, w.value, b.value
    _check_matmul(xv, wv, "linear")
    out = xv @ wv
    try:
        out += bv
    except ValueError:
        raise ShapeError(f"linear: bias {bv.shape} does not broadcast to the product {out.shape}")

    def back(g):
        _accum(x, _unbroadcast(g @ np.swapaxes(wv, -1, -2), xv.shape), own=True)
        _accum(w, _unbroadcast(np.swapaxes(xv, -1, -2) @ g, wv.shape), own=True)
        _accum(b, _unbroadcast(g, bv.shape), own=True)  # the last reader of g, so it may adopt it

    return Tensor(out, (x, w, b), back)


def weight_grad(x: Array, g: Array) -> Array:
    """Gradient of ``x @ w`` at a 2-D ``w`` from the output gradient ``g``,
    summed over every row of the C-contiguous ``x`` [..., m] and ``g``
    [..., n]: one [m, n] product."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

LAYER_NORM_EPS = 1e-5
BATCH_NORM_EPS = 1e-5
BATCH_NORM_MOMENTUM = 0.1  # weight of a train batch's statistics in the running ones


def layer_norm_array(xv: Array, gv: Array, bv: Array) -> tuple[Array, Array, Array]:
    """Forward arithmetic of :func:`layer_norm` on plain arrays: (out, xhat, inv).

    Mean and population variance are summed and divided exactly as
    ``mean``/``var`` do it, sharing the centred input.  Two full-size
    arrays: the centred input becomes ``xhat`` and its squares the output.
    """
    n = xv.shape[-1]
    xhat = xv - np.add.reduce(xv, axis=-1, keepdims=True) / n
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gv, out=out)
    out += bv
    return out, xhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then apply a learnable affine.  The
    node keeps only its inputs: the backward recomputes ``xhat`` and ``inv``
    with :func:`layer_norm_array`, bitwise the forward's.  Both directions
    run one block of rows at a time (:func:`map_blocks`; a leading axis of
    a [B, L, n] input is its batch), so the forward allocates only its
    output beyond the blocks' temporaries.  The backward writes ``g * xhat``
    into one array and sums it over the whole batch afterwards, so the gain
    gradient is summed in the order of the unblocked expression."""
    xv, gv, bv = x.value, gain.value, bias.value
    x3 = xv.reshape((-1,) + xv.shape[-2:]) if xv.ndim > 1 else xv.reshape((1, 1, -1))
    row = x3[0].size
    blocks = row_blocks(x3.shape[0], row)
    out = np.empty(x3.shape)

    def norm(b: slice, _slot: int) -> None:
        out[b] = layer_norm_array(x3[b], gv, bv)[0]

    map_blocks(norm, blocks)

    def back(g):
        g3 = g.reshape(x3.shape)
        g_xhat, gx = np.empty(x3.shape), np.empty(x3.shape)

        def grads(b: slice, _slot: int) -> None:
            _, xhat, inv = layer_norm_array(x3[b], gv, bv)
            np.multiply(g3[b], xhat, out=g_xhat[b])
            gx[b] = layer_norm_grad_array(g3[b], xhat, inv, gv)

        map_blocks(grads, blocks)
        _accum(gain, _unbroadcast(g_xhat.reshape(xv.shape), gv.shape), own=True)
        _accum(bias, _unbroadcast(g, bv.shape))
        _accum(x, gx.reshape(xv.shape), own=True)

    return Tensor(out.reshape(xv.shape), (x, gain, bias), back)


def layer_norm_grad_array(g: Array, xhat: Array, inv: Array, gv: Array) -> Array:
    """Gradient of :func:`layer_norm` at its input, from the output gradient
    ``g`` and the ``xhat``/``inv`` of :func:`layer_norm_array`:
    ``(gy - mean(gy) - xhat * mean(gy * xhat)) * inv`` with ``gy = g * gain``,
    in two full-size arrays."""
    gy = g * gv
    t = gy * xhat
    m = t.mean(axis=-1, keepdims=True)
    gy -= gy.mean(axis=-1, keepdims=True)
    np.multiply(xhat, m, out=t)
    gy -= t
    gy *= inv
    return gy


class BatchNormState:
    """Running statistics for batch normalization (population variance)."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self):
        self.running_mean: Array | None = None
        self.running_var: Array | None = None


def batch_norm_eval_scale(state: BatchNormState) -> Array:
    """Per-channel scale ``1/sqrt(running_var + eps)`` of eval-mode batch norm."""
    if state.running_mean is None:
        raise StateError("batch_norm: eval mode before any training statistics were recorded")
    return 1.0 / np.sqrt(state.running_var + BATCH_NORM_EPS)


def batch_norm_eval_array(xv: Array, gv: Array, bv: Array, state: BatchNormState):
    """Eval-mode batch normalization on plain arrays, per channel (channels
    last) by the running statistics: (out, xhat, inv)."""
    inv = batch_norm_eval_scale(state)
    xhat = (xv - state.running_mean) * inv
    return xhat * gv + bv, xhat, inv


def log_softmax(x) -> Tensor:
    """Numerically stable log-softmax over the last axis."""
    xv = _val(x)
    m = xv.max(axis=-1, keepdims=True)
    z = xv - m
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    out = z - lse
    sm = np.exp(out)

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, g - sm * g.sum(axis=-1, keepdims=True), own=True)

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


# ---------------------------------------------------------------------------
# 1-D convolution (channels-last, causal left padding)
# ---------------------------------------------------------------------------


def conv1d(x: Tensor, w: Tensor, bias: Tensor, stride: int, pad_left: int) -> Tensor:
    """Full 1-D convolution plus bias: x [B, L, Cin], w [Cout, Cin, k],
    bias [Cout] -> [B, L', Cout].  Padding is causal (left only)."""
    xv, wv, bv = x.value, w.value, bias.value
    if xv.ndim != 3 or wv.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D operands, got {xv.shape} and {wv.shape}")
    cout, cin, k = wv.shape
    if xv.shape[-1] != cin:
        raise ShapeError(f"conv1d: channel mismatch {xv.shape} vs weight {wv.shape}")
    xp = np.pad(xv, ((0, 0), (pad_left, 0), (0, 0)))
    lout = (xp.shape[1] - k) // stride + 1
    out = np.zeros((xv.shape[0], lout, cout))
    for j in range(k):
        out += np.einsum("blc,oc->blo", xp[:, j : j + stride * lout : stride, :], wv[:, :, j], optimize=True)
    out += bv

    def back(g):
        _accum(bias, _unbroadcast(g, bv.shape), own=True)
        gw = np.zeros_like(wv)
        for j in range(k):
            gw[:, :, j] = np.einsum("blo,blc->oc", g, xp[:, j : j + stride * lout : stride, :], optimize=True)
        _accum(w, gw, own=True)
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[:, j : j + stride * lout : stride, :] += np.einsum("blo,oc->blc", g, wv[:, :, j], optimize=True)
        _accum(x, gxp[:, pad_left:, :])

    return Tensor(out, (x, w, bias), back)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def _swept(g):
    raise ContractError("backward: this graph was already consumed by an earlier backward; run the forward again")


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar-shaped loss.

    Visits every reachable node exactly once in reverse topological order
    and consumes the tape as it goes: once a node's closure has run, its
    ``.grad``, closure and parents are dropped, so its buffers are freed
    before the sweep ends.  Afterwards only leaves (parameters and inputs)
    carry ``.grad``.  A swept node keeps a closure that raises, so sweeping
    the same graph again, or a new loss built on it, is a ContractError.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward: loss must be a Tensor")
    if loss.value.shape != ():
        raise ContractError(f"backward: loss must be scalar-shaped, got {loss.value.shape}")
    if loss._backward is None:
        raise ContractError("backward: the loss recorded no operations (built in eval mode or under no_grad)")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._backward is _swept:
            _swept(None)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones(())
    while order:
        node = order.pop()
        if node._backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node.grad, node._backward, node._parents = None, _swept, ()


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# deterministic RNG (counter-based Philox)
# ---------------------------------------------------------------------------


class Rng:
    """Counter-based deterministic generator; same seed, same stream anywhere."""

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, tag: str) -> "Rng":
        """Independent stream derived from (seed, tag); stable across runs."""
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def normal(self, shape=(), scale: float = 1.0) -> Array:
        return as_f64(self._gen.standard_normal(shape) * scale)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> Array:
        return as_f64(self._gen.uniform(low, high, shape))

    def integers(self, low: int, high: int, shape=()) -> Array:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def choice_p(self, n: int, p: Array, size=()) -> Array:
        return self._gen.choice(n, size=size, p=p)


# ---------------------------------------------------------------------------
# NDAR1 tensor container
# ---------------------------------------------------------------------------

_MAGIC = b"NDAR1"


def write_ndar1(fh, arr: Array) -> None:
    """Append one tensor record: magic, u32 rank, rank x u64 dims, LE f64 data."""
    a = as_f64(arr)
    fh.write(_MAGIC)
    fh.write(struct.pack("<I", a.ndim))
    if a.ndim:
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
    fh.write(a.astype("<f8").tobytes(order="C"))


def _read_exact(fh, n: int, what: str) -> bytes:
    """Exactly ``n`` bytes from a seekable stream, checked against what is
    left before reading, so a corrupt length never allocates."""
    pos = fh.tell()
    left = fh.seek(0, 2) - pos
    fh.seek(pos)
    if n > left:
        raise DataError(f"truncated NDAR1 record: {what} needs {n} bytes, {left} left")
    return fh.read(n)


def read_ndar1(fh) -> Array:
    """Read one record written by :func:`write_ndar1`; a bad magic, a
    truncated header or a payload shorter than its dims raise DataError."""
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        raise DataError(f"not an NDAR1 record (magic {magic!r})")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, "rank"))
    dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "dims")) if rank else ()
    payload = _read_exact(fh, 8 * math.prod(dims), f"payload of shape {dims}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def save_tensor(path, arr: Array) -> None:
    with open(path, "wb") as fh:
        write_ndar1(fh, arr)


def load_tensor(path) -> Array:
    """The single NDAR1 record of a file; anything after it is a DataError."""
    with open(path, "rb") as fh:
        arr = read_ndar1(fh)
        if fh.read(1):
            raise DataError(f"{path}: bytes after the NDAR1 record")
    return arr
