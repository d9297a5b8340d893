"""Dense float64 array engine with reverse-mode differentiation.

A ``Tensor`` wraps a row-major float64 numpy array together with an
operation record; calling :func:`backward` on a scalar-shaped tensor walks
the recorded graph once in reverse topological order and accumulates
``.grad`` on every tensor that participated.  The tape is rebuilt on every
forward pass (define-by-run); nothing here is compiled or fused.

Inside a :func:`no_grad` block nothing is recorded: new tensors hold no
parents and no backward closure, so an eval pass frees each intermediate
as soon as it drops it.

Non-``Tensor`` operands (python floats, numpy arrays) are treated as
constants: they join the computation but receive no gradient.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ShapeError, StateError

Array = np.ndarray

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Record no tape for the tensors built inside the block (nests)."""
    global _grad_enabled
    prev, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = prev


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

    # Operator sugar; every overload routes through the module-level ops.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / as_f64(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])


def _val(x) -> Array:
    return x.value if isinstance(x, Tensor) else as_f64(x)


def _accum(t: Tensor, g: Array) -> None:
    if t.grad is None:
        t.grad = np.zeros_like(t.value)
    t.grad += g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient down to ``shape`` (reverses numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
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


def add(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "add")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g, bv.shape))

    return Tensor(av + bv, parents, back)


def sub(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "sub")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(-g, bv.shape))

    return Tensor(av - bv, parents, back)


def mul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    _check_broadcast(av, bv, "mul")
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g * bv, av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(g * av, bv.shape))

    return Tensor(av * bv, parents, back)


def power(x, p) -> Tensor:
    xv = _val(x)
    if isinstance(p, Tensor):
        raise ContractError("power: exponent must be a constant scalar")
    p = float(p)
    out = xv**p

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, g * p * xv ** (p - 1.0))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def swish(x) -> Tensor:
    """swish(x) = x * sigmoid(x)."""
    xv = _val(x)
    s = 1.0 / (1.0 + np.exp(-np.abs(xv)))
    s = np.where(xv >= 0, s, 1.0 - s)
    out = xv * s

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, g * (s + xv * s * (1.0 - s)))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------


def tsum(x, axis=None, keepdims=False) -> Tensor:
    xv = _val(x)
    out = xv.sum(axis=axis, keepdims=keepdims)

    def back(g):
        if not isinstance(x, Tensor):
            return
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            gg = np.expand_dims(gg, tuple(a % xv.ndim for a in axes))
        _accum(x, np.broadcast_to(gg, xv.shape).copy())

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def tmean(x, axis=None, keepdims=False) -> Tensor:
    xv = _val(x)
    if axis is None:
        n = xv.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([xv.shape[a] for a in axes]))
    return mul(tsum(x, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(x, shape) -> Tensor:
    xv = _val(x)
    out = xv.reshape(shape)

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, g.reshape(xv.shape))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def swapaxes(x, a1: int, a2: int) -> Tensor:
    xv = _val(x)
    out = np.swapaxes(xv, a1, a2)

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, np.swapaxes(g, a1, a2))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def getitem(x, idx) -> Tensor:
    xv = _val(x)
    out = xv[idx]

    def back(g):
        if isinstance(x, Tensor):
            buf = np.zeros_like(xv)
            buf[idx] = g
            _accum(x, buf)

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    vals = [_val(p) for p in parts]
    out = np.concatenate(vals, axis=axis)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if isinstance(p, Tensor):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])

    return Tensor(out, tuple(p for p in parts if isinstance(p, Tensor)), back)


def broadcast_to(x, shape) -> Tensor:
    xv = _val(x)
    out = np.broadcast_to(xv, shape).copy()

    def back(g):
        if isinstance(x, Tensor):
            _accum(x, _unbroadcast(g, xv.shape))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    av, bv = _val(a), _val(b)
    if av.ndim < 2 or bv.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-D, got {av.shape} and {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {av.shape} x {bv.shape}")
    _check_broadcast(av[..., :1, :1], bv[..., :1, :1], "matmul(batch dims)")
    out = av @ bv
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def back(g):
        if isinstance(a, Tensor):
            _accum(a, _unbroadcast(g @ np.swapaxes(bv, -1, -2), av.shape))
        if isinstance(b, Tensor):
            _accum(b, _unbroadcast(np.swapaxes(av, -1, -2) @ g, bv.shape))

    return Tensor(out, parents, back)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

LAYER_NORM_EPS = 1e-5


def layer_norm(x, gain, bias, eps: float = LAYER_NORM_EPS) -> Tensor:
    """Normalize over the last axis, then apply a learnable affine."""
    xv, gv, bv = _val(x), _val(gain), _val(bias)
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    out = xhat * gv + bv
    parents = tuple(t for t in (x, gain, bias) if isinstance(t, Tensor))

    def back(g):
        n = xv.shape[-1]
        if isinstance(gain, Tensor):
            _accum(gain, _unbroadcast(g * xhat, gv.shape))
        if isinstance(bias, Tensor):
            _accum(bias, _unbroadcast(g, bv.shape))
        if isinstance(x, Tensor):
            gy = g * gv
            term = gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
            _accum(x, term * inv)

    return Tensor(out, parents, back)


class BatchNormState:
    """Running statistics for batch normalization (population variance)."""

    __slots__ = ("running_mean", "running_var", "momentum")

    def __init__(self, momentum: float = 0.1):
        self.running_mean: Array | None = None
        self.running_var: Array | None = None
        self.momentum = momentum


def batch_norm(
    x,
    gain,
    bias,
    state: BatchNormState,
    train: bool,
    eps: float = 1e-5,
    update_stats: bool = True,
    valid: Array | None = None,
) -> Tensor:
    """Per-channel normalization over all leading axes (channels last).

    ``valid`` optionally weights which positions contribute to the batch
    statistics (shape = x.shape[:-1]); excluded positions are still
    normalized with the resulting statistics.
    """
    xv = _val(x)
    if train:
        axes = tuple(range(xv.ndim - 1))
        channels = (1,) * (xv.ndim - 1) + (-1,)
        # Composite graph: mean/var as differentiable reductions.
        if valid is None:
            mu = xv.mean(axis=axes)
            var = xv.var(axis=axes)
            diff = sub(x, reshape(tmean(x, axis=axes), channels))
            var_t = tmean(mul(diff, diff), axis=axes)
        else:
            w = as_f64(valid)[..., None]
            count = float(w.sum())
            if count <= 0:
                raise StateError("batch_norm: empty valid mask")
            mu_t = mul(tsum(mul(x, w), axis=axes), 1.0 / count)
            diff = sub(x, reshape(mu_t, channels))
            var_t = mul(tsum(mul(mul(diff, diff), w), axis=axes), 1.0 / count)
            mu, var = mu_t.value, var_t.value
        xhat_t = mul(diff, reshape(power(add(var_t, eps), -0.5), channels))
        out = add(mul(xhat_t, gain), bias)
        if update_stats:
            m = state.momentum
            if state.running_mean is None:
                state.running_mean = mu.copy()
                state.running_var = var.copy()
            else:
                state.running_mean = (1.0 - m) * state.running_mean + m * mu
                state.running_var = (1.0 - m) * state.running_var + m * var
        return out

    if state.running_mean is None:
        raise StateError("batch_norm: eval mode before any training statistics were recorded")
    inv = 1.0 / np.sqrt(state.running_var + eps)
    xhat = sub(x, state.running_mean)
    return add(mul(mul(xhat, inv), gain), bias)


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
            _accum(x, g - sm * g.sum(axis=-1, keepdims=True))

    return Tensor(out, (x,) if isinstance(x, Tensor) else (), back)


# ---------------------------------------------------------------------------
# 1-D convolutions (channels-last, causal left padding)
# ---------------------------------------------------------------------------


def conv1d(x, w, bias=None, stride: int = 1, pad_left: int | None = None) -> Tensor:
    """Full 1-D convolution: x [B, L, Cin], w [Cout, Cin, k] -> [B, L', Cout].

    Padding is causal (left only); default pad_left = k - 1 keeps the output
    at time t a function of inputs <= t.
    """
    xv, wv = _val(x), _val(w)
    if xv.ndim != 3 or wv.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D operands, got {xv.shape} and {wv.shape}")
    cout, cin, k = wv.shape
    if xv.shape[-1] != cin:
        raise ShapeError(f"conv1d: channel mismatch {xv.shape} vs weight {wv.shape}")
    if pad_left is None:
        pad_left = k - 1
    xp = np.pad(xv, ((0, 0), (pad_left, 0), (0, 0)))
    lout = (xp.shape[1] - k) // stride + 1
    out = np.zeros((xv.shape[0], lout, cout))
    for j in range(k):
        out += np.einsum("blc,oc->blo", xp[:, j : j + stride * lout : stride, :], wv[:, :, j], optimize=True)
    bv = None
    if bias is not None:
        bv = _val(bias)
        out += bv
    parents = tuple(t for t in (x, w, bias) if isinstance(t, Tensor))

    def back(g):
        if isinstance(bias, Tensor):
            _accum(bias, _unbroadcast(g, bv.shape))
        if isinstance(w, Tensor):
            gw = np.zeros_like(wv)
            for j in range(k):
                gw[:, :, j] = np.einsum("blo,blc->oc", g, xp[:, j : j + stride * lout : stride, :], optimize=True)
            _accum(w, gw)
        if isinstance(x, Tensor):
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + stride * lout : stride, :] += np.einsum("blo,oc->blc", g, wv[:, :, j], optimize=True)
            _accum(x, gxp[:, pad_left:, :])

    return Tensor(out, parents, back)


def depthwise_conv1d(x, w, bias=None) -> Tensor:
    """Per-channel causal convolution: x [B, L, C], w [C, k] -> [B, L, C].

    No channel mixing; output at t reads inputs t-k+1 .. t.
    """
    xv, wv = _val(x), _val(w)
    if xv.ndim != 3 or wv.ndim != 2:
        raise ShapeError(f"depthwise_conv1d: got {xv.shape} and {wv.shape}")
    c, k = wv.shape
    if xv.shape[-1] != c:
        raise ShapeError(f"depthwise_conv1d: channel mismatch {xv.shape} vs weight {wv.shape}")
    L = xv.shape[1]
    xp = np.pad(xv, ((0, 0), (k - 1, 0), (0, 0)))
    out = np.zeros_like(xv)
    for j in range(k):
        out += xp[:, j : j + L, :] * wv[:, j]
    bv = None
    if bias is not None:
        bv = _val(bias)
        out += bv
    parents = tuple(t for t in (x, w, bias) if isinstance(t, Tensor))

    def back(g):
        if isinstance(bias, Tensor):
            _accum(bias, _unbroadcast(g, bv.shape))
        if isinstance(w, Tensor):
            gw = np.zeros_like(wv)
            for j in range(k):
                gw[:, j] = (g * xp[:, j : j + L, :]).sum(axis=(0, 1))
            _accum(w, gw)
        if isinstance(x, Tensor):
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, j : j + L, :] += g * wv[:, j]
            _accum(x, gxp[:, k - 1 :, :])

    return Tensor(out, parents, back)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar-shaped loss.

    Visits every reachable node exactly once in reverse topological order;
    afterwards every participating Tensor carries ``.grad`` with the same
    shape as its value.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward: loss must be a Tensor")
    if loss.value.shape != ():
        raise ContractError(f"backward: loss must be scalar-shaped, got {loss.value.shape}")
    if not loss._parents:
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones(())
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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


def read_ndar1(fh) -> Array:
    magic = fh.read(5)
    if magic != _MAGIC:
        raise ShapeError(f"not an NDAR1 record (magic {magic!r})")
    (rank,) = struct.unpack("<I", fh.read(4))
    dims = struct.unpack(f"<{rank}Q", fh.read(8 * rank)) if rank else ()
    n = int(np.prod(dims)) if dims else 1
    data = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
    return data.reshape(dims)


def save_tensor(path, arr: Array) -> None:
    with open(path, "wb") as fh:
        write_ndar1(fh, arr)


def load_tensor(path) -> Array:
    with open(path, "rb") as fh:
        return read_ndar1(fh)
