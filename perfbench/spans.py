"""Spans around calls into tsgpt's layers, recorded from outside the package.

The tracer swaps the entry points listed in ``TARGETS`` for wrappers that
open a span (name, start, end, parent, op), and tags every tape node built
while a span is open with that span's name: the node's backward closure is
wrapped so that the reverse sweep charges its time to the layer that built
it.  Nothing inside ``src/tsgpt`` changes; every swap is undone on exit.

A span's self time is its duration minus that of its direct children.  An
*op* (one train step, one rollout, ...) is a top-level span opened by the
benchmark itself; :meth:`Tracer.op` summarises the spans inside it.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter

import tsgpt.datagen as dg
import tsgpt.model as tm
import tsgpt.tensor as tt
import tsgpt.training as ttr
from tsgpt.convolution import TemporalConvModule
from tsgpt.model import DecoderLayer, Model
from tsgpt.retention import DecayMask

# (owner, attribute, span name).  The retention kernels and xpos_qk are
# patched where model.py looks them up, so only the model's calls are seen.
TARGETS = [
    (tm, "retention_parallel", "retention.core"),
    (tm, "retention_chunkwise", "retention.core"),
    (tm, "retention_recurrent", "retention.core"),
    (tm, "xpos_qk", "positional.xpos_qk"),
    (TemporalConvModule, "forward", "convolution.tconv"),
    (TemporalConvModule, "step", "convolution.tconv"),
    (DecoderLayer, "_retention_inner", "model.retention_block"),
    (DecoderLayer, "_ffn", "model.ffn"),
    (DecoderLayer, "forward", "model.stack"),
    (DecoderLayer, "step", "model.layer_step"),
    (Model, "encode", "model.encode"),
    (Model, "_head", "model.head"),
    (Model, "pretrain_loss", "model.head"),
    (Model, "classification_loss", "model.head"),
    (Model, "classify_logits", "model.head"),
    (Model, "mean_hidden", "model.head"),
    (Model, "save", "model.checkpoint.save"),
    (Model, "load", "model.checkpoint.load"),
    (tt, "backward", "tensor.backward"),
    (ttr, "adam_step", "training.adam"),
    (dg, "gen_signal", "datagen.gen"),
    (dg, "gen_cohort", "datagen.gen"),
]

# Self time of these spans is decoder-stack glue: input projection, start
# token, pre-norms and residual adds, outside every sublayer.
STACK_SPANS = ("model.encode", "model.stack", "model.layer_step")


@contextlib.contextmanager
def patched(owner, attr, value):
    """Set ``owner.attr`` to ``value`` for the duration of the block."""
    had = attr in vars(owner)
    old = vars(owner)[attr] if had else None
    setattr(owner, attr, value)
    try:
        yield
    finally:
        if had:
            setattr(owner, attr, old)
        else:
            delattr(owner, attr)


def _unwrap(owner, attr):
    """(plain function, whether it is a classmethod) of ``owner.attr``."""
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        return raw.__func__, True
    return raw, False


class Tracer:
    """In-memory span recorder; install it with :meth:`installed`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, tensors_at_end]
        self.stack: list[int] = []
        self.op_index = -1
        self.tensors = 0
        self.nodes = 0
        self.mask_bytes = 0
        self.bwd: dict[str, float] = {}

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op_index, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = self.tensors

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _timed_closure(self, scope: str, fn):
        acc = self.bwd

        def run(g):
            t0 = perf_counter()
            fn(g)
            acc[scope] = acc.get(scope, 0.0) + perf_counter() - t0

        return run

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper; restore on exit."""
        tracer = self
        init = tt.Tensor.__init__

        def tensor_init(t, value, _parents=(), _backward=None):
            init(t, value, _parents, _backward)
            tracer.tensors += 1
            if _backward is not None:
                tracer.nodes += 1
                scope = tracer.spans[tracer.stack[-1]][0] if tracer.stack else "unscoped"
                t._backward = tracer._timed_closure(scope, _backward)

        build, _ = _unwrap(DecayMask, "build")

        def mask_build(cls, *args, **kwargs):
            mask = build(cls, *args, **kwargs)
            tracer.mask_bytes += mask.matrix.nbytes
            return mask

        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(tt.Tensor, "__init__", tensor_init))
            stack.enter_context(patched(DecayMask, "build", classmethod(mask_build)))
            for owner, attr, name in TARGETS:
                fn, is_cm = _unwrap(owner, attr)
                wrapped = self.wrap(name, fn)
                stack.enter_context(patched(owner, attr, classmethod(wrapped) if is_cm else wrapped))
            yield self

    # -- ops -------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str):
        """One benchmark operation; yields a dict filled in on exit."""
        rec: dict = {"kind": kind}
        self.bwd = {}
        n0, m0 = self.nodes, self.mask_bytes
        idx = self._open("op." + kind)
        self.op_index = idx
        self.spans[idx][4] = idx
        try:
            yield rec
        finally:
            self._close(idx)
            self.op_index = -1
            rec.update(self._summarise(idx))
            rec["nodes"] = self.nodes - n0
            rec["mask_bytes"] = self.mask_bytes - m0
            rec["bwd"] = dict(self.bwd)

    def _summarise(self, op_idx: int) -> dict:
        """Self time per span name inside the op, split at the first
        top-level ``model.encode`` (everything after it is per-token work
        when the op is a rollout)."""
        spans = self.spans
        op = spans[op_idx]
        children: dict[int, float] = {}
        for i in range(op_idx + 1, len(spans)):
            s = spans[i]
            children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1])
        self_all: dict[str, float] = {}
        self_after: dict[str, float] = {}
        layer_step = 0.0
        encode_end, encode_tensors, encode_ms = None, None, None
        for i in range(op_idx + 1, len(spans)):
            name, start, end, parent = spans[i][:4]
            own = (end - start) - children.get(i, 0.0)
            self_all[name] = self_all.get(name, 0.0) + own
            if name == "model.encode" and parent == op_idx and encode_end is None:
                encode_end, encode_tensors, encode_ms = end, spans[i][5], (end - start) * 1e3
            elif encode_end is not None and start >= encode_end:
                self_after[name] = self_after.get(name, 0.0) + own
                if name == "model.layer_step":
                    layer_step += end - start
        return {
            "wall": op[2] - op[1],
            "self": self_all,
            "after_encode": self_after,
            "layer_step": layer_step,
            "encode_ms": encode_ms,
            "tensors_after_encode": None if encode_tensors is None else op[5] - encode_tensors,
        }

    def write(self, path) -> None:
        """Write every span as [name, start_s, end_s, parent, op] (JSON)."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[s[0], round(s[1] - base, 9), round(s[2] - base, 9), s[3], s[4]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}, fh)
