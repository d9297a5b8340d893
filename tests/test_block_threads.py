"""The row blocks of the fused nodes run on the calling thread and one
worker (``tensor.map_blocks``): every output, gradient and running
statistic is bitwise the same on one thread and on two, the worker keeps
no memory past a node call, and caller and worker run on CPUs of their own
only for the length of a call."""

import contextlib
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import tsgpt.convolution as tc
import tsgpt.model as tm
import tsgpt.positional as tp
from tsgpt import tensor
from tsgpt.convolution import TemporalConvModule
from tsgpt.datagen import SequenceBatch
from tsgpt.experiments import extrapolation_model
from tsgpt.model import Model, feed_forward, retention_output
from tsgpt.positional import RotaryAngles, project_heads, rotation_tables
from tsgpt.tensor import Rng, Tensor, backward, layer_norm, mul, no_grad, tsum, zero_grads

SRC = Path(tensor.__file__).resolve().parent.parent
_map_blocks = tensor.map_blocks


@contextlib.contextmanager
def _threads(monkeypatch, threads: int, block_elements: int | None):
    """Run the blocked nodes on ``threads`` threads, with ``BLOCK_ELEMENTS``
    set to ``block_elements`` (None: as it is).  When a call runs on two
    threads, the calling thread waits for the worker to take a block before
    it runs its first, so both take some.  Yields the set of slots that ran
    a block."""
    slots = set()

    def paced(fn, blocks):
        two = tensor.block_threads(blocks) == 2
        engaged = threading.Event()

        def run(b, slot):
            slots.add(slot)
            if slot == 1:
                engaged.set()
            elif two:
                engaged.wait(timeout=10)
            return fn(b, slot)

        return _map_blocks(run, blocks)

    with monkeypatch.context() as mp:
        mp.setattr(tensor, "BLOCK_THREADS", threads)
        if block_elements is not None:
            mp.setattr(tensor, "BLOCK_ELEMENTS", block_elements)
        for module in (tensor, tp, tm, tc):
            mp.setattr(module, "map_blocks", paced)
        yield slots


def _both(monkeypatch, run, block_elements: int | None) -> None:
    """``run()`` (a list of arrays) is bitwise the same on one thread and
    on two, and the two-thread run used the worker."""
    results = []
    for threads in (1, 2):
        with _threads(monkeypatch, threads, block_elements) as slots:
            results.append(run())
        assert slots == ({0} if threads == 1 else {0, 1})
    assert len(results[0]) == len(results[1])
    for i, (a, b) in enumerate(zip(*results)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


def _taped(node, arrays, weights) -> list:
    """The node's output on the tape and under no_grad, then the gradient
    of every input after a backward from ``sum(out * weights)``."""
    with no_grad():
        eval_out = node(*(Tensor(a) for a in arrays)).value
    ins = [Tensor(a) for a in arrays]
    out = node(*ins)
    backward(tsum(mul(out, weights)))
    return [eval_out, out.value] + [t.grad for t in ins]


# rows per block: one row, or two with a ragged last block (B = 5)
ROWS = [1, 2]


@pytest.mark.parametrize("rows", ROWS)
def test_layer_norm_forward_and_backward(rows, monkeypatch):
    rng = Rng(1)
    B, L, n = 5, 7, 6
    arrays = [rng.normal((B, L, n)), 1.0 + rng.normal((n,), 0.3), rng.normal((n,), 0.3)]
    weights = rng.normal((B, L, n))
    _both(monkeypatch, lambda: _taped(layer_norm, arrays, weights), rows * L * n)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("tables", ["none", "shared", "per-sequence"])
def test_project_heads_forward_and_backward(tables, rows, monkeypatch):
    rng = Rng(2)
    B, L, d, heads, dh = 5, 7, 8, 2, 4
    x, w, weights = rng.normal((B, L, d)), rng.normal((d, heads * dh)), rng.normal((B, heads, L, dh))
    cos = sin = None
    if tables == "shared":
        cos, sin = rotation_tables(np.arange(1, L + 1), RotaryAngles(dh))
    elif tables == "per-sequence":
        positions = np.cumsum(rng.integers(1, 4, (B, L)), axis=1)
        cos, sin = (t[:, None] for t in rotation_tables(positions, RotaryAngles(dh)))

    def node(xt, wt):
        return project_heads(xt, wt, heads, cos, sin)

    _both(monkeypatch, lambda: _taped(node, [x, w], weights), rows * L * heads * dh)


@pytest.mark.parametrize("rows", ROWS)
def test_retention_output_forward_and_backward(rows, monkeypatch):
    rng = Rng(3)
    B, h, L, dv, d = 5, 2, 7, 3, 4
    arrays = [rng.normal((B, h, L, dv)), 1.0 + rng.normal((h * dv,), 0.3), rng.normal((h * dv,), 0.3),
              rng.normal((h * dv, d)), rng.normal((d,)), rng.normal((B, L, d))]
    weights = rng.normal((B, L, d))
    _both(monkeypatch, lambda: _taped(retention_output, arrays, weights), rows * L * max(h * dv, d))


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("keep_elements", [1 << 30, 0], ids=["keep", "recompute"])
def test_feed_forward_forward_and_backward(keep_elements, rows, monkeypatch):
    monkeypatch.setattr(tm, "FFN_KEEP_ELEMENTS", keep_elements)
    rng = Rng(4)
    B, L, d = 5, 7, 3
    f = 4 * d
    arrays = [rng.normal((B, L, d)), 1.0 + rng.normal((d,), 0.3), rng.normal((d,), 0.3),
              rng.normal((d, f)), rng.normal((f,)), rng.normal((f, d)), rng.normal((d,))]
    weights = rng.normal((B, L, d))
    _both(monkeypatch, lambda: _taped(feed_forward, arrays, weights), rows * L * f)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("padded", [False, True])
def test_temporal_conv_block_train_and_eval(padded, rows, monkeypatch):
    """Train and eval mode, on the tape and off it: output, capture buffer,
    running statistics and every gradient."""
    B, L, d, kernel = 5, 8, 3, 4
    valid = None
    if padded:
        valid = np.ones((B, L))
        valid[0, L // 2 :] = 0.0
        valid[-1, L - 1 :] = 0.0

    def run():
        block = TemporalConvModule(d, kernel, Rng(5))
        rng = Rng(6)
        got = []
        # the first train pass copies the statistics in, later ones blend them
        for train, taped in ((True, True), (True, False), (False, True), (False, False)):
            x, weights, cap = Tensor(rng.normal((B, L, d))), rng.normal((B, L, d)), {}
            with contextlib.nullcontext() if taped else no_grad():
                out = block.forward(x, train=train, valid=valid, capture=cap)
            got += [out.value, cap["dw_input"], block.bn_state.running_mean, block.bn_state.running_var]
            if taped:
                backward(tsum(mul(out, weights)))
                got += [x.grad] + [p.grad for _, p in block.named_params()]
                zero_grads([p for _, p in block.named_params()])
        return got

    _both(monkeypatch, run, rows * L * d)


def test_model_train_step_and_eval_encode(monkeypatch):
    """A next-token train step (loss and every gradient) and an eval encode
    of a 2-layer model, every fused node running one row per block."""
    cfg = tm.ModelConfig(layers=2, heads=2, d_q=4, d_v=4, n_inputs=2, conv_kernel=3, no_subsampler=True, seed=1)
    batch = SequenceBatch(values=Rng(7).normal((4, 9, 2)))

    def run():
        m = Model(cfg)
        loss = m.loss(batch, train=True)
        backward(loss)
        return [loss.value, m.encode(batch, train=False).value] + [p.grad for _, p in m.named_params()]

    _both(monkeypatch, run, 1)


def test_map_blocks_returns_results_in_block_order(monkeypatch):
    for threads in (1, 2):
        with _threads(monkeypatch, threads, 1) as slots:
            blocks = tensor.row_blocks(6, 1)
            assert tensor.block_threads(blocks) == threads
            seen = tensor.map_blocks(lambda b, slot: (b.start, threading.get_ident(), slot), blocks)
        assert [s for s, _, _ in seen] == list(range(6))
        assert len({ident for _, ident, _ in seen}) == threads == len(slots)
        assert {slot for _, _, slot in seen} == slots


def test_map_blocks_uses_the_worker_for_two_blocks_or_more(monkeypatch):
    monkeypatch.setattr(tensor, "BLOCK_THREADS", 2)
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", 100)
    assert tensor.block_threads(tensor.row_blocks(8, 100)) == 2  # eight blocks of one row
    assert tensor.block_threads(tensor.row_blocks(8, 30)) == 2  # three blocks of 90 elements or fewer
    assert tensor.block_threads(tensor.row_blocks(2, 1)) == 1  # one block of two elements
    assert tensor.block_threads(tensor.row_blocks(1, 500)) == 1  # one block of one row
    monkeypatch.setattr(tensor, "BLOCK_THREADS", 1)
    assert tensor.block_threads(tensor.row_blocks(8, 100)) == 1


def _affinity() -> frozenset:
    """The calling thread's CPUs; empty where threads cannot be pinned."""
    return frozenset(os.sched_getaffinity(0)) if tensor.CPUS else frozenset()


pinned = pytest.mark.skipif(tensor.worker_cpu() is None, reason="the worker is pinned only given two CPUs or more")


def test_map_blocks_raises_an_error_of_either_thread(monkeypatch):
    """An error in either slot reaches the caller, with its affinity as it
    was before the call (narrowed during the call where the worker is
    pinned)."""
    monkeypatch.setattr(tensor, "blas_threads", lambda: 1)
    before = _affinity()
    for threads in (1, 2):
        for failing in (0, 1):  # the slot whose block fails
            with _threads(monkeypatch, threads, 1):
                blocks = tensor.row_blocks(6, 1)
                def fn(b, slot):
                    if slot == min(failing, threads - 1):
                        raise ValueError(f"block {b.start}")
                    time.sleep(0.01)  # let the other slot take a block and fail
                    return b.start

                with pytest.raises(ValueError, match="block"):
                    tensor.map_blocks(fn, blocks)
                assert _affinity() == before
                # the worker is idle again and takes the next call's blocks
                assert tensor.map_blocks(lambda b, slot: b.start, blocks) == list(range(6))
                assert _affinity() == before


@pinned
@pytest.mark.parametrize("blas_threads", [1, 2, None])
def test_caller_and_worker_run_on_cpus_of_their_own_during_a_call(blas_threads, monkeypatch):
    """The worker's blocks run on its one CPU.  The caller's run on its
    other CPUs where the BLAS runs one thread, else on every CPU it had;
    after the call it has its mask back."""
    monkeypatch.setattr(tensor, "blas_threads", lambda: blas_threads)
    cpu, before = tensor.worker_cpu(), _affinity()
    assert cpu in before and len(before) >= 2
    with _threads(monkeypatch, 2, 1) as slots:
        seen = tensor.map_blocks(lambda b, slot: (slot, _affinity()), tensor.row_blocks(6, 1))
    assert slots == {0, 1}
    assert {mask for slot, mask in seen if slot == 0} == {before - {cpu} if blas_threads == 1 else before}
    assert {mask for slot, mask in seen if slot == 1} == {frozenset({cpu})}
    assert _affinity() == before


def test_nothing_is_narrowed_with_a_single_allowed_cpu(monkeypatch):
    """With one CPU in the process's set there is no worker CPU: both slots
    still run blocks, and no thread's affinity is set."""
    monkeypatch.setattr(tensor, "BLOCK_THREADS", 2)
    monkeypatch.setattr(tensor, "blas_threads", lambda: 1)
    blocks = tensor.row_blocks(6, tensor.BLOCK_ELEMENTS)
    tensor.map_blocks(lambda b, slot: None, blocks)  # the worker starts, pinned as the real set allows
    before, calls = _affinity(), []
    monkeypatch.setattr(tensor, "CPUS", frozenset(sorted(tensor.CPUS)[:1]) or frozenset({0}))
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args), raising=False)
    assert tensor.worker_cpu() is None
    with _threads(monkeypatch, 2, None) as slots:
        seen = tensor.map_blocks(lambda b, slot: (slot, _affinity()), blocks)
    assert slots == {0, 1} and calls == []
    assert {mask for slot, mask in seen if slot == 0} == {before}


class _Stop(Exception):
    pass


@pytest.mark.parametrize("cpus", [{3}, {0, 3}, {0, 1, 2, 3}])
def test_the_worker_pins_itself_to_the_last_cpu_given_two_or_more(cpus, monkeypatch):
    """``_serve`` run on this thread, with the module's CPU set replaced and
    the affinity call recorded: pinned to the last CPU given two or more,
    not pinned given one."""
    calls = []

    def stop():
        raise _Stop

    monkeypatch.setattr(tensor, "CPUS", frozenset(cpus))
    monkeypatch.setattr(os, "sched_setaffinity", lambda *args: calls.append(args), raising=False)
    jobs = queue.SimpleQueue()
    jobs.put(stop)
    with pytest.raises(_Stop):
        tensor._serve(jobs)
    assert calls == ([] if len(cpus) == 1 else [(0, {3})])


def test_map_blocks_runs_each_block_once_under_concurrent_callers(monkeypatch):
    """Four calling threads share the one worker, with the interpreter
    switching threads as often as it can: every call runs each of its
    blocks exactly once and returns their results in block order.  Where
    the worker is pinned, the callers hold different masks (two every CPU,
    one all but the worker's CPU, one only that CPU): each caller's blocks
    run on its own mask, less the worker's CPU where it held that and
    another, the worker's on the worker's CPU, and each caller has its own
    mask back after every call."""
    monkeypatch.setattr(tensor, "BLOCK_THREADS", 2)
    monkeypatch.setattr(tensor, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(tensor, "blas_threads", lambda: 1)
    blocks = tensor.row_blocks(50, 1)
    cpu, full = tensor.worker_cpu(), _affinity()
    masks = [full, full, full - {cpu}, frozenset({cpu})] if cpu is not None else [full] * 4
    wrong = []

    def caller(tag: int) -> None:
        own = masks[tag]
        if cpu is not None:
            os.sched_setaffinity(0, own)
        narrowed = own - {cpu} if cpu in own and len(own) >= 2 else own
        for _ in range(20):
            runs = [0] * len(blocks)

            def fn(b, slot):
                runs[b.start] += 1  # each block's own entry: no two threads write one
                return tag, b.start, _affinity() == (narrowed if slot == 0 or cpu is None else frozenset({cpu}))

            got = tensor.map_blocks(fn, blocks)
            if runs != [1] * len(blocks) or got != [(tag, i, True) for i in range(len(blocks))] or _affinity() != own:
                wrong.append(tag)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(tag,)) for tag in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []


_CHILD_AFFINITY = """
import json, os, subprocess, sys
from tsgpt import tensor
from tsgpt.datagen import SequenceBatch
from tsgpt.model import Model, ModelConfig
cfg = ModelConfig(layers=1, heads=2, d_q=4, d_v=4, n_inputs=1, conv_kernel=3, no_subsampler=True, seed=1)
# 8 rows of 256 positions by 32 hidden units: two feed-forward blocks of 4 rows, run on two threads
tensor.backward(Model(cfg).loss(SequenceBatch(values=tensor.Rng(1).normal((8, 255, 1))), train=True))
child = subprocess.run([sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                       check=True, capture_output=True, text=True)
print(json.dumps({"allowed": sorted(tensor.CPUS), "caller": sorted(os.sched_getaffinity(0)),
                  "child": json.loads(child.stdout), "worker": tensor._jobs is not None,
                  "blas_threads": tensor.blas_threads()}))
"""


@pinned
def test_a_process_started_after_a_train_step_may_use_every_cpu():
    """A train step in a fresh interpreter with a one-thread BLAS, so the
    calling thread is narrowed during each two-thread call: afterwards it,
    and a process it starts, may use every CPU of the process."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _CHILD_AFFINITY], env=env, check=True, capture_output=True, text=True)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["worker"] and got["blas_threads"] == 1 and len(got["allowed"]) >= 2
    assert got["caller"] == got["child"] == got["allowed"]


@pytest.mark.skipif(tensor.blas_threads() is None, reason="numpy's BLAS is not OpenBLAS")
def test_blas_threads_reads_the_threads_openblas_was_started_with():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for threads in (1, 2):
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        out = subprocess.run([sys.executable, "-c", "from tsgpt import tensor; print(tensor.blas_threads())"],
                             env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == str(threads)


_TRAIN_STEPS = """
import json, resource, sys
import numpy as np
from tsgpt import tensor
from tsgpt.experiments import extrapolation_model
from tsgpt.datagen import SequenceBatch
from tsgpt.model import Model
from tsgpt.training import OptimState, adam_step
tensor.BLOCK_THREADS = int(sys.argv[1])
model = Model(extrapolation_model(1, vanilla=False))
params = model.named_params()
opt = OptimState(lr=1e-3, warmup=2)
batch = SequenceBatch(values=tensor.Rng(3).normal((8, 256, 1)))
for _ in range(3):
    tensor.zero_grads([p for _, p in params])
    tensor.backward(model.loss(batch, train=True))
    adam_step(params, opt)
    tensor.zero_grads([p for _, p in params])
    tensor.backward(model.pretrain_loss(batch, train=True, form="parallel"))
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "worker": tensor._jobs is not None}))
"""


def test_worker_keeps_no_memory_past_a_train_step():
    """Three train steps of the extrapolation model at B=8 and 256 tokens
    in fresh interpreters, with the worker and without it.  At this shape
    the feed-forward keeps its hidden activation for the backward and its
    blocks are single rows, so the worker runs its backward.  Had the
    worker made the kept arrays, its malloc arena would hold their memory
    after the step, where the calling thread cannot reuse it.  That shows
    in the peak once the caller needs more than a train step: here, after
    each step, the parallel-form loss and gradients that the benchmark's
    end-of-run check also computes.  A copy whose feed-forward makes its
    kept arrays on the worker read 5.4-6.8 MB more with the worker than
    without it; this one reads about 1.3 MB more."""
    cfg = extrapolation_model(1, vanilla=False)
    f, L = tm.FFN_EXPANSION * cfg.d_model, 257
    assert 8 * L * f <= tm.FFN_KEEP_ELEMENTS and L * f >= tensor.BLOCK_ELEMENTS
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    runs = {}
    for threads in (1, 2):
        out = subprocess.run([sys.executable, "-c", _TRAIN_STEPS, str(threads)], env=env, check=True,
                             capture_output=True, text=True)
        runs[threads] = json.loads(out.stdout.strip().splitlines()[-1])
    assert not runs[1]["worker"] and runs[2]["worker"]
    assert runs[2]["maxrss_kb"] - runs[1]["maxrss_kb"] < 3 * 1024
