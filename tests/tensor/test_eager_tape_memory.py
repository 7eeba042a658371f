"""The eager tape keeps what a training plan keeps.

A training plan's arena ends a buffer at its last forward reader unless a
backward reads it (an op's SAVED buffers and its declared ``reads``), and
a saved buffer at its backward read.  The eager tape follows the same
rule through refcounts: each backward closure holds only what it reads,
and ``backward()`` releases each node once it has run.  On a small Reslim
train step this is checked two ways:

* the live bytes at the forward's end (traced, less the eager pool's
  idle bases, from a drained pool) are at most 5 % above the bytes the
  step's learned plan keeps live there;
* a SAVED buffer of the last op recorded, whose node the walk runs
  first, is freed before ``backward()`` returns.
"""

import tracemalloc
import weakref

import numpy as np

from repro.core import ModelConfig, Reslim
from repro.tensor import CompiledStep, Tensor
from repro.tensor.tensor import INPUT, SAVED, set_recorder
from tests.tape import drain_pool, live_bytes


def _setup():
    rng = np.random.default_rng(0)
    config = ModelConfig("tape", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(config, in_channels=4, out_channels=2, factor=2,
                   max_tokens=4096, rng=rng)
    x = rng.standard_normal((2, 4, 32, 64)).astype(np.float32)
    y = rng.standard_normal((2, 2, 64, 128)).astype(np.float32)

    def loss_fn(xt, yt):
        diff = model(xt) - yt
        return (diff * diff).mean()

    return model, loss_fn, x, y


def test_forward_end_bytes_match_the_learned_plan():
    model, loss_fn, x, y = _setup()
    loss_fn(Tensor(x), Tensor(y)).backward()   # warm: lazy state exists
    for p in model.parameters():
        p.grad = None
    plan = CompiledStep(loss_fn)._learn([x, y])
    n = max(hi for _, hi in plan.intervals)
    planned = sum(b.nbytes for b, (_, hi) in zip(plan.buffers, plan.intervals)
                  if hi == n and b.kind != INPUT)
    drain_pool()
    tracemalloc.start()
    try:
        entry = live_bytes()
        loss = loss_fn(Tensor(x), Tensor(y))
        held = live_bytes() - entry
    finally:
        tracemalloc.stop()
    loss.backward()
    assert planned > 1 << 20   # activations, not bookkeeping, dominate
    assert held <= 1.05 * planned, (held, planned)


class _SavedWatch:
    """A recorder that keeps a weak reference to every SAVED buffer, in
    the order the forward allocates them, and nothing else."""

    tape = True

    def __init__(self):
        self.saved = []

    def alloc(self, kind, shape, dtype, like, fill):
        buf = np.empty_like(like) if like is not None else np.empty(shape, dtype)
        if fill is not None:
            buf[...] = fill
        if kind == SAVED:
            self.saved.append(weakref.ref(buf))
        return buf

    def record(self, out, parents, op, replay, reads):
        pass


def test_backward_frees_saved_buffers_as_it_goes():
    model, loss_fn, x, y = _setup()
    watch = _SavedWatch()
    set_recorder(watch)
    try:
        loss = loss_fn(Tensor(x), Tensor(y))
    finally:
        set_recorder(None)
    last = watch.saved[-1]
    assert last() is not None
    seen = []
    params = model.parameters()
    for p in params:
        p._ready_hook = lambda _: seen.append(last() is None)
    try:
        loss.backward()
    finally:
        for p in params:
            p._ready_hook = None
    # the last leaf the walk finishes is folded after that node has run
    assert seen and seen[-1], seen
