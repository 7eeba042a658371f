"""Declared backward reads in training plans.

An op declares, through ``Tensor._from_op(..., reads=...)``, which arrays
its backward reads beyond its own SAVED buffers; a training plan ends
every other buffer at its last forward reader, so later buffers reuse its
bytes.  For each op that declares ``reads``, one chain — a producer ``h``
that only the op under test reads, the op, whose output only its own
backward may read later, then a later writer of ``h``'s size — is
checked three ways:

* the poisoned replay (slab regions NaN-filled before their writers, and
  every byte no end-live buffer covers NaN-filled after the forward
  program) gives loss, output and gradients bitwise equal to eager;
* ``h``'s bytes are reused by a later buffer exactly when the op's
  backward does not read ``h``;
* a planted fault — ``linear`` declaring no read of its input — makes
  the poisoned replay differ from eager.

The eager tape follows the same rule: after an eager forward, ``h``'s
bytes are alive exactly when the op's backward reads ``h``, and the
arrays the op's backward closure holds are its SAVED buffers plus its
declared ``reads`` (persistent buffers aside), so a declaration that
drifts from its closure fails here, not only under the poisoned replay.
"""

import weakref

import numpy as np
import pytest

from repro.nn import aggregate_variables, flash_attention
from repro.tensor import (CompiledStep, Tensor, add_bias, bilinear_upsample,
                          conv2d, gelu, layernorm, linear)
from repro.tensor.tensor import PERSISTENT, SAVED, set_recorder
from repro.testing.poison import poisoned_replay
from tests.tape import closure_arrays, owner

SHAPE = (2, 3, 4, 6)   # (B, C, H, W): every op below takes it
_rng = np.random.default_rng(11)


def _param(*shape):
    return Tensor(_rng.standard_normal(shape).astype(np.float32), requires_grad=True)


# op -> (params, the op applied to h, whether its backward reads h)
CASES = {
    "add": ((_param(6),), lambda h, b: h + b, False),
    "sub": ((_param(6),), lambda h, b: h - b, False),
    "mul": ((_param(6),), lambda h, b: h * b, True),
    "add_bias": ((_param(6),), lambda h, b: add_bias(h, b), False),
    "sum": ((), lambda h: h.sum(axis=-1), False),
    "pow": ((), lambda h: h ** 2, True),
    "exp": ((), lambda h: h.exp(), False),   # reads its output
    "neg": ((), lambda h: -h, False),
    "reshape": ((), lambda h: h.permute(0, 1, 3, 2).reshape(2, 3, 24), False),
    "getitem": ((), lambda h: h[:, [0, 2]], False),
    "pad": ((), lambda h: h.pad(((0, 0), (0, 0), (1, 1), (2, 0))), False),
    "concat": ((), lambda h: Tensor.concatenate([h, h], axis=1), False),
    "stack": ((), lambda h: Tensor.stack([h, h], axis=0), False),
    "transpose": ((), lambda h: h.transpose(1, 2), False),
    "permute": ((), lambda h: h.permute(3, 0, 2, 1), False),
    "bilinear_upsample": ((), lambda h: bilinear_upsample(h, 8, 12), False),
    "layernorm": ((_param(6), _param(6)), layernorm, False),
    "linear": ((_param(5, 6), _param(5)), linear, True),
    "gelu": ((), gelu, True),
    "flash_attention": ((), lambda h: flash_attention(h, h, h, block_size=3), False),
    "conv2d_gathered": ((_param(5, 3, 3, 3), _param(5)),
                        lambda h, w, b: conv2d(h, w, b, pad=1), False),
    "conv2d_in_place": ((_param(5, 3, 1, 1), _param(5)), conv2d, True),
    "aggregate_variables": (
        (_param(4, 4), _param(4), _param(3, 1, 4))
        + tuple(_param(*s) for s in [(4, 4), (4,)] * 3),
        lambda h, *ps: aggregate_variables(h, *ps, num_heads=2), False),
}


def _chain(case):
    params, op, _ = case
    w0, w1 = _param(*SHAPE[1:]), _param(*SHAPE[1:])

    def fn(x):
        h = x * w0            # read by the op under test and no other
        fn.h = weakref.ref(h.data)
        z = op(h, *params)    # read later by its own backward, if at all
        y = z + 0.5
        later = x * w1        # h's size, written after h's last forward read
        return (y * y).sum() + (later * later).sum(), y

    return fn, (w0, w1, *params)


def _grads(leaves):
    return [None if p.grad is None else p.grad.copy() for p in leaves]


def _eager(fn, leaves, x):
    for p in leaves:
        p.grad = None
    loss, y = fn(Tensor(x))
    loss.backward()
    return [loss.data.copy(), y.data.copy(), *_grads(leaves)]


def _poisoned(step, leaves, x):
    for p in leaves:
        p.grad = None
    loss, y = poisoned_replay(step, x)
    return [loss.copy(), y.copy(), *_grads(leaves)]


def _same(got, want):
    return all((a is None and b is None) or
               (a is not None and b is not None and np.array_equal(a, b))
               for a, b in zip(got, want))


def _inputs():
    rng = np.random.default_rng(3)
    return [rng.standard_normal(SHAPE).astype(np.float32) for _ in range(3)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_declared_reads_replay_poisoned_bitwise(name):
    fn, leaves = _chain(CASES[name])
    x0, x1, x2 = _inputs()
    step = CompiledStep(fn)
    step(x0)
    for x in (x1, x2, x1):
        assert _same(_poisoned(step, leaves, x), _eager(fn, leaves, x)), name
    plan = step._plan
    h = next(i for i, b in enumerate(plan.buffers) if b.writer == 0)
    lo, hi = plan.offsets[h], plan.offsets[h] + plan.buffers[h].nbytes
    shared = [i for i, (o, b) in enumerate(zip(plan.offsets, plan.buffers))
              if i != h and b.kind != PERSISTENT and o < hi and lo < o + b.nbytes]
    reads_h = CASES[name][2]
    assert bool(shared) != reads_h, (name, shared)
    step.release()


def test_linear_without_its_declared_read_fails_the_poisoned_replay(monkeypatch):
    from_op = Tensor._from_op.__func__

    def planted(cls, data, parents, backward, op, replay=None, reads=None):
        return from_op(cls, data, parents, backward, op, replay,
                       () if op == "linear" else reads)

    monkeypatch.setattr(Tensor, "_from_op", classmethod(planted))
    fn, leaves = _chain(CASES["linear"])
    x0, x1, _ = _inputs()
    step = CompiledStep(fn)
    step(x0)
    assert not _same(_poisoned(step, leaves, x1), _eager(fn, leaves, x1))
    step.release()


@pytest.mark.parametrize("name", sorted(CASES))
def test_eager_tape_keeps_h_exactly_when_the_backward_reads_it(name):
    fn, _ = _chain(CASES[name])
    loss, _ = fn(Tensor(_inputs()[0]))
    assert (fn.h() is not None) == CASES[name][2], name
    loss.backward()
    assert fn.h() is None, name


class _Spy:
    """A recorder that only watches an eager run: each op's allocations
    by kind, its output and its declared reads."""

    tape = True

    def __init__(self):
        self.ops, self._allocs = [], []

    def alloc(self, kind, shape, dtype, like, fill):
        buf = np.empty_like(like) if like is not None else np.empty(shape, dtype)
        if fill is not None:
            buf[...] = fill
        self._allocs.append((kind, buf))
        return buf

    def record(self, out, parents, op, replay, reads):
        self.ops.append((op, out, reads, self._allocs))
        self._allocs = []


@pytest.mark.parametrize("name", sorted(CASES))
def test_backward_closure_holds_its_saved_buffers_and_declared_reads(name):
    fn, _ = _chain(CASES[name])
    spy = _Spy()
    set_recorder(spy)
    try:
        fn(Tensor(_inputs()[0]))
    finally:
        set_recorder(None)
    op = "conv2d" if name.startswith("conv2d") else name
    _, out, reads, allocs = next(r for r in spy.ops[1:] if r[0] == op)
    assert reads is not None, name
    persistent = {id(owner(b)) for kind, b in allocs if kind == PERSISTENT}
    want = {id(owner(b)) for kind, b in allocs if kind == SAVED}
    want |= {id(owner(r)) for r in reads}
    held = set(closure_arrays(out._node.backward)) - persistent
    assert held == want, name
