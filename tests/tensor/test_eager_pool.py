"""The eager pool: eager steps reuse their own buffers.

``repro.tensor.tensor._Pool`` hands eager forward buffers and the
backward's large temporaries out of size-keyed ``uint8`` bases, and a
base is free exactly when the pool holds its only reference.  Checked
here:

* a base pinned by a view of a view, a reshape, a transpose, a
  ``memoryview`` or a leaf's ``.grad`` handoff is never handed out, and
  is handed out again once the pin is gone;
* an eager train step whose every taken base is NaN-filled first gives a
  loss and flat gradient bitwise equal to the unpoisoned step's, step
  after step: no op reads a pooled buffer before writing it;
* from step 3 on, a steady step takes no new base;
* a step boundary drops the bases a whole step left idle: after one
  shape trains and then another, the pool holds exactly the bases the
  last step took;
* ``layernorm``'s backward, which pools its two products only where
  NumPy gives them C order, is bitwise equal to the unpooled formula for
  a C-order and a transposed upstream gradient.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.nn import AdamW
from repro.tensor import Tensor, layernorm
from repro.tensor.tensor import _POOL, _Pool
from tests.tape import drain_pool


def _address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def _held_ids() -> set[int]:
    return {id(b) for bases in _POOL._bases.values() for b in bases}


# --------------------------------------------------------------------- #
# (a) pins
# --------------------------------------------------------------------- #
PINS = {
    "view_of_view": lambda a: a[1:][:, 2:],
    "reshape": lambda a: a.reshape(-1),
    "transpose": lambda a: a.T,
    "memoryview": memoryview,
}


@pytest.mark.parametrize("pin", sorted(PINS))
def test_a_pinned_base_is_never_handed_out(pin):
    pool = _Pool()
    a = pool.take((4, 6))
    first = _address(a)
    held = PINS[pin](a)
    del a
    b = pool.take((4, 6))
    assert _address(b) != first
    assert not np.shares_memory(b, np.asarray(held))
    del b, held
    assert _address(pool.take((4, 6))) == first   # unpinned: reused
    assert pool.made == 2


def test_a_leaf_grad_handoff_pins_its_base():
    drain_pool()
    w = Tensor(np.random.default_rng(0).standard_normal((8, 16)), requires_grad=True)
    ((w * 2.0) + (w * 3.0)).sum().backward()
    # the second contribution is summed into a pooled buffer the walk
    # owns, which it hands to the leaf by reference
    assert any(b is w.grad.base for b in _POOL._bases[w.grad.nbytes])
    assert np.array_equal(w.grad, np.full((8, 16), 5.0, np.float32))
    fresh = _POOL.take(w.shape)
    assert not np.shares_memory(fresh, w.grad)
    del fresh
    address, w.grad = _address(w.grad), None
    assert _address(_POOL.take(w.shape)) == address


# --------------------------------------------------------------------- #
# a small Reslim eager train step
# --------------------------------------------------------------------- #
def _trainer(seed=0):
    rng = np.random.default_rng(seed)
    config = ModelConfig("pool", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(config, in_channels=4, out_channels=2, factor=2,
                   max_tokens=4096, rng=rng)
    opt = AdamW(model.parameters(), lr=1e-3, flatten=True)

    def step(x, y):
        opt.zero_grad()
        diff = model(Tensor(x)) - Tensor(y)
        loss = (diff * diff).mean()
        loss.backward()
        grad = opt.flat.grad.copy()
        opt.step()
        return loss.data.copy(), grad

    return step


def _batch(b, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((b, 4, 32, 64)).astype(np.float32),
            rng.standard_normal((b, 2, 64, 128)).astype(np.float32))


# --------------------------------------------------------------------- #
# (b) poisoned reuse
# --------------------------------------------------------------------- #
def test_poisoned_pool_steps_are_bitwise_equal(monkeypatch):
    batches = [_batch(2, s) for s in range(4)]
    drain_pool()
    clean_step = _trainer()
    clean = [clean_step(*xy) for xy in batches]

    take = _Pool.take

    def poisoned(self, shape, dtype=np.float32, axes=None):
        arr = take(self, shape, dtype, axes)
        if arr.base is not None:
            arr.base.fill(0xFF)   # every float32 word a NaN
        return arr

    monkeypatch.setattr(_Pool, "take", poisoned)
    drain_pool()
    poisoned_step = _trainer()
    for (loss, grad), (want_loss, want_grad) in zip(
            (poisoned_step(*xy) for xy in batches), clean):
        assert np.isfinite(loss) and np.array_equal(loss, want_loss)
        assert np.array_equal(grad, want_grad)


# --------------------------------------------------------------------- #
# (c) steady steps take no new base
# --------------------------------------------------------------------- #
def test_steady_steps_take_no_new_base():
    drain_pool()
    step = _trainer()
    x, y = _batch(2, 0)
    made = []
    for _ in range(6):
        step(x, y)
        made.append(_POOL.made)
    assert made[2] == made[-1], made   # steps 3 to 6 made none


# --------------------------------------------------------------------- #
# (d) the boundary drops what a whole step left idle
# --------------------------------------------------------------------- #
def test_a_boundary_drops_the_bases_a_step_left_idle(monkeypatch):
    drain_pool()
    step = _trainer()
    for _ in range(3):
        step(*_batch(4, 1))
    held_wide = sum(k * len(b) for k, b in _POOL._bases.items())

    take = _Pool.take
    taken: set[int] = set()

    def watched(self, shape, dtype=np.float32, axes=None):
        arr = take(self, shape, dtype, axes)
        if arr.base is not None:
            taken.add(id(arr.base))
        return arr

    monkeypatch.setattr(_Pool, "take", watched)
    for _ in range(3):
        taken.clear()
        step(*_batch(1, 2))
    assert _held_ids() == taken
    held_narrow = sum(k * len(b) for k, b in _POOL._bases.items())
    assert held_narrow < held_wide / 2, (held_narrow, held_wide)


# --------------------------------------------------------------------- #
# (e) layernorm's backward layouts
# --------------------------------------------------------------------- #
def _layernorm_backward_unpooled(g, x, w, eps=1e-5):
    """``layernorm``'s forward state and backward, with NumPy allocating
    every array (the formula before the pool)."""
    d = x.shape[-1]
    avg = np.full((d, 1), 1.0 / d, np.float32)
    inv = np.matmul(x, avg)
    xhat = x - inv
    sq = xhat * xhat
    np.matmul(sq, avg, out=inv)
    np.add(inv, np.float32(eps), out=inv)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.multiply(xhat, inv, out=xhat)
    red_axes = tuple(range(x.ndim - 1))
    gx = np.multiply(g, w)
    tmp = np.multiply(gx, xhat)
    m1, m2 = np.matmul(gx, avg), np.matmul(tmp, avg)
    np.multiply(g, xhat, out=tmp)
    gw, gb = tmp.sum(axis=red_axes), g.sum(axis=red_axes)
    np.subtract(gx, m1, out=gx)
    np.multiply(xhat, m2, out=tmp)
    np.subtract(gx, tmp, out=gx)
    np.multiply(gx, inv, out=gx)
    return gx, gw, gb


@pytest.mark.parametrize("layout", ["c_order", "transposed"])
def test_layernorm_backward_is_bitwise_the_unpooled_formula(layout):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 37, 24)).astype(np.float32)
    w, b = (rng.standard_normal(24).astype(np.float32) for _ in range(2))
    g = rng.standard_normal((37, 3, 24)).astype(np.float32).transpose(1, 0, 2)
    if layout == "c_order":
        g = np.ascontiguousarray(g)
    out = layernorm(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                    Tensor(b, requires_grad=True))
    got = out._node.backward(g)
    want = _layernorm_backward_unpooled(g, x, w)
    for a, e in zip(got, want):
        assert a.flags.c_contiguous == e.flags.c_contiguous
        assert np.array_equal(a, e)
