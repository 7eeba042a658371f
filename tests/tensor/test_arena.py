"""The liveness-planned arena of compiled plans.

* **serve shape** — the e2e serve model's tile ``(w, 23, 18, 34)`` at
  widths 1, 2 and 4: a poisoned replay (every reused slab region
  NaN-filled before its writer runs and after its last reader) is
  bitwise equal to the eager ``no_grad`` forward; the plan retains at
  most 0.8 MB per tile row, and ``arena_bytes`` is within 2 % of the
  bytes it retains; at width 2 the shared slab is 940 160 B, the input
  in it, outputs living from their writer; a second
  replay retains nothing; capture never holds the learning pass's
  buffers and the slab at once.
* **training plan** — one ``CompositeStrategy`` tile step: ``arena_bytes``
  within 2 % of the bytes retained.
* **learning pass** — a composite unit plan's learning pass peaks under
  half the bytes of all its buffers: it keeps no tape.
* **shared arena** — a ``CompositeStrategy``'s tile plans share one
  shared slab and one persistent slab: ``arena_bytes`` is those two
  once, within 2 % of the bytes retained, the same for two units as for
  four; a reshard that keeps the tile count keeps them, and the gauge is
  back at its baseline after the plans are released or a tile-count
  change resharded them away; either capture order of two widths captures once per
  plan, the larger first into one shared slab; and interleaved poisoned
  replays of two units are bitwise equal to eager.
* **planted faults** — a learned interval ended one record early, and
  flash's ``kv1`` with its persistent kind dropped, each fail the
  poisoned replay, the latter also in a training plan where no buffer of
  its own shares those bytes; conv2d's bordered interior written only at
  capture fails the interleaved replays of two units, which share it.
* **failed capture** — a step that raises mid-capture, on either pass,
  leaves no bytes and no gauge behind.
"""

import gc
import importlib
import tracemalloc

import numpy as np
import pytest

import repro.tensor.compile as compile_module
from repro.core import ModelConfig, Reslim
from repro.distributed import CompositePlan, CompositeStrategy, VirtualCluster
from repro.tensor import (CompiledForward, CompiledStep, CompileError, Tensor,
                          graph_counters, no_grad)
from repro.tensor.tensor import PERSISTENT, SAVED
from repro.testing import warm_head
from repro.testing.poison import poisoned_replay

flash_module = importlib.import_module("repro.nn.flash_attention")

TILE = (23, 18, 34)
MB = 1e6


def _serve_model():
    cfg = ModelConfig("e2e-serve", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(cfg, TILE[0], 3, factor=2, max_tokens=512,
                   rng=np.random.default_rng(0))
    return warm_head(model).eval()


def _tile(width, seed):
    return np.random.default_rng(seed).standard_normal((width, *TILE)).astype(np.float32)


def _eager(model, x):
    with no_grad():
        return model(Tensor(x)).data.copy()


def _numpy_bytes():
    """Bytes of live NumPy data buffers, as tracemalloc sees them."""
    gc.collect()
    snap = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    return sum(t.size for t in snap.traces)


@pytest.mark.parametrize("width", [1, 2, 4])
def test_serve_plan_is_small_exact_and_poison_clean(width):
    model = _serve_model()
    x, x2 = _tile(width, 1), _tile(width, 2)
    step = CompiledStep(lambda t: model(t), forward_only=True)
    gc.collect()
    tracemalloc.start()
    try:
        base, np_base = tracemalloc.get_traced_memory()[0], _numpy_bytes()
        arena0 = graph_counters()["arena_bytes"]
        tracemalloc.reset_peak()
        step(x)
        peak = tracemalloc.get_traced_memory()[1] - base
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        arena = graph_counters()["arena_bytes"] - arena0
        np_retained = _numpy_bytes() - np_base
        step(x2)
        held = _numpy_bytes()
        step(x2)
        again = _numpy_bytes()
    finally:
        tracemalloc.stop()
    assert retained <= 0.8 * MB * width, retained
    assert abs(arena - np_retained) <= 0.02 * np_retained, (arena, np_retained)
    assert again == held           # a second replay retains no array
    # the unplanned buffer set, input included, which the learning pass
    # holds with its tape's Python objects (≈ 0.12 MB, 5.5 % of it at
    # width 1) and frees before the slab is taken
    unplanned = sum(b.nbytes for b in step._plan.buffers)
    assert peak < unplanned + step._plan.nbytes / 2, (peak, unplanned)
    if width > 1:
        assert peak <= 1.05 * unplanned, (peak, unplanned)
    assert step._plan.nbytes < unplanned / 3
    if width == 2:   # outputs live from their writer, the input from the copy-in
        assert step._plan.nbytes == 940_160
    for xi in (x2, x):
        out, = poisoned_replay(step, xi)
        assert np.array_equal(out, _eager(model, xi))
    step.release()


def test_training_plan_arena_matches_retained_bytes():
    strategy = _composite()
    x, y = _batch(1)
    strategy._active_loss_fn = _mse
    strategy._buffer.zero_grad()   # leaf gradients land in the flat buffer
    step = strategy._compiled_step(0)
    gc.collect()
    tracemalloc.start()
    try:
        np_base, arena0 = _numpy_bytes(), graph_counters()["arena_bytes"]
        step(x, y)
        arena = graph_counters()["arena_bytes"] - arena0
        np_retained = _numpy_bytes() - np_base
    finally:
        tracemalloc.stop()
    assert abs(arena - np_retained) <= 0.02 * np_retained, (arena, np_retained)
    assert poisoned_replay(step, x, y)[0] == step(x, y)[0]
    strategy._release_compiled()


def _mse(pred, target):
    d = pred - target
    return (d * d).mean()


def _composite(ddp=1, tiles=2):
    cfg = ModelConfig("e2e-composite", embed_dim=32, depth=2, num_heads=4)
    strategy = CompositeStrategy(CompositePlan(VirtualCluster(ddp * tiles), tiles=tiles,
                                               ddp=ddp),
                                 loss_fn=_mse, halo=2, factor=2, compile=True)
    strategy.setup(lambda u: warm_head(Reslim(
        cfg, TILE[0], 3, factor=2, max_tokens=512, rng=np.random.default_rng(u))))
    return strategy


def _batch(n, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, TILE[0], 16, 32)).astype(np.float32),
            rng.standard_normal((n, 3, 32, 64)).astype(np.float32))


def _slabs(steps, slab="_slab"):
    """The distinct shared slabs ``steps`` hold, or with ``"_own"`` the
    distinct persistent slabs."""
    return {id(getattr(s, slab).base): getattr(s, slab).base for s in steps}.values()


def test_learning_pass_holds_the_live_set_not_every_buffer():
    """The learning pass keeps no tape: each buffer dies with its last
    reference, so its peak is the live set, well under the sum of every
    buffer the unit plan allocates."""
    strategy = _composite()
    x, y = _batch(1)
    strategy._active_loss_fn = _mse
    step = strategy._compiled_step(0)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        plan = step._learn([x, y])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    total = sum(b.nbytes for b in plan.buffers)
    assert peak < total / 2, (peak, total)
    strategy._release_compiled()


def test_unit_plans_share_one_slab_counted_once():
    """ddp=2 x tiles=2: four units, one plan per tile, one slab each kind."""
    strategy = _composite(ddp=2, tiles=2)
    x, y = _batch(2)
    gc.collect()
    tracemalloc.start()
    try:
        np_base, arena0 = _numpy_bytes(), graph_counters()["arena_bytes"]
        strategy.step(x, y)   # the reduction frees the work gradients
        arena = graph_counters()["arena_bytes"] - arena0
        np_retained = _numpy_bytes() - np_base
    finally:
        tracemalloc.stop()
    steps = list(strategy._compiled.values())
    slabs, persistent = list(_slabs(steps)), list(_slabs(steps, "_own"))
    assert len(steps) == 2 and len(slabs) == 1 and len(persistent) == 1
    assert arena == slabs[0].nbytes + persistent[0].nbytes
    assert abs(arena - np_retained) <= 0.02 * np_retained, (arena, np_retained)
    assert all(np.shares_memory(b, slabs[0]) for s in steps for b in s._in_bufs)
    strategy._release_compiled()


def test_gauge_returns_to_baseline_after_release_and_reshard():
    strategy = _composite(ddp=2, tiles=2)
    x, y = _batch(2)
    gc.collect()
    arena0 = graph_counters()["arena_bytes"]
    strategy.forward_backward(x, y)
    held = graph_counters()["arena_bytes"] - arena0
    assert held > 0
    strategy._release_compiled()
    assert graph_counters()["arena_bytes"] == arena0
    strategy.forward_backward(x, y)
    assert graph_counters()["arena_bytes"] - arena0 == held
    # a reshard that keeps the tile count keeps the plans and their slabs,
    # and two units of the same shapes replay them
    strategy.reshard(CompositePlan(VirtualCluster(2), tiles=2))
    assert graph_counters()["arena_bytes"] - arena0 == held
    captures = graph_counters()["captures"]
    strategy.forward_backward(x[:1], y[:1])
    assert graph_counters()["captures"] == captures
    assert graph_counters()["arena_bytes"] - arena0 == held
    # one that changes it releases them
    strategy.reshard(CompositePlan(VirtualCluster(1)))
    assert graph_counters()["arena_bytes"] == arena0


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_either_capture_order_captures_once_per_plan(order):
    model = _serve_model()
    fwd = CompiledForward(model)
    tiles = {w: _tile(w, 6 + w) for w in order}
    c0 = graph_counters()
    for _ in range(3):
        for w in order:
            assert np.array_equal(fwd(tiles[w]).data, _eager(model, tiles[w]))
    c = graph_counters()
    assert c["captures"] - c0["captures"] == 2
    assert c["guard_misses"] == c0["guard_misses"]
    steps = list(fwd._plans.values())
    slabs = list(_slabs(steps))
    # a narrower plan keeps the slab it took; a wider-first arena has one;
    # the widths' persistent layouts differ, so each has its own
    assert len(slabs) == (2 if order == (1, 2) else 1)
    persistent = list(_slabs(steps, "_own"))
    assert len(persistent) == 2
    assert c["arena_bytes"] - c0["arena_bytes"] == (
        sum(s.nbytes for s in slabs) + sum(s.nbytes for s in persistent))
    fwd.release()
    assert graph_counters()["arena_bytes"] == c0["arena_bytes"]


def _captured_units(strategy, steps, x, y):
    """Capture each unit's plan after its eager step; the eager loss,
    output and flat gradient of each."""
    eager = []
    for t, step in enumerate(steps):
        buf = strategy._buffer
        buf.zero_grad()
        loss, out = strategy._unit_loss(strategy.model, Tensor(x), Tensor(y), t, _mse)
        loss.backward()
        eager.append((loss.data.copy(), out.data.copy(), buf.grad.copy()))
        buf.zero_grad()
        step(x, y)
    return eager


def _interleaved_replays_match(strategy, steps, eager, x, y) -> bool:
    same = True
    for _ in range(2):
        for t, step in enumerate(steps):
            buf = strategy._buffer
            buf.zero_grad()
            loss, out = poisoned_replay(step, x, y)
            same &= all(np.array_equal(got, want)
                        for got, want in zip((loss, out, buf.grad), eager[t]))
    return same


def test_interleaved_poisoned_replays_of_two_units_are_eager_bitwise():
    strategy = _composite(tiles=2)
    x, y = _batch(1)
    strategy._active_loss_fn = _mse
    steps = [strategy._compiled_step(t) for t in range(2)]
    eager = _captured_units(strategy, steps, x, y)
    assert len(list(_slabs(steps))) == 1 and len(list(_slabs(steps, "_own"))) == 1
    assert _interleaved_replays_match(strategy, steps, eager, x, y)
    strategy._release_compiled()


@pytest.mark.parametrize("shared", [True, False])
def test_persistent_bytes_written_only_at_capture_fail_shared_units(shared, monkeypatch):
    """conv2d's bordered interior, copied in only at capture: each unit
    with a persistent slab of its own replays its capture's interior,
    which hides the fault; units that share one read the other's."""
    strategy = _composite(tiles=2)
    x, y = _batch(1)
    strategy._active_loss_fn = _mse
    steps = [strategy._compiled_step(t) if shared else
             CompiledStep(strategy._make_tile_fn(t), guard_extra=strategy._guard_key)
             for t in range(2)]
    eager = _captured_units(strategy, steps, x, y)
    persistent = list(_slabs(steps, "_own"))
    assert len(persistent) == (1 if shared else 2)
    copyto = np.copyto

    def planted(dst, src, *args, **kwargs):
        if not any(np.shares_memory(dst, slab) for slab in persistent):
            copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", planted)
    assert _interleaved_replays_match(strategy, steps, eager, x, y) != shared
    for step in steps:
        step.release()


def _end_one_interval_early(intervals):
    """The largest buffer read after its writer stops one record short."""
    def planted(rec, outputs):
        spans = intervals(rec, outputs)
        i = max((i for i, (lo, hi) in enumerate(spans) if lo < hi < rec.n),
                key=lambda i: rec.buffers[i].nbytes)
        spans[i] = (spans[i][0], spans[i][1] - 1)
        return spans
    return planted


def _drop_kv1_persistent(alloc):
    """Flash's ``kv1``, the one 4-D persistent buffer, declared saved."""
    def planted(kind, shape=(), *args, **kwargs):
        if kind == PERSISTENT and len(shape) == 4:
            kind = SAVED
        return alloc(kind, shape, *args, **kwargs)
    return planted


@pytest.mark.parametrize("fault", ["early_end", "persistent_dropped"])
def test_planner_catches_planted_liveness_bug(fault, monkeypatch):
    model = _serve_model()
    x = _tile(1, 4)
    if fault == "early_end":
        monkeypatch.setattr(compile_module._Learner, "intervals",
                            _end_one_interval_early(compile_module._Learner.intervals))
    else:
        monkeypatch.setattr(flash_module, "_alloc",
                            _drop_kv1_persistent(flash_module._alloc))
    step = CompiledStep(lambda t: model(t), forward_only=True)
    step(x)
    out, = poisoned_replay(step, x)
    assert not np.array_equal(out, _eager(model, x))
    step.release()


def test_fill_read_from_a_shared_slab_fails_without_reuse_in_its_plan(monkeypatch):
    """``kv1`` declared saved lives to the end of a training plan, so no
    buffer of that plan shares its bytes; in a shared arena another plan
    may write them, and the poisoned replay shows the ones column read."""
    monkeypatch.setattr(flash_module, "_alloc",
                        _drop_kv1_persistent(flash_module._alloc))
    strategy = _composite(tiles=2)
    x, y = _batch(1)
    strategy._active_loss_fn = _mse
    step = strategy._compiled_step(0)
    loss, _ = step(x, y)
    loss = loss.copy()
    plan = step._plan
    spans = [(o, o + b.nbytes) for o, b in zip(plan.offsets, plan.buffers)
             if b.kind != PERSISTENT]
    kv1 = [(o, o + b.nbytes) for o, b in zip(plan.offsets, plan.buffers)
           if b.kind == SAVED and len(b.shape) == 4 and b.shape[0] == 2]
    assert kv1
    for lo, hi in kv1:
        assert sum(lo < e and o < hi for o, e in spans) == 1   # only itself
    assert np.array_equal(step(x, y)[0], loss)   # alone in its arena: hidden
    assert not np.array_equal(poisoned_replay(step, x, y)[0], loss)
    strategy._release_compiled()


@pytest.mark.parametrize("when", ["first_pass", "second_pass"])
def test_failed_capture_holds_nothing(when):
    model = _serve_model()
    x = _tile(2, 5)
    calls = []

    def fn(t):
        calls.append(None)
        out = model(t)
        if when == "first_pass":
            raise RuntimeError("step failed mid-capture")
        return out if len(calls) == 1 else out * 2.0   # one op more: pass 2 differs

    step = CompiledStep(fn, forward_only=True)
    gc.collect()
    tracemalloc.start()
    try:
        base, arena0 = _numpy_bytes(), graph_counters()["arena_bytes"]
        with pytest.raises(RuntimeError if when == "first_pass" else CompileError):
            step(x)
        left = _numpy_bytes() - base
    finally:
        tracemalloc.stop()
    assert left == 0
    assert graph_counters()["arena_bytes"] == arena0
    assert not step.captured and step._in_bufs == [] and step._slab is None
