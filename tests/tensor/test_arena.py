"""The liveness-planned arena of compiled plans.

* **serve shape** — the e2e serve model's tile ``(w, 23, 18, 34)`` at
  widths 1, 2 and 4: a poisoned replay (every reused slab region
  NaN-filled before its writer runs) is bitwise equal to the eager
  ``no_grad`` forward; the plan retains at most 0.8 MB per tile row, and
  ``arena_bytes`` is within 2 % of the bytes it retains; a second replay
  retains nothing; capture never holds the learning pass's buffers and
  the slab at once.
* **training plan** — one ``CompositeStrategy`` tile step: ``arena_bytes``
  within 2 % of the bytes retained.
* **planted faults** — a liveness interval ended one record early, and
  flash's ``kv1`` with its persistent kind dropped, each fail the
  poisoned replay.
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
from repro.tensor import CompiledStep, CompileError, Tensor, graph_counters, no_grad
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
    # the unplanned buffer set, which the learning pass holds with its
    # tape's Python objects (≈ 0.12 MB, 5.5 % of it at width 1) and frees
    # before the slab is taken
    unplanned = (sum(b.nbytes for b in step._plan.buffers)
                 + sum(b.nbytes for b in step._in_bufs))
    assert peak < unplanned + step._plan.nbytes / 2, (peak, unplanned)
    if width > 1:
        assert peak <= 1.05 * unplanned, (peak, unplanned)
    assert step._plan.nbytes < unplanned / 3
    for xi in (x2, x):
        out, = poisoned_replay(step, xi)
        assert np.array_equal(out, _eager(model, xi))
    step.release()


def test_training_plan_arena_matches_retained_bytes():
    cfg = ModelConfig("e2e-composite", embed_dim=32, depth=2, num_heads=4)
    strategy = CompositeStrategy(CompositePlan(VirtualCluster(2), tiles=2),
                                 loss_fn=_mse, halo=2, factor=2, compile=True)
    strategy.setup(lambda u: warm_head(Reslim(
        cfg, TILE[0], 3, factor=2, max_tokens=512, rng=np.random.default_rng(u))))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, TILE[0], 16, 32)).astype(np.float32)
    y = rng.standard_normal((1, 3, 32, 64)).astype(np.float32)
    strategy._active_loss_fn = _mse
    strategy._buffer(0, 0).zero_grad()   # leaf gradients land in the flat buffer
    step = strategy._compiled_step(0, 0)
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


def _end_one_interval_early(liveness):
    """The largest buffer read after its writer stops one record short."""
    def planted(rec, outputs, forward_only):
        spans = liveness(rec, outputs, forward_only)
        end = len(rec.records)
        i = max((i for i, (lo, hi) in enumerate(spans) if lo < hi < end),
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
        monkeypatch.setattr(compile_module, "_liveness",
                            _end_one_interval_early(compile_module._liveness))
    else:
        monkeypatch.setattr(flash_module, "_alloc",
                            _drop_kv1_persistent(flash_module._alloc))
    step = CompiledStep(lambda t: model(t), forward_only=True)
    step(x)
    out, = poisoned_replay(step, x)
    assert not np.array_equal(out, _eager(model, x))
    step.release()


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
