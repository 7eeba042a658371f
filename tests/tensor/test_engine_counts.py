"""Golden regression on the engine's deterministic node/copy counters.

A fixed tiny Reslim train step records exactly how many tape nodes the
forward builds and how the backward pass accumulates gradients: in-place
adds, freshly allocated buffers, zero-copy handoffs, and leaf-side
copies.  These counts are deterministic functions of the model graph, so
any change that silently adds nodes or copies to the hot path shifts the
table and fails tier-1 (rtol=0) — the wall-clock benchmark catches big
regressions on one machine, this catches structural ones everywhere.

Regenerate after an intentional engine change with
``REPRO_UPDATE_GOLDEN=1 pytest tests/tensor/test_engine_counts.py``.
"""

import gc

import numpy as np

from repro.core import ModelConfig, Reslim
from repro.nn import AdamW
from repro.tensor import (CompiledStep, FlopCounter, Tensor, graph_counters,
                          reset_graph_counters)

from tests.golden import assert_golden


def _render(counts: dict[str, int], title="engine hot-path counters (one Reslim train step)") -> str:
    lines = [title]
    for key in sorted(counts):
        lines.append(f"{key:18s} {counts[key]}")
    return "\n".join(lines) + "\n"


def _one_step_counts() -> dict[str, int]:
    rng = np.random.default_rng(0)
    config = ModelConfig("counts", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(config, in_channels=2, out_channels=1, factor=2,
                   max_tokens=4096, rng=rng)
    opt = AdamW(model.parameters(), lr=1e-3, flatten=True)
    x = Tensor(rng.standard_normal((2, 2, 16, 16)).astype(np.float32))
    y = Tensor(rng.standard_normal((2, 1, 32, 32)).astype(np.float32))

    # warm-up step so lazy grad views are attached, then measure one step
    def step():
        opt.zero_grad()
        diff = model(x) - y
        loss = (diff * diff).mean()
        loss.backward()
        opt.step()

    step()
    reset_graph_counters()
    step()
    counts = graph_counters()
    # arena_bytes is a process-wide gauge owned by live compiled plans
    # (possibly elsewhere in the suite), not an eager-step quantity
    counts["arena_bytes"] = 0
    return counts


def test_engine_counts_golden():
    counts = _one_step_counts()
    # sanity: the zero-copy backward must hand off more gradients than it
    # copies — the whole point of ownership tracking
    assert counts["bwd_handoffs"] > counts["bwd_new_buffers"]
    assert counts["nodes"] > 0
    assert_golden("engine_hotpath_counts", _render(counts), rtol=0.0, atol=0.0)


def test_counts_deterministic_across_runs():
    assert _one_step_counts() == _one_step_counts()


def _compiled_replay_counts() -> dict[str, int]:
    rng = np.random.default_rng(0)
    config = ModelConfig("counts", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(config, in_channels=2, out_channels=1, factor=2,
                   max_tokens=4096, rng=rng)
    opt = AdamW(model.parameters(), lr=1e-3, flatten=True)
    x = rng.standard_normal((2, 2, 16, 16)).astype(np.float32)
    y = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)

    def loss_fn(xt, yt):
        diff = model(xt) - yt
        return (diff * diff).mean()

    step = CompiledStep(loss_fn)

    def one(xv, yv):
        opt.zero_grad()
        step(xv, yv)
        opt.step()

    one(x, y)   # capture
    one(x, y)   # first replay (steady state from here on)
    reset_graph_counters()
    one(x, y)
    counts = graph_counters()
    counts["arena_bytes"] = 0  # gauge: machine-independent zero for golden
    step.release()
    return counts


def test_compiled_replay_counts_golden():
    """Steady-state replay builds NO python tape: zero nodes, zero tensor
    copies, zero backward bookkeeping — only the replay tick moves."""
    counts = _compiled_replay_counts()
    assert counts["nodes"] == 0
    assert counts["leaf_copies"] == 0
    assert counts["bwd_new_buffers"] == 0
    assert counts["bwd_handoffs"] == 0
    assert counts["replays"] == 1
    assert counts["captures"] == 0 and counts["guard_misses"] == 0
    assert_golden("engine_compiled_replay_counts",
                  _render(counts, "compiled steady-state replay counters "
                                  "(one Reslim train step)"),
                  rtol=0.0, atol=0.0)


def _first_step(compiled: bool):
    """Counter deltas, FLOPs and leaf grads of one step on a fresh model,
    run eagerly or as a ``CompiledStep`` capture."""
    rng = np.random.default_rng(0)
    config = ModelConfig("counts", embed_dim=32, depth=2, num_heads=4)
    model = Reslim(config, in_channels=2, out_channels=1, factor=2,
                   max_tokens=4096, rng=rng)
    x = rng.standard_normal((2, 2, 16, 16)).astype(np.float32)
    y = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)

    def loss_fn(xt, yt):
        diff = model(xt) - yt
        return (diff * diff).mean()

    reset_graph_counters()
    with FlopCounter() as fc:
        if compiled:
            step = CompiledStep(loss_fn)
            step(x, y)
        else:
            loss_fn(Tensor(x), Tensor(y)).backward()
    counts = graph_counters()
    if compiled:
        step.release()
    return counts, fc.total, [p.grad for p in model.parameters()]


def test_capture_step_is_an_eager_step():
    """Capture runs the eager backward walk: the same tape and backward
    counters, the same FLOPs and bitwise the same leaf gradients."""
    eager, eager_flops, eager_grads = _first_step(compiled=False)
    capture, capture_flops, capture_grads = _first_step(compiled=True)
    for key in ("nodes", "bwd_handoffs", "bwd_new_buffers",
                "bwd_inplace_adds", "leaf_copies"):
        assert capture[key] == eager[key], key
    assert eager["nodes"] > 0 and eager["leaf_copies"] > 0
    assert capture_flops == eager_flops > 0
    assert len(capture_grads) == len(eager_grads)
    for g_capture, g_eager in zip(capture_grads, eager_grads):
        np.testing.assert_array_equal(g_capture, g_eager)


def test_compiled_counters_lifecycle():
    """captures/replays/guard_misses tick as the plan is (re)built and
    arena_bytes returns to baseline on release."""
    rng = np.random.default_rng(1)
    config = ModelConfig("counts", embed_dim=16, depth=1, num_heads=2)
    model = Reslim(config, in_channels=2, out_channels=1, factor=2,
                   max_tokens=4096, rng=rng)

    def loss_fn(xt, yt):
        diff = model(xt) - yt
        return (diff * diff).mean()

    step = CompiledStep(loss_fn)
    x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
    y = rng.standard_normal((1, 1, 16, 16)).astype(np.float32)
    reset_graph_counters()
    gc.collect()  # free earlier tests' unreleased plans: the gauge is process-wide
    base_arena = graph_counters()["arena_bytes"]
    step(x, y)
    after_capture = graph_counters()
    assert after_capture["captures"] == 1
    assert after_capture["arena_bytes"] > base_arena
    step(x, y)
    assert graph_counters()["replays"] == 1
    x2 = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
    y2 = rng.standard_normal((2, 1, 16, 16)).astype(np.float32)
    step(x2, y2)  # shape change: guard miss + recapture
    c = graph_counters()
    assert c["guard_misses"] == 1 and c["captures"] == 2
    step.release()
    assert graph_counters()["arena_bytes"] == base_arena
