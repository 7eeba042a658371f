"""Fig. 6(a): TILES sequence-scaling speedup across GPU counts.

Modelled speedup of the 16-tile 9.5M configuration relative to the 8-GPU
untiled baseline (the paper's axes), plus a measured demonstration that
distributed TILES (``CompositePlan(tiles=4)``: one tile per virtual rank,
one gradient all-reduce per batch) leaves every rank with the same
averaged gradient.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, PAPER_CONFIGS, Reslim
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    DownscalingWorkload,
    VirtualCluster,
    time_per_sample,
)

from benchmarks.common import write_table

GPU_COUNTS = [8, 16, 32, 64, 128, 256, 512, 1024, 2048]


@pytest.fixture(scope="module")
def speedups():
    cfg = PAPER_CONFIGS["9.5M"]
    base = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3)
    t8 = time_per_sample(base, 8)
    tiled = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3, tiles=16)
    return {n: t8 / time_per_sample(tiled, n) for n in GPU_COUNTS}


def test_generate_fig6a(benchmark, speedups):
    cfg = PAPER_CONFIGS["9.5M"]
    tiled = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3, tiles=16)
    benchmark(lambda: time_per_sample(tiled, 2048))
    lines = [
        "Fig. 6(a): TILES speedup vs 8-GPU untiled baseline (modelled)",
        "paper anchors: 1.9x at 8 GPUs, ~515x at 2048 GPUs",
        "-" * 40,
        f"{'GPUs':>6s} {'speedup':>10s}",
    ]
    for n in GPU_COUNTS:
        lines.append(f"{n:6d} {speedups[n]:9.1f}x")
    write_table("fig6a_tiles_scaling", lines)

    assert speedups[8] > 1.0            # tiling wins even at equal GPUs
    assert speedups[2048] > 100         # hundreds-x at 2048 GPUs
    # near-linear region: doubling GPUs ~doubles speedup mid-range
    assert 1.7 < speedups[512] / speedups[256] < 2.2


def test_scaling_near_linear_overall(benchmark, speedups):
    """Log-log slope of speedup vs GPUs ≈ 1 (the linear-scaling claim)."""
    ns = np.array(GPU_COUNTS[2:], dtype=float)          # past the startup knee
    sp = np.array([speedups[int(n)] for n in ns])
    slope = benchmark(lambda: np.polyfit(np.log(ns), np.log(sp), 1)[0])
    lines = [f"Fig. 6(a) log-log slope of speedup vs GPUs: {slope:.3f} (ideal 1.0)"]
    write_table("fig6a_slope", lines)
    assert 0.9 <= slope <= 1.05


def test_distributed_tiles_gradients_match_serial(benchmark):
    """The correctness behind the scaling: tile-parallel training on the
    virtual cluster is exactly serial tiled training."""
    cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
    world = 4
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
    y = rng.standard_normal((1, 2, 32, 32)).astype(np.float32)

    def loss_fn(pred, target):
        d = pred - target
        return (d * d).mean()

    tsp = CompositeStrategy(CompositePlan(VirtualCluster(world), tiles=world),
                            loss_fn, halo=2, factor=2)
    tsp.setup(lambda t: Reslim(cfg, 4, 2, factor=2, max_tokens=64,
                               rng=np.random.default_rng(t)))
    # the reduction raises unless every tile ends with one gradient
    benchmark.pedantic(lambda: tsp.step(x, y), rounds=1, iterations=1)
    ref = Reslim(cfg, 4, 2, factor=2, max_tokens=64, rng=np.random.default_rng(0))
    np.testing.assert_allclose(tsp.unit_grads(), tsp.reference_step(ref, x, y),
                               rtol=1e-4, atol=1e-5)
    assert tsp.comm_summary()["calls"]["tiles"]["all_reduce"] == 1
