"""Table II(b): adaptive compression and tiling speedups vs the Reslim
baseline (112→28 km task, 128 GPUs in the paper).

Measured: real forward passes of a width-reduced Reslim with compression
on/off and through the TILES wrapper.  Modelled: the performance model's
speedups at the paper's exact scale, which must show the paper's two key
shapes — diminishing returns beyond ~16x compression (quad-tree CPU
overhead) and a tiling optimum near 16 tiles (halo overhead beyond).
"""

import time

import numpy as np
import pytest

from repro.core import ModelConfig, PAPER_CONFIGS, Reslim, TiledDownscaler
from repro.distributed import DownscalingWorkload, time_per_sample
from repro.tensor import FlopCounter, Tensor, no_grad

from benchmarks.common import write_table

TINY = ModelConfig("tiny", embed_dim=32, depth=2, num_heads=4)
COARSE = (32, 64)


def _x():
    rng = np.random.default_rng(0)
    return Tensor(rng.standard_normal((1, 23, *COARSE)).astype(np.float32))


def _timeit(fn, reps=5):
    with no_grad():
        fn()
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
    return (time.perf_counter() - t0) / reps


@pytest.fixture(scope="module")
def baseline_model():
    return Reslim(TINY, 23, 3, factor=4, max_tokens=1024,
                  rng=np.random.default_rng(0))


def test_baseline_forward_benchmark(benchmark, baseline_model):
    x = _x()
    with no_grad():
        benchmark(lambda: baseline_model(x))


def test_compressed_forward_benchmark(benchmark):
    model = Reslim(TINY, 23, 3, factor=4, compression=0.01,
                   compression_max_patch=8, max_tokens=1024,
                   rng=np.random.default_rng(0))
    x = _x()
    with no_grad():
        benchmark(lambda: model(x))


def test_tiled_forward_benchmark(benchmark, baseline_model):
    tiled = TiledDownscaler(baseline_model, n_tiles=4, halo=2, factor=4)
    x = _x()
    with no_grad():
        benchmark(lambda: tiled(x))


def test_table2b_modelled_speedups(benchmark):
    """Regenerate the Table II(b) rows at paper scale."""
    cfg = PAPER_CONFIGS["9.5M"]
    base = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3)
    tb = benchmark(lambda: time_per_sample(base, 128))

    comp_rows, tile_rows = [], []
    for c, paper in [(8.0, 3.3), (16.0, 6.6), (32.0, 7.1)]:
        w = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3,
                                compression=c)
        comp_rows.append((c, tb / time_per_sample(w, 128), paper))
    for t, paper in [(4, 1.5), (16, 1.9), (36, 1.6)]:
        w = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3, tiles=t)
        tile_rows.append((t, tb / time_per_sample(w, 128), paper))

    lines = [
        "Table II(b): speedup vs Reslim baseline (9.5M, 112->28 km, 128 GPUs)",
        "-" * 60,
        f"{'setting':20s} {'modelled':>10s} {'paper':>8s}",
    ]
    for c, s, p in comp_rows:
        lines.append(f"{'compression ' + str(int(c)) + 'x':20s} {s:10.1f} {p:8.1f}")
    for t, s, p in tile_rows:
        lines.append(f"{'tiles ' + str(t):20s} {s:10.2f} {p:8.1f}")
    write_table("table2b_compression_tiling", lines)

    # shape assertions: monotone-diminishing compression; tiling optimum
    speeds_c = [s for _, s, _ in comp_rows]
    assert speeds_c[0] > 2.0
    assert speeds_c[2] - speeds_c[1] < speeds_c[1] - speeds_c[0]
    speeds_t = {t: s for t, s, _ in tile_rows}
    assert speeds_t[16] > 1.0
    assert speeds_t[36] < speeds_t[16]


def test_measured_compression_speedup_and_accuracy(benchmark):
    """At toy scale: compression reduces sequence length and forward
    FLOPs (accuracy columns of Table II(b)).  The golden pins the
    deterministic columns exactly; wall clock is appended to the results
    table, never pinned (it drifts run to run and with kernel epochs)."""
    base = Reslim(TINY, 23, 3, factor=4, max_tokens=1024,
                  rng=np.random.default_rng(0))
    comp = Reslim(TINY, 23, 3, factor=4, compression=0.01,
                  compression_max_patch=8, max_tokens=1024,
                  rng=np.random.default_rng(0))
    comp.load_state_dict(base.state_dict())
    x = _x()
    t_base = _timeit(lambda: base(x))
    t_comp = benchmark.pedantic(lambda: _timeit(lambda: comp(x)),
                                rounds=1, iterations=1)
    with no_grad(), FlopCounter() as base_flops:
        base(x)
    with no_grad(), FlopCounter() as comp_flops:
        comp(x)
    assert comp.last_compression_ratio > 1.0
    assert comp.last_sequence_length < base.sequence_length(*COARSE)
    lines = [
        "Measured (toy scale): compression forward cost",
        f"baseline: seq {base.sequence_length(*COARSE)}, "
        f"{base_flops.total:.0f} FLOPs",
        f"compressed: seq {comp.last_sequence_length} "
        f"(ratio {comp.last_compression_ratio:.1f}x), "
        f"{comp_flops.total:.0f} FLOPs",
    ]
    path = write_table("table2b_measured_compression", lines, golden_rtol=0.0)
    wall = (f"wall clock (not pinned): baseline {t_base * 1e3:.2f} ms, "
            f"compressed {t_comp * 1e3:.2f} ms")
    print(wall)
    with path.open("a") as f:
        f.write(wall + "\n")
