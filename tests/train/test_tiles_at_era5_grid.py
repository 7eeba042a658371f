"""TILES at ERA5's 0.25° grid: per-tile memory does not depend on the
global grid (ORBIT-2 Sec. III-B).

A 720 × 1440 field (ERA5's 721 rows, one dropped for divisibility) runs
through the compiled tiled runner in 2 025 tiles of 16 × 32 coarse
pixels with a halo of 2, on the serving-sized model (embed 32, depth 2,
23 → 3 channels, factor 2).  Its compiled plans must hold exactly the
bytes a 128 × 256 run in 64 tiles holds: both grids present the same
few halo-extended tile shapes (interior, clamped edges, corners), and
the plans are what the grid would make grow if anything did.
"""

import gc

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.tensor import Tensor, graph_counters, no_grad
from repro.train import build_inference_runner

CONFIG = ModelConfig("serve", embed_dim=32, depth=2, num_heads=4)
HALO, FACTOR, IN_CH, OUT_CH = 2, 2, 23, 3


def _arena_bytes_added(model, grid, n_tiles) -> int:
    """Compiled-arena bytes a tiled run over ``grid`` leaves live."""
    gc.collect()
    before = graph_counters()["arena_bytes"]
    runner = build_inference_runner(model, n_tiles=n_tiles, halo=HALO,
                                    factor=FACTOR, coarse_shape=grid,
                                    compile=True)
    x = np.random.default_rng(0).standard_normal(
        (1, IN_CH, *grid)).astype(np.float32)
    with no_grad():
        out = runner(Tensor(x))
    assert out.shape == (1, OUT_CH, grid[0] * FACTOR, grid[1] * FACTOR)
    assert np.isfinite(out.data).all()
    del x, out
    gc.collect()
    return graph_counters()["arena_bytes"] - before


@pytest.mark.slow
def test_era5_grid_adds_the_arena_bytes_of_a_small_grid():
    model = Reslim(CONFIG, IN_CH, OUT_CH, factor=FACTOR, max_tokens=512,
                   rng=np.random.default_rng(0))
    model.eval()
    small = _arena_bytes_added(model, (128, 256), 64)
    assert small > 0
    assert _arena_bytes_added(model, (720, 1440), 2025) == small
