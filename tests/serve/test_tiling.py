"""What ``TilePlan.assemble`` — the reassembly of served cores — refuses.

``assemble`` writes each cropped core straight into the fine field, and
slice assignment broadcasts where ``TilePlan.stitch``'s concatenation
refuses, so the shape and dtype checks are pinned here
(``tests/core/test_tiles.py`` pins the bytes against ``stitch``).
"""

import numpy as np
import pytest

from repro.core.tiles import TilePlan


def _tile_outputs(plan, channels, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(
        (1, channels, s.halo_shape[0] * plan.factor,
         s.halo_shape[1] * plan.factor)).astype(dtype) for s in plan.specs]


class TestAssembleRejects:
    """Anything but one exactly-shaped, same-dtype core per tile."""

    def _cores(self, dtype=np.float32):
        plan = TilePlan.build((8, 16), 4, 2, factor=2)
        outs = _tile_outputs(plan, 3, seed=0, dtype=dtype)
        return plan, [plan.crop_core(o, i) for i, o in enumerate(outs)]

    def test_wrong_count(self):
        plan, cores = self._cores()
        with pytest.raises(ValueError, match="3 cores for 4 tiles"):
            plan.assemble(cores[:3])

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("shape", [
        (1, 3, 1, 1),      # would broadcast over the whole core
        (1, 1, 8, 16),     # would broadcast over channels
        (1, 3, 16, 8),     # transposed core
        (3, 8, 16),        # batch axis dropped
    ])
    def test_mis_shaped_core(self, position, shape):
        plan, cores = self._cores()
        assert cores[position].shape == (1, 3, 8, 16)
        cores[position] = np.zeros(shape, dtype=np.float32)
        with pytest.raises(ValueError, match="core"):
            plan.assemble(cores)

    @pytest.mark.parametrize("position", [0, 3])
    def test_mixed_dtype(self, position):
        plan, cores = self._cores()
        cores[position] = cores[position].astype(np.float64)
        with pytest.raises(ValueError, match="float64"):
            plan.assemble(cores)

    def test_dtype_follows_the_cores(self):
        plan, cores = self._cores(dtype=np.float64)
        assert plan.assemble(cores).dtype == np.float64
