"""``TilePlan`` geometry against the tiling it transcribes.

``assemble`` writes each cropped core straight into the fine field;
``stitch_tiles`` concatenates columns into rows and rows into a field.
Both are pure copies of the same pixels, so over random geometry —
uneven ``array_split`` boundaries and clamped edge halos included — the
bytes must agree.  Slice assignment broadcasts where concatenation
refuses, so the shape and dtype checks are pinned too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiles import make_tiles, stitch_tiles, tile_grid
from repro.serve import TilePlan
from repro.tensor import Tensor


@st.composite
def _geometry(draw):
    """(h, w, n_tiles, halo, factor): every tile core wider than the
    halo, up to ``rows - 1`` / ``cols - 1`` leftover pixels (uneven)."""
    n_tiles = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    halo = draw(st.integers(0, 3))
    rows, cols = tile_grid(n_tiles)
    h = rows * draw(st.integers(halo + 1, halo + 4)) + draw(
        st.integers(0, rows - 1))
    w = cols * draw(st.integers(halo + 1, halo + 4)) + draw(
        st.integers(0, cols - 1))
    return h, w, n_tiles, halo, draw(st.integers(1, 4))


def _plan(h, w, n_tiles, halo, factor) -> TilePlan:
    specs = tuple(make_tiles(h, w, n_tiles, halo, uneven=True))
    return TilePlan(coarse_shape=(h, w), n_tiles=n_tiles, halo=halo,
                    factor=factor, specs=specs)


def _tile_outputs(plan, channels, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(
        (1, channels, s.halo_shape[0] * plan.factor,
         s.halo_shape[1] * plan.factor)).astype(dtype) for s in plan.specs]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geometry=_geometry(), channels=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_assemble_is_bitwise_stitch_tiles(geometry, channels, seed):
    h, w, n_tiles, halo, factor = geometry
    plan = _plan(*geometry)
    outs = _tile_outputs(plan, channels, seed)
    want = stitch_tiles([Tensor(o) for o in outs], list(plan.specs),
                        factor).data[0]
    got = plan.assemble([plan.crop_core(o, i) for i, o in enumerate(outs)])
    assert got.shape == want.shape == (channels, h * factor, w * factor)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the per-tile tables precomputed at construction agree with the specs
    for i, s in enumerate(plan.specs):
        assert plan.signature(i) == s.halo_shape
        assert plan.crop(i) == ((s.y0 - s.hy0) * factor,
                                (s.x0 - s.hx0) * factor,
                                s.core_shape[0] * factor,
                                s.core_shape[1] * factor)
        assert plan._geom(i) == ",".join(map(str, plan.crop(i)))
    assert plan.signatures() == {s.halo_shape for s in plan.specs}
    rows, cols = tile_grid(n_tiles)
    if h % rows == 0 and w % cols == 0:
        assert plan == TilePlan.build((h, w), n_tiles, halo, factor)


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
