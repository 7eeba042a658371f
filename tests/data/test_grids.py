"""Grid geometry, resolution accounting, and coarsening tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Grid, coarsen, latitude_weights


class TestGridResolution:
    """The paper's grid-size ↔ km-resolution correspondences must hold."""

    @pytest.mark.parametrize(
        "shape,km",
        [((32, 64), 622), ((128, 256), 156), ((720, 1440), 28),
         ((2880, 5760), 7), ((21600, 43200), 0.9)],
    )
    def test_paper_resolutions(self, shape, km):
        grid = Grid(*shape)
        assert grid.resolution_km == pytest.approx(km, rel=0.04)

    def test_global_flag(self):
        assert Grid(180, 360).is_global
        assert not Grid(26, 59, 24.0, 50.0, 235.0, 294.0).is_global

    def test_regional_resolution_uses_midlatitude(self):
        conus = Grid(100, 200, 24.0, 50.0, 235.0, 294.0)
        full = Grid(100, 200)
        assert conus.resolution_km < full.resolution_km

    def test_coarsen_rejects_indivisible(self):
        with pytest.raises(ValueError):
            Grid(130, 256).coarsen(4)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError):
            Grid(0, 10)
        with pytest.raises(ValueError):
            Grid(10, 10, lat_min=50, lat_max=20)

    def test_lat_lon_centers(self):
        g = Grid(4, 8)
        lats = g.latitudes()
        assert len(lats) == 4
        assert lats[0] == pytest.approx(-67.5)
        assert lats[-1] == pytest.approx(67.5)


class TestLatitudeWeights:
    def test_shape_and_mean_one(self):
        g = Grid(16, 32)
        w = latitude_weights(g)
        assert w.shape == (16, 32)
        assert w.mean() == pytest.approx(1.0, rel=1e-5)

    def test_poles_downweighted(self):
        w = latitude_weights(Grid(16, 32))
        assert w[0, 0] < w[8, 0]  # pole < equator

    def test_strictly_positive(self):
        assert np.all(latitude_weights(Grid(64, 128)) > 0)


class TestCoarsen:
    def test_constant_preserved(self):
        x = np.full((3, 8, 8), 2.5)
        np.testing.assert_allclose(coarsen(x, 4), 2.5)

    def test_mean_preserved(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 16))
        c = coarsen(x, 4)
        assert c.shape == (2, 4, 4)
        np.testing.assert_allclose(c.mean(), x.mean(), atol=1e-12)

    def test_leading_axes_arbitrary(self):
        x = np.zeros((2, 3, 8, 12))
        assert coarsen(x, 2).shape == (2, 3, 4, 6)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            coarsen(np.zeros((7, 8)), 2)

    @given(st.integers(1, 4).map(lambda k: 2**k))
    @settings(max_examples=10, deadline=None)
    def test_property_block_mean(self, factor):
        rng = np.random.default_rng(factor)
        x = rng.standard_normal((factor * 3, factor * 5))
        c = coarsen(x, factor)
        np.testing.assert_allclose(c[0, 0], x[:factor, :factor].mean(), atol=1e-12)
