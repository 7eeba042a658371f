"""Tests for the synthetic climate world and the IMERG-like product."""

import numpy as np
import pytest

from repro.data import (
    ClimateWorld,
    Grid,
    INPUT_VARIABLES,
    coarsen,
    gaussian_random_field,
    imerg_like_observation,
    us_grid,
    variable_index,
)


class TestGaussianRandomField:
    def test_standardized(self):
        f = gaussian_random_field((64, 64), 2.5, np.random.default_rng(0))
        assert f.mean() == pytest.approx(0.0, abs=1e-6)
        assert f.std() == pytest.approx(1.0, rel=1e-5)

    def test_deterministic_per_seed(self):
        a = gaussian_random_field((32, 32), 2.0, np.random.default_rng(5))
        b = gaussian_random_field((32, 32), 2.0, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_larger_slope_is_smoother(self):
        rng = np.random.default_rng(1)
        rough = gaussian_random_field((128, 128), 1.0, rng)
        smooth = gaussian_random_field((128, 128), 4.0, np.random.default_rng(1))

        def roughness(f):
            return np.abs(np.diff(f, axis=0)).mean()

        assert roughness(smooth) < roughness(rough)

    def test_periodic_in_longitude(self):
        f = gaussian_random_field((64, 128), 3.0, np.random.default_rng(2))
        # wraparound difference should look like an interior difference
        wrap = np.abs(f[:, 0] - f[:, -1]).mean()
        interior = np.abs(np.diff(f, axis=1)).mean()
        assert wrap < 3 * interior

    def test_nonperiodic_option_shape(self):
        f = gaussian_random_field((16, 32), 2.0, np.random.default_rng(3), periodic_lon=False)
        assert f.shape == (16, 32)


class TestClimateWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return ClimateWorld(Grid(32, 64), seed=7, samples_per_year=4)

    def test_sample_shape_and_dtype(self, world):
        s = world.fine_sample(2000, 0)
        assert s.shape == (23, 32, 64)
        assert s.dtype == np.float32

    def test_deterministic_regeneration(self, world):
        a = world.fine_sample(1999, 2)
        b = world.fine_sample(1999, 2)
        np.testing.assert_array_equal(a, b)

    def test_distinct_samples_differ(self, world):
        a = world.fine_sample(1999, 0)
        b = world.fine_sample(1999, 1)
        t = variable_index("t2m")
        assert not np.allclose(a[t], b[t])

    def test_statics_constant_across_samples(self, world):
        a = world.fine_sample(2000, 0)
        b = world.fine_sample(2001, 3)
        oro = variable_index("orography")
        np.testing.assert_array_equal(a[oro], b[oro])

    def test_same_seed_same_world(self):
        w1 = ClimateWorld(Grid(16, 32), seed=3)
        w2 = ClimateWorld(Grid(16, 32), seed=3)
        np.testing.assert_array_equal(w1.orography, w2.orography)

    def test_orography_cools_temperature(self, world):
        s = world.fine_sample(2005, 1)
        t = s[variable_index("t2m")]
        oro = world.orography
        land = world.land_sea_mask > 0
        if oro[land].max() > 500:
            high = t[(oro > np.quantile(oro[land], 0.9)) & land]
            low = t[(oro <= np.quantile(oro[land], 0.5)) & land]
            assert high.mean() < low.mean()

    def test_precipitation_nonnegative(self, world):
        s = world.fine_sample(2002, 2)
        p = s[variable_index("total_precipitation")]
        assert np.all(p >= 0)

    def test_precipitation_skewed(self, world):
        p = world.fine_sample(2003, 0)[variable_index("total_precipitation")]
        assert np.mean(p) > np.median(p)  # right-skewed

    def test_paired_sample_consistency(self, world):
        coarse, fine = world.paired_sample(2000, 0, factor=4)
        assert coarse.shape == (23, 8, 16)
        assert fine.shape == (18, 32, 64)
        # coarse input is exactly the block average of the full fine state
        full = world.fine_sample(2000, 0)
        np.testing.assert_allclose(coarse, coarsen(full, 4), rtol=1e-5)

    def test_paired_sample_custom_channels(self, world):
        t = variable_index("t2m")
        _, fine = world.paired_sample(2000, 0, factor=4, output_channels=[t])
        assert fine.shape == (1, 32, 64)

    def test_seasonal_cycle_moves_temperature(self):
        world = ClimateWorld(Grid(16, 32), seed=1, samples_per_year=8)
        t = variable_index("t2m")
        # index 2 (peak of sin) vs index 6 (trough) differ systematically
        warm = world.fine_sample(2000, 2)[t].mean()
        cold = world.fine_sample(2000, 6)[t].mean()
        assert warm > cold


class TestImergLike:
    def test_preserves_shape_and_nonnegativity(self):
        rng = np.random.default_rng(0)
        truth = np.abs(rng.standard_normal((32, 64))).astype(np.float32) * 3
        obs = imerg_like_observation(truth, rng)
        assert obs.shape == truth.shape
        assert np.all(obs >= 0)

    def test_detection_floor_zeroes_light_rain(self):
        truth = np.full((8, 8), 0.01, dtype=np.float32)
        obs = imerg_like_observation(truth, np.random.default_rng(0), detection_floor=0.05)
        np.testing.assert_array_equal(obs, 0.0)

    def test_unbiased_in_log_space(self):
        rng = np.random.default_rng(1)
        truth = np.full((200, 200), 5.0, dtype=np.float32)
        obs = imerg_like_observation(truth, rng, noise_std=0.1, detection_floor=0.0)
        assert np.log(obs).mean() == pytest.approx(np.log(5.0), abs=0.01)

    def test_rejects_negative_truth(self):
        with pytest.raises(ValueError):
            imerg_like_observation(np.array([-1.0]), np.random.default_rng(0))
