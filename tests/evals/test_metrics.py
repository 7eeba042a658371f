"""Metric correctness tests against analytic cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evals import (
    SIGMA_LEVELS,
    evaluate_all,
    psnr,
    quantile_rmse,
    r2_score,
    rmse,
    ssim,
)

RNG = np.random.default_rng(21)


class TestR2:
    def test_perfect_prediction(self):
        t = RNG.standard_normal((16, 16))
        assert r2_score(t, t) == pytest.approx(1.0)

    def test_mean_prediction_is_zero(self):
        t = RNG.standard_normal(1000)
        p = np.full_like(t, t.mean())
        assert r2_score(p, t) == pytest.approx(0.0, abs=1e-10)

    def test_bad_prediction_negative(self):
        t = RNG.standard_normal(1000)
        assert r2_score(-5 * t, t) < 0

    def test_constant_target_edge_case(self):
        t = np.ones(10)
        assert r2_score(t, t) == 1.0
        assert r2_score(t + 1, t) == -np.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.zeros(3), np.zeros(4))


class TestRmse:
    def test_known_value(self):
        assert rmse(np.array([1.0, 3.0]), np.array([0.0, 0.0])) == pytest.approx(np.sqrt(5))

    def test_weighted(self):
        p = np.array([1.0, 0.0])
        t = np.array([0.0, 0.0])
        # all weight on the wrong pixel
        assert rmse(p, t, weights=np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert rmse(p, t, weights=np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_weight_shape_check(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(4), np.zeros(4), weights=np.zeros(3))

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_property_scales_linearly(self, c):
        p = RNG.standard_normal(100)
        t = np.zeros(100)
        assert rmse(c * p, t) == pytest.approx(c * rmse(p, t), rel=1e-9)


class TestQuantileRmse:
    def test_targets_only_tail(self):
        t = np.concatenate([np.zeros(95), np.full(5, 10.0)])
        p = t.copy()
        p[:95] += 100.0  # wreck the bulk, keep the tail perfect
        assert quantile_rmse(p, t, 0.95) == pytest.approx(0.0)

    def test_sigma_levels_match_paper(self):
        assert SIGMA_LEVELS == {"sigma1": 0.68, "sigma2": 0.95, "sigma3": 0.997}

    def test_monotone_difficulty_for_heteroscedastic_error(self):
        # error grows with target magnitude → tail RMSE above bulk RMSE
        t = np.sort(RNG.gamma(2.0, 2.0, 20000))
        p = t + RNG.standard_normal(20000) * (0.1 + 0.1 * t)
        assert quantile_rmse(p, t, 0.997) > quantile_rmse(p, t, 0.68) > 0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            quantile_rmse(np.zeros(3), np.zeros(3), 1.0)

    def test_degenerate_all_equal_targets(self):
        t = np.ones(10)
        assert quantile_rmse(t + 1.0, t, 0.95) == pytest.approx(1.0)


class TestPsnr:
    def test_perfect_is_infinite(self):
        t = RNG.standard_normal((8, 8))
        assert psnr(t, t) == np.inf

    def test_known_value(self):
        t = np.zeros(100)
        p = np.full(100, 0.1)
        # data_range=1 → psnr = 10*log10(1/0.01) = 20
        assert psnr(p, t, data_range=1.0) == pytest.approx(20.0)

    def test_higher_noise_lower_psnr(self):
        t = RNG.standard_normal((32, 32))
        small = psnr(t + 0.01 * RNG.standard_normal(t.shape), t)
        large = psnr(t + 0.5 * RNG.standard_normal(t.shape), t)
        assert small > large


class TestSsim:
    def test_identity_is_one(self):
        t = RNG.standard_normal((32, 32))
        assert ssim(t, t) == pytest.approx(1.0, abs=1e-9)

    def test_noise_reduces_ssim(self):
        t = RNG.standard_normal((64, 64))
        noisy = ssim(t + RNG.standard_normal(t.shape), t)
        assert noisy < 0.9

    def test_bounded(self):
        t = RNG.standard_normal((32, 32))
        p = RNG.standard_normal((32, 32))
        assert -1.0 <= ssim(p, t) <= 1.0

    def test_blur_detected(self):
        from scipy import ndimage
        t = RNG.standard_normal((64, 64))
        blurred = ndimage.gaussian_filter(t, 2.0)
        mild = ndimage.gaussian_filter(t, 0.5)
        assert ssim(mild, t) > ssim(blurred, t)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)))
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=7)


class TestEvaluateAll:
    def test_full_metric_row(self):
        t = RNG.standard_normal((32, 32))
        p = t + 0.1 * RNG.standard_normal((32, 32))
        row = evaluate_all(p, t, extra_quantiles=(0.9999,))
        expected_keys = {"r2", "rmse", "rmse_sigma1", "rmse_sigma2", "rmse_sigma3",
                         "ssim", "psnr", "rmse_q99.99"}
        assert set(row) == expected_keys
        assert 0.9 < row["r2"] <= 1.0
