"""Climate-verification diagnostics tests."""

import numpy as np
import pytest

from repro.evals.climate import (
    contingency_table,
    event_skill,
)


class TestContingency:
    def test_counts(self):
        pred = np.array([1.0, 1.0, 0.0, 0.0])
        obs = np.array([1.0, 0.0, 1.0, 0.0])
        t = contingency_table(pred, obs, threshold=0.5)
        assert t == {"hits": 1, "misses": 1, "false_alarms": 1,
                     "correct_negatives": 1}

    def test_shape_check(self):
        with pytest.raises(ValueError):
            contingency_table(np.zeros(3), np.zeros(4), 0.5)


class TestEventSkill:
    def test_perfect_forecast(self):
        obs = np.random.default_rng(0).random(1000)
        s = event_skill(obs, obs, threshold=0.7)
        assert s["pod"] == 1.0 and s["far"] == 0.0 and s["csi"] == 1.0
        assert s["bias"] == pytest.approx(1.0)
        assert s["ets"] == pytest.approx(1.0)

    def test_never_forecast(self):
        obs = np.ones(100)
        pred = np.zeros(100)
        s = event_skill(pred, obs, threshold=0.5)
        assert s["pod"] == 0.0 and s["csi"] == 0.0 and s["bias"] == 0.0

    def test_overforecasting_shows_in_bias_and_far(self):
        rng = np.random.default_rng(1)
        obs = (rng.random(10_000) > 0.9).astype(float)
        pred = (rng.random(10_000) > 0.5).astype(float)  # events everywhere
        s = event_skill(pred, obs, threshold=0.5)
        assert s["bias"] > 2.0
        assert s["far"] > 0.5

    def test_random_forecast_ets_near_zero(self):
        rng = np.random.default_rng(2)
        obs = (rng.random(50_000) > 0.8).astype(float)
        pred = (rng.random(50_000) > 0.8).astype(float)
        s = event_skill(pred, obs, threshold=0.5)
        assert abs(s["ets"]) < 0.02

    def test_degenerate_no_events(self):
        s = event_skill(np.zeros(10), np.zeros(10), threshold=0.5)
        assert s["bias"] == 1.0 and s["pod"] == 0.0
