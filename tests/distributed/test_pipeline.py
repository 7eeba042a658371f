"""Pipeline schedule-algebra tests (the closed forms the parallelism
ablation prices its modeled Pipeline row with)."""

import pytest

from repro.distributed import pipeline_activation_traffic, pipeline_bubble_fraction


class TestBubbleAlgebra:
    @pytest.mark.parametrize("P,M,expected", [(4, 4, 3 / 7), (4, 16, 3 / 19), (1, 8, 0.0)])
    def test_bubble_fraction(self, P, M, expected):
        assert pipeline_bubble_fraction(P, M) == pytest.approx(expected)

    def test_more_microbatches_shrink_bubble(self):
        bubbles = [pipeline_bubble_fraction(8, m) for m in (1, 8, 64, 512)]
        assert bubbles == sorted(bubbles, reverse=True)
        assert bubbles[-1] < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            pipeline_bubble_fraction(0, 4)


class TestTradeoff:
    def test_activation_traffic_scales_with_stages_and_microbatches(self):
        base = pipeline_activation_traffic(1000, 4, 8)
        assert pipeline_activation_traffic(1000, 8, 8) > base
        assert pipeline_activation_traffic(1000, 4, 16) > base
