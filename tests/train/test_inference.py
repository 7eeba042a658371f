"""Inference-runner and evaluation tests."""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import (
    ChannelNormalizer,
    DatasetSpec,
    DownscalingDataset,
    Grid,
    imerg_like_observation,
)
from repro.train import evaluate_downscaling, global_inference, predict_dataset

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _dataset(years=(2000,)):
    spec = DatasetSpec(name="t", fine_grid=Grid(16, 32), factor=4, years=years,
                       samples_per_year=2, seed=3, output_channels=(17, 18, 19))
    ds = DownscalingDataset(spec, years=years)
    ds.fit_normalizer()
    return ds


def _model():
    return Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                  rng=np.random.default_rng(0))


class TestPredictDataset:
    def test_shapes(self):
        preds, targets = predict_dataset(_model(), _dataset())
        assert preds.shape == targets.shape == (2, 3, 16, 32)

    def test_tiled_matches_untiled_with_halo(self):
        model = _model()
        ds = _dataset()
        plain, _ = predict_dataset(model, ds)
        tiled, _ = predict_dataset(model, ds, n_tiles=1)
        np.testing.assert_allclose(plain, tiled)

    def test_tiled_runs(self):
        preds, _ = predict_dataset(_model(), _dataset(), n_tiles=2, halo=2)
        assert preds.shape == (2, 3, 16, 32)


class TestInferenceValidation:
    """``build_inference_runner`` fails fast, before any forward pass."""

    def test_n_tiles_and_halo_ranges(self):
        from repro.train import build_inference_runner
        with pytest.raises(ValueError, match="n_tiles"):
            build_inference_runner(_model(), n_tiles=0)
        with pytest.raises(ValueError, match="halo"):
            build_inference_runner(_model(), n_tiles=2, halo=-1)

    @pytest.mark.parametrize("bad", [0, -4, 2.5, "4", True])
    def test_explicit_factor_must_be_positive_int(self, bad):
        with pytest.raises(ValueError, match="factor must be a positive"):
            predict_dataset(_model(), _dataset(), factor=bad)

    def test_factor_required_for_tiled_inference(self):
        from repro.train import build_inference_runner

        class NoFactor:
            def eval(self):
                return self

        with pytest.raises(ValueError, match="factor required for tiled"):
            build_inference_runner(NoFactor(), n_tiles=2)

    def test_factor_resolved_from_model_attribute(self):
        from repro.core import TiledDownscaler
        from repro.train import build_inference_runner
        runner = build_inference_runner(_model(), n_tiles=2, halo=1)
        assert isinstance(runner, TiledDownscaler)
        assert runner.factor == 4

    def test_untiled_passthrough_returns_model(self):
        from repro.train import build_inference_runner
        model = _model()
        assert build_inference_runner(model) is model

    def test_halo_too_large_raises_before_any_forward(self):
        # dataset coarse grid is 4x8; n_tiles=2 splits the 8-wide axis
        # into 4-wide cores, so halo=4 cannot fit
        with pytest.raises(ValueError, match="halo.*does not fit the tile extent"):
            predict_dataset(_model(), _dataset(), n_tiles=2, halo=4)

    def test_non_divisible_grid_raises_up_front(self):
        with pytest.raises(ValueError, match="divisible|divide"):
            predict_dataset(_model(), _dataset(), n_tiles=3)

    def test_tile_shape_off_the_patch_grid_refused_at_construction(self):
        # 2 x 2 tiles of an (8, 16) grid with halo 1 are (5, 9): a
        # patch-2 model cannot tokenize them, so no request could succeed
        from repro.core.tiles import TileShapeError
        from repro.serve import DownscalingService
        from repro.train import build_inference_runner
        model = Reslim(TINY, 23, 3, factor=2, max_tokens=64,
                       rng=np.random.default_rng(0))
        for tile_serving in (False, True):
            with pytest.raises(TileShapeError, match=r"tile shape \(5, 9\)"):
                DownscalingService(model, n_tiles=4, halo=1, factor=2,
                                   coarse_shape=(8, 16), tile_serving=tile_serving)
        with pytest.raises(TileShapeError, match=r"tile shape \(5, 9\)"):
            build_inference_runner(model, n_tiles=4, halo=1, coarse_shape=(8, 16))
        build_inference_runner(model, n_tiles=4, halo=2, coarse_shape=(8, 16))

    @pytest.mark.parametrize("fine_grid_model", ["vit", "swin"])
    def test_tile_off_the_fine_patch_grid_refused_at_construction(
            self, fine_grid_model):
        # 2 x 2 tiles of an (8, 16) grid with halo 1 are (5, 9); at factor
        # 1 a fine-grid patch of 4 (ViT) or 2 x deep stride 2 (Swin)
        # cannot tokenize them, so no request could succeed
        from repro.core import SwinDownscaler, UpsampleViT
        from repro.core.tiles import TileShapeError
        from repro.serve import DownscalingService
        rng = np.random.default_rng(0)
        if fine_grid_model == "vit":
            model = UpsampleViT(ModelConfig("vit", embed_dim=16, depth=1,
                                            num_heads=2, patch_size=4),
                                3, 3, factor=1, max_tokens=64, rng=rng)
        else:
            model = SwinDownscaler(TINY, 3, 3, factor=1, window=2,
                                   n_stages=2, rng=rng)
        with pytest.raises(TileShapeError, match="fine-grid patch size 4"):
            DownscalingService(model, n_tiles=4, halo=1, factor=1,
                               coarse_shape=(8, 16))
        # without a halo the (4, 8) tiles patch by 4
        DownscalingService(model, n_tiles=4, halo=0, factor=1,
                           coarse_shape=(8, 16))

    def test_global_inference_validates_too(self):
        rng = np.random.default_rng(7)
        model = _model()
        coarse = np.abs(rng.standard_normal((23, 4, 8))).astype(np.float32)
        norm = ChannelNormalizer.fit(coarse[None])
        obs = np.abs(rng.standard_normal((16, 32))).astype(np.float32)
        with pytest.raises(ValueError, match="halo.*does not fit the tile extent"):
            global_inference(model, coarse, norm, obs, precip_channel=2,
                             n_tiles=2, halo=4)


class TestEvaluateDownscaling:
    def test_perfect_prediction_metrics(self):
        rng = np.random.default_rng(0)
        fields = rng.standard_normal((3, 2, 16, 16)).astype(np.float32)
        rows = evaluate_downscaling(fields, fields.copy(), ["t2m", "tmin"])
        for row in rows.values():
            assert row["r2"] == pytest.approx(1.0)
            assert row["rmse"] == pytest.approx(0.0, abs=1e-7)
            assert row["ssim"] == pytest.approx(1.0, abs=1e-6)

    def test_precip_gets_log_space_and_extreme_quantile(self):
        rng = np.random.default_rng(1)
        truth = np.abs(rng.standard_normal((2, 1, 16, 16))).astype(np.float32) * 5
        pred = truth * np.float32(1.1)
        rows = evaluate_downscaling(pred, truth, ["total_precipitation"])
        row = rows["total_precipitation"]
        assert "rmse_q99.99" in row
        # log-space RMSE is much smaller than raw-space would be
        raw_rmse = float(np.sqrt(((pred - truth) ** 2).mean()))
        assert row["rmse"] < raw_rmse

    def test_temperature_no_extreme_quantile(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((1, 1, 16, 16))
        rows = evaluate_downscaling(t, t, ["tmin"])
        assert "rmse_q99.99" not in rows["tmin"]

    def test_validation(self):
        with pytest.raises(ValueError):
            evaluate_downscaling(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 4)), ["a"])
        with pytest.raises(ValueError):
            evaluate_downscaling(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 4)), ["a"])


class TestGlobalInference:
    def test_fig8_pipeline_runs_and_scores(self):
        """End-to-end Fig. 8: coarse global input → downscale → compare
        with an IMERG-like degraded observation."""
        rng = np.random.default_rng(5)
        model = _model()
        coarse = np.abs(rng.standard_normal((23, 4, 8))).astype(np.float32)
        norm = ChannelNormalizer.fit(coarse[None])
        truth_precip = np.abs(rng.standard_normal((16, 32))).astype(np.float32) * 3
        obs = imerg_like_observation(truth_precip, rng)
        scores = global_inference(model, coarse, norm, obs, precip_channel=2)
        assert set(scores) == {"r2", "rmse", "ssim", "psnr"}
        assert np.isfinite(scores["rmse"])

    def test_tiled_global_inference(self):
        rng = np.random.default_rng(6)
        model = _model()
        coarse = np.abs(rng.standard_normal((23, 8, 16))).astype(np.float32)
        norm = ChannelNormalizer.fit(coarse[None])
        obs = np.abs(rng.standard_normal((32, 64))).astype(np.float32)
        scores = global_inference(model, coarse, norm, obs, precip_channel=2,
                                  n_tiles=2, halo=2, factor=4)
        assert np.isfinite(scores["r2"])
