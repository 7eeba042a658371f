"""Canny edge-detector tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import canny_edges, edge_density, gaussian_blur, sobel_gradients


def _step_image(h=32, w=32):
    """Left half 0, right half 1 → one clean vertical edge."""
    img = np.zeros((h, w))
    img[:, w // 2 :] = 1.0
    return img


class TestPipelineStages:
    def test_blur_reduces_variance(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((64, 64))
        assert gaussian_blur(img, 2.0).std() < img.std()

    def test_sobel_direction_on_vertical_edge(self):
        mag, direction = sobel_gradients(_step_image())
        col = _step_image().shape[1] // 2
        # gradient points along +x at the edge → direction ≈ 0
        edge_dirs = direction[5:-5, col - 1 : col + 1]
        assert np.abs(np.cos(edge_dirs)).mean() > 0.9

    def test_sobel_zero_on_constant(self):
        mag, _ = sobel_gradients(np.full((16, 16), 3.0))
        np.testing.assert_allclose(mag, 0.0, atol=1e-10)


class TestCanny:
    def test_detects_step_edge(self):
        edges = canny_edges(_step_image())
        h, w = edges.shape
        near_edge = edges[:, w // 2 - 2 : w // 2 + 2]
        assert near_edge.any()

    def test_edge_is_thin(self):
        edges = canny_edges(_step_image(), sigma=1.0)
        # per row, the detected edge should be at most a few pixels wide
        widths = edges[4:-4].sum(axis=1)
        assert widths.max() <= 3

    def test_no_edges_in_constant_field(self):
        edges = canny_edges(np.full((32, 32), 7.0))
        assert not edges.any()

    def test_contrast_invariance(self):
        # power-of-two scaling is exact in floating point, so the edge map
        # must be bit-identical (thresholds are relative to the peak)
        a = canny_edges(_step_image())
        b = canny_edges(_step_image() * 1024.0)
        np.testing.assert_array_equal(a, b)

    def test_edges_localized_at_step(self):
        edges = canny_edges(_step_image(64, 64))
        cols = np.argwhere(edges)[:, 1]
        assert len(cols) > 0
        assert np.all(np.abs(cols - 31.5) <= 2.5)

    def test_hysteresis_keeps_connected_weak_pixels(self):
        # an edge whose contrast fades smoothly from strong to weak stays
        # one connected component → hysteresis keeps the faint end
        img = np.zeros((32, 64))
        fade = np.linspace(1.0, 0.3, 32)[:, None]
        img[:, 32:] = fade
        strong_only = canny_edges(img, low_frac=0.69, high_frac=0.7)
        with_hysteresis = canny_edges(img, low_frac=0.05, high_frac=0.7)
        faint_rows = slice(26, 32)
        assert with_hysteresis[faint_rows, 30:34].any()
        assert with_hysteresis.sum() > strong_only.sum()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            canny_edges(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            canny_edges(np.zeros((8, 8)), low_frac=0.5, high_frac=0.2)

    def test_noise_suppressed_by_blur(self):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((64, 64)) * 0.05
        img = _step_image(64, 64) + noise
        sharp_sigma = canny_edges(img, sigma=2.0)
        # edge still found, and not everything is an edge
        assert sharp_sigma.any()
        assert edge_density(sharp_sigma) < 0.2


class TestEdgeDensity:
    def test_values(self):
        assert edge_density(np.zeros((4, 4), dtype=bool)) == 0.0
        assert edge_density(np.ones((4, 4), dtype=bool)) == 1.0
        assert edge_density(np.array([])) == 0.0


_NO_SCIPY = "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
_TRAIN_AND_SERVE = """
import sys
import numpy as np
import repro
from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.serve import BatchPolicy, DownscalingService, Request, TileCache
from repro.train import TrainConfig, Trainer

tiny = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
spec = DatasetSpec(name="t", fine_grid=Grid(16, 32), factor=4, years=(2000,),
                   samples_per_year=2, seed=3, output_channels=(17, 18, 19))
ds = DownscalingDataset(spec, years=(2000,))
trainer = Trainer(Reslim(tiny, 23, 3, factor=4, max_tokens=64,
                         rng=np.random.default_rng(0)),
                  ds, TrainConfig(epochs=1, batch_size=2))
assert np.isfinite(trainer.train_step(next(iter(ds.batches(2)))))

model = Reslim(tiny, 5, 2, factor=2, max_tokens=128, rng=np.random.default_rng(0))
model.eval()
service = DownscalingService(
    model, n_replicas=1, policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
    cache=TileCache(8), compile=True, n_tiles=4, halo=2, coarse_shape=(8, 16),
    tile_serving=True)
x = np.random.default_rng(1).standard_normal((5, 8, 16)).astype(np.float32)
(resp,) = service.run([Request(rid=0, arrival_s=0.0, sample=0, input=x)]).responses
assert resp.output.shape == (2, 16, 32) and np.isfinite(resp.output).all()
"""


def test_no_workload_imports_scipy():
    """``gelu`` is pure NumPy since kernel epoch 3, so importing ``repro``,
    a train step and an executed tiled request load no ``scipy`` module
    at all (28 MB and ~0.3 s of every process).  Its users import it when
    called: the Canny density, ``ssim``, the fuzzer's float64 references."""
    code = (_TRAIN_AND_SERVE + _NO_SCIPY +
            "from repro.evals import ssim\n"
            "from repro.testing import fuzz_ops\n"
            "repro.core.canny_edges(np.eye(8))\n"
            "ssim(np.eye(8), np.eye(8))\n"
            "assert 'scipy.ndimage' in sys.modules\n"
            "assert fuzz_ops(n_samples=10, seed=3, ops=['gelu']).ok\n"
            "assert 'scipy.special' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   timeout=120)
