"""Per-variable normalization, bias correction, and precip transforms.

The downscaling architecture (Fig. 1) normalizes and bias-corrects every
input channel before training.  Statistics are estimated once from a
sample of the training split and frozen — the same contract as the real
pipeline's precomputed climatology files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ChannelNormalizer", "log1p_precip", "expm1_precip", "quantile_bias_correct"]


class ChannelNormalizer:
    """Z-score normalization per channel with frozen statistics."""

    def __init__(self, mean: np.ndarray, std: np.ndarray):
        mean = np.asarray(mean, dtype=np.float32)
        std = np.asarray(std, dtype=np.float32)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be equal-length 1-D arrays")
        if np.any(std <= 0):
            raise ValueError("std must be strictly positive")
        self.mean = mean
        self.std = std

    @classmethod
    def fit(cls, samples: np.ndarray) -> "ChannelNormalizer":
        """Estimate stats from an array shaped (N, C, H, W) or (C, H, W)."""
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr[None]
        if arr.ndim != 4:
            raise ValueError(f"expected (N, C, H, W), got {arr.shape}")
        mean = arr.mean(axis=(0, 2, 3))
        std = arr.std(axis=(0, 2, 3))
        std = np.where(std < 1e-6, 1.0, std)
        return cls(mean.astype(np.float32), std.astype(np.float32))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        """(.., C, H, W) → float32 z-scores; broadcasts over leading axes.
        The arithmetic allocates the result (here and in ``denormalize``),
        so it never aliases ``x`` and float32 needs no second copy."""
        self._check(x)
        return ((x - self.mean[:, None, None])
                / self.std[:, None, None]).astype(np.float32, copy=False)

    def denormalize(self, z: np.ndarray) -> np.ndarray:
        self._check(z)
        out = z * self.std[:, None, None]   # the one allocation
        np.add(out, self.mean[:, None, None], out=out)
        return out.astype(np.float32, copy=False)

    def _check(self, x: np.ndarray) -> None:
        if x.shape[-3] != self.mean.shape[0]:
            raise ValueError(f"channel dim {x.shape[-3]} != fitted {self.mean.shape[0]}")


def log1p_precip(x: np.ndarray) -> np.ndarray:
    """log(x + 1) transform used for all precipitation RMSEs (Sec. V-E)."""
    return np.log1p(np.maximum(x, 0.0))


def expm1_precip(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`log1p_precip`."""
    return np.expm1(x)


def quantile_bias_correct(field: np.ndarray, reference: np.ndarray,
                          n_quantiles: int = 100) -> np.ndarray:
    """Empirical quantile mapping of ``field`` onto ``reference``'s CDF.

    The standard statistical bias-correction used when fusing data sources
    with different climatologies (e.g. ERA5 with DAYMET at 28 km before
    fine-tuning).  Monotone, shape-preserving.
    """
    qs = np.linspace(0, 1, n_quantiles)
    src_q = np.quantile(field, qs)
    ref_q = np.quantile(reference, qs)
    flat = np.interp(field.reshape(-1), src_q, ref_q)
    return flat.reshape(field.shape).astype(np.float32)
