"""Downscaling accuracy metrics (Sec. IV "Performance Metrics").

Scientific metrics: coefficient of determination (R²), RMSE, and RMSE
restricted to extreme quantiles (σ1 > 68%, σ2 > 95%, σ3 > 99.7% and the
99.99th percentile used for precipitation extremes).  Image metrics: SSIM
(windowed, implemented from scratch per Wang et al. 2004) and PSNR.
Higher R²/SSIM/PSNR and lower RMSE mean higher-fidelity downscaling.
"""

from __future__ import annotations

import numpy as np

# scipy.ndimage is imported inside ``ssim``, its one user: every workload
# pays for ``import repro``, and neither a train step nor a served
# request is scored

__all__ = [
    "r2_score",
    "rmse",
    "quantile_rmse",
    "sigma_quantile_levels",
    "psnr",
    "ssim",
    "evaluate_all",
]

#: the paper's σ-levels: fraction of data *exceeded* by the tail
SIGMA_LEVELS = {"sigma1": 0.68, "sigma2": 0.95, "sigma3": 0.997}


def _flat(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return pred.reshape(-1), target.reshape(-1)


def r2_score(pred: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination: 1 - SS_res / SS_tot."""
    p, t = _flat(pred, target)
    ss_res = np.sum((t - p) ** 2)
    ss_tot = np.sum((t - t.mean()) ** 2)
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else -np.inf
    return float(1.0 - ss_res / ss_tot)


def rmse(pred: np.ndarray, target: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Root-mean-square error, optionally latitude-weighted."""
    p, t = _flat(pred, target)
    sq = (p - t) ** 2
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.shape != sq.shape:
            raise ValueError(f"weights shape {w.shape} != data {sq.shape}")
        return float(np.sqrt(np.average(sq, weights=w)))
    return float(np.sqrt(sq.mean()))


def sigma_quantile_levels() -> dict[str, float]:
    return dict(SIGMA_LEVELS)


def quantile_rmse(pred: np.ndarray, target: np.ndarray, quantile: float) -> float:
    """RMSE over the pixels where the *target* exceeds its ``quantile``.

    This is the paper's "RMSE σk > q%" metric: errors on extremes only —
    the hardest and most consequential part of the distribution.
    """
    if not 0.0 <= quantile < 1.0:
        raise ValueError(f"quantile must be in [0, 1), got {quantile}")
    p, t = _flat(pred, target)
    threshold = np.quantile(t, quantile)
    mask = t > threshold
    if not np.any(mask):
        mask = t >= threshold  # degenerate distributions (all-equal targets)
    return float(np.sqrt(((p[mask] - t[mask]) ** 2).mean()))


def psnr(pred: np.ndarray, target: np.ndarray, data_range: float | None = None) -> float:
    """Peak signal-to-noise ratio in dB; infinite for a perfect match."""
    p, t = _flat(pred, target)
    mse = ((p - t) ** 2).mean()
    if mse == 0:
        return float("inf")
    if data_range is None:
        data_range = float(t.max() - t.min())
        if data_range == 0:
            data_range = 1.0
    return float(10.0 * np.log10(data_range**2 / mse))


def ssim(pred: np.ndarray, target: np.ndarray, window: int = 7,
         data_range: float | None = None, k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean structural similarity over a uniform window.

    2-D inputs only (per-variable fields); multi-channel callers average
    per channel.  Uses uniform filtering for local means/variances, the
    common "fast SSIM" variant.
    """
    from scipy import ndimage
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim != 2 or pred.shape != target.shape:
        raise ValueError("ssim expects two equal-shape 2-D fields")
    if min(pred.shape) < window:
        raise ValueError(f"fields smaller than window {window}")
    if data_range is None:
        data_range = float(target.max() - target.min()) or 1.0
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2

    def f(x):
        return ndimage.uniform_filter(x, size=window, mode="reflect")

    mu_p, mu_t = f(pred), f(target)
    sigma_p = f(pred * pred) - mu_p**2
    sigma_t = f(target * target) - mu_t**2
    sigma_pt = f(pred * target) - mu_p * mu_t
    num = (2 * mu_p * mu_t + c1) * (2 * sigma_pt + c2)
    den = (mu_p**2 + mu_t**2 + c1) * (sigma_p + sigma_t + c2)
    return float((num / den).mean())


def evaluate_all(pred: np.ndarray, target: np.ndarray,
                 extra_quantiles: tuple[float, ...] = ()) -> dict[str, float]:
    """The full Table-IV metric row for one 2-D field.

    Returns R², RMSE, the three σ-quantile RMSEs, SSIM, PSNR, plus any
    ``extra_quantiles`` (e.g. 0.9999 for precipitation extremes) keyed as
    ``rmse_q<percent>``.
    """
    out = {
        "r2": r2_score(pred, target),
        "rmse": rmse(pred, target),
        "rmse_sigma1": quantile_rmse(pred, target, SIGMA_LEVELS["sigma1"]),
        "rmse_sigma2": quantile_rmse(pred, target, SIGMA_LEVELS["sigma2"]),
        "rmse_sigma3": quantile_rmse(pred, target, SIGMA_LEVELS["sigma3"]),
        "ssim": ssim(pred, target),
        "psnr": psnr(pred, target),
    }
    for q in extra_quantiles:
        out[f"rmse_q{q * 100:g}"] = quantile_rmse(pred, target, q)
    return out
