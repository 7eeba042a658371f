"""Evaluation metrics and spectral analysis."""

from .metrics import (
    SIGMA_LEVELS,
    evaluate_all,
    psnr,
    quantile_rmse,
    r2_score,
    rmse,
    ssim,
)
from .climate import (
    contingency_table,
    event_skill,
)
from .spectrum import radial_power_spectrum, spectral_fidelity, spectral_slope

__all__ = [
    "r2_score",
    "rmse",
    "quantile_rmse",
    "SIGMA_LEVELS",
    "psnr",
    "ssim",
    "evaluate_all",
    "radial_power_spectrum",
    "spectral_fidelity",
    "spectral_slope",
    "contingency_table",
    "event_skill",
]
