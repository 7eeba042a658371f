"""Bayesian training objective (Sec. III-A, "Bayesian Training Loss").

Training is posed as MAP estimation:

    argmin_x  || y - x ||_D^2  +  beta * sum_k sum_i sum_{j in C(i)} b_ij |x_ki - x_kj|

The first term is the forward data likelihood — a latitude-weighted MSE
(D = diag(cos φ) accounts for longitudinal spacing shrinking toward the
poles).  The second is a generalized Markov-Random-Field total-variation
prior over each pixel's 8-neighbourhood, with weights b_ij inversely
proportional to the Euclidean inter-pixel distance (1 for the 4 axial
neighbours, 1/√2 for diagonals).  TV promotes local smoothness while
preserving edges and discontinuities — the right prior for fields with
fronts and orographic boundaries.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor

__all__ = ["latitude_weighted_mse", "mrf_tv_prior", "BayesianDownscalingLoss"]

#: 8-neighbourhood offsets with inverse-distance weights b_ij
_NEIGHBOURS = (
    (0, 1, 1.0),
    (1, 0, 1.0),
    (1, 1, 1.0 / np.sqrt(2.0)),
    (1, -1, 1.0 / np.sqrt(2.0)),
)
# Only 4 of the 8 offsets are enumerated: each unordered pair {i, j}
# appears once (the other 4 are the reverses).


def latitude_weighted_mse(pred: Tensor, target: Tensor, lat_weights: np.ndarray) -> Tensor:
    """``mean(D * (y - x)^2)`` over (B, C, H, W) tensors.

    ``lat_weights`` is an (H, W) or (H, 1) array with mean 1 (see
    :func:`repro.data.latitude_weights`).
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    w = np.asarray(lat_weights, dtype=np.float32)
    if w.ndim != 2 or w.shape[0] != pred.shape[-2]:
        raise ValueError(f"weights {w.shape} incompatible with field {pred.shape}")
    diff = pred - target
    return (diff * diff * Tensor(w)).mean()


def _charbonnier_abs(x: Tensor, eps: float) -> Tensor:
    """Smooth |x| ≈ sqrt(x² + ε²) − ε, differentiable at zero."""
    return ((x * x + eps * eps) ** 0.5) - eps


def mrf_tv_prior(pred: Tensor, eps: float = 1e-3) -> Tensor:
    """Mean 8-neighbourhood total variation of an (B, C, H, W) tensor.

    Uses a Charbonnier-smoothed absolute value so the gradient is defined
    everywhere; each neighbour pair is counted once with its
    inverse-distance weight.
    """
    if pred.ndim != 4:
        raise ValueError("expected (B, C, H, W)")
    _, _, h, w = pred.shape
    total: Tensor | None = None
    count = 0.0
    for dy, dx, weight in _NEIGHBOURS:
        if dy >= h or abs(dx) >= w:
            continue
        if dx >= 0:
            a = pred[:, :, dy:, dx:] if dy or dx else pred
            b = pred[:, :, : h - dy, : w - dx] if dy or dx else pred
        else:
            a = pred[:, :, dy:, : w + dx]
            b = pred[:, :, : h - dy, -dx:]
        term = _charbonnier_abs(a - b, eps).mean() * weight
        total = term if total is None else total + term
        count += weight
    if total is None:
        raise ValueError("field too small for any neighbour pair")
    return total * (1.0 / count)


class BayesianDownscalingLoss:
    """The full MAP objective: likelihood + beta * TV prior.

    Parameters
    ----------
    lat_weights:
        Latitude weighting matrix for the data term.
    tv_weight:
        Prior strength beta.  0 disables the prior (pure weighted MSE).
    """

    def __init__(self, lat_weights: np.ndarray, tv_weight: float = 0.05):
        if tv_weight < 0:
            raise ValueError("tv_weight must be non-negative")
        self.lat_weights = np.asarray(lat_weights, dtype=np.float32)
        self.tv_weight = float(tv_weight)

    def __call__(self, pred: Tensor, target: Tensor) -> Tensor:
        loss = latitude_weighted_mse(pred, target, self.lat_weights)
        if self.tv_weight > 0:
            loss = loss + mrf_tv_prior(pred) * self.tv_weight
        return loss

    def components(self, pred: Tensor, target: Tensor) -> dict[str, float]:
        """Diagnostic breakdown (data term, prior term) as floats."""
        data = float(latitude_weighted_mse(pred, target, self.lat_weights).data)
        prior = float(mrf_tv_prior(pred).data) if self.tv_weight > 0 else 0.0
        return {"data": data, "prior": prior, "total": data + self.tv_weight * prior}
