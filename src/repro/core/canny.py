"""Canny edge detection, implemented from scratch.

The adaptive spatial compression module (Sec. III-A) estimates "feature
density" per quadrant via Canny edge detection; quadrants whose edge
density exceeds a threshold keep being subdivided.  The full classic
pipeline is implemented here on NumPy: Gaussian smoothing → Sobel
gradients → non-maximum suppression → double-threshold hysteresis.
"""

from __future__ import annotations

import numpy as np

# scipy.ndimage is imported inside the functions that use it: every
# workload pays for ``import repro``, and neither a train step nor a
# served request runs the Canny density

__all__ = ["gaussian_blur", "sobel_gradients", "canny_edges", "edge_density"]


def gaussian_blur(image: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """Gaussian smoothing with reflective borders."""
    from scipy import ndimage
    return ndimage.gaussian_filter(np.asarray(image, dtype=np.float64), sigma, mode="reflect")


def sobel_gradients(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(magnitude, direction) of Sobel gradients; direction in radians."""
    from scipy import ndimage
    img = np.asarray(image, dtype=np.float64)
    gx = ndimage.sobel(img, axis=1, mode="reflect")
    gy = ndimage.sobel(img, axis=0, mode="reflect")
    return np.hypot(gx, gy), np.arctan2(gy, gx)


def _non_maximum_suppression(magnitude: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Thin edges to one-pixel width along the gradient direction.

    Vectorised: the direction is quantized to 4 sectors (0°, 45°, 90°,
    135°) and each pixel is compared against its two neighbours along the
    quantized direction via array shifts.
    """
    h, w = magnitude.shape
    angle = np.rad2deg(direction) % 180.0
    sector = np.zeros((h, w), dtype=np.int8)
    sector[(angle >= 22.5) & (angle < 67.5)] = 1    # diagonal /
    sector[(angle >= 67.5) & (angle < 112.5)] = 2   # vertical gradient → horizontal edge
    sector[(angle >= 112.5) & (angle < 157.5)] = 3  # diagonal \

    padded = np.pad(magnitude, 1, mode="constant")

    def shifted(dy, dx):
        return padded[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w]

    neighbours = {
        0: (shifted(0, 1), shifted(0, -1)),
        1: (shifted(-1, 1), shifted(1, -1)),
        2: (shifted(1, 0), shifted(-1, 0)),
        3: (shifted(-1, -1), shifted(1, 1)),
    }
    keep = np.zeros((h, w), dtype=bool)
    for s, (n1, n2) in neighbours.items():
        sel = sector == s
        keep |= sel & (magnitude >= n1) & (magnitude >= n2)
    return np.where(keep, magnitude, 0.0)


def canny_edges(image: np.ndarray, sigma: float = 1.0,
                low_frac: float = 0.1, high_frac: float = 0.25) -> np.ndarray:
    """Boolean edge map via the full Canny pipeline.

    Thresholds are fractions of the post-NMS maximum magnitude, making the
    detector contrast-invariant — important because normalized climate
    fields vary widely in dynamic range.
    """
    from scipy import ndimage
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("canny expects a 2-D field")
    if not 0 <= low_frac < high_frac <= 1:
        raise ValueError("need 0 <= low_frac < high_frac <= 1")
    blurred = gaussian_blur(image, sigma)
    magnitude, direction = sobel_gradients(blurred)
    thin = _non_maximum_suppression(magnitude, direction)
    peak = thin.max()
    if peak == 0:
        return np.zeros(image.shape, dtype=bool)
    strong = thin >= high_frac * peak
    weak = thin >= low_frac * peak
    # hysteresis: keep weak pixels connected to a strong pixel
    labels, n = ndimage.label(weak, structure=np.ones((3, 3)))
    if n == 0:
        return strong
    has_strong = ndimage.labeled_comprehension(
        strong, labels, np.arange(1, n + 1), np.any, bool, False
    )
    keep_label = np.zeros(n + 1, dtype=bool)
    keep_label[1:] = has_strong
    return keep_label[labels]


def edge_density(edges: np.ndarray) -> float:
    """Fraction of edge pixels — the quad-tree subdivision criterion."""
    edges = np.asarray(edges)
    if edges.size == 0:
        return 0.0
    return float(edges.mean())
