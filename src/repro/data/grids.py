"""Lat/lon grids, resolution accounting, and coarsening operators.

The paper's resolutions map to equirectangular global grids: a grid of
``W`` longitude points spans the 40,075 km equator, so

    resolution_km ≈ 40075 / W

which reproduces the paper's numbers exactly: [32, 64] → 622 km,
[128, 256] → 156 km, [720, 1440] → 28 km, [2880, 5760] → 7 km, and
[21600, 43200] → 0.9 km (Table I / Table III).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "EARTH_CIRCUMFERENCE_KM", "latitude_weights", "coarsen"]

EARTH_CIRCUMFERENCE_KM = 40075.017


@dataclass(frozen=True)
class Grid:
    """An equirectangular lat/lon grid.

    Attributes
    ----------
    n_lat, n_lon:
        Grid dimensions.  Global grids use ``n_lon == 2 * n_lat``.
    lat_min, lat_max, lon_min, lon_max:
        Domain bounds in degrees.  Defaults cover the globe.
    """

    n_lat: int
    n_lon: int
    lat_min: float = -90.0
    lat_max: float = 90.0
    lon_min: float = 0.0
    lon_max: float = 360.0

    def __post_init__(self):
        if self.n_lat <= 0 or self.n_lon <= 0:
            raise ValueError(f"grid dims must be positive, got {(self.n_lat, self.n_lon)}")
        if self.lat_max <= self.lat_min or self.lon_max <= self.lon_min:
            raise ValueError("degenerate domain bounds")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_lat, self.n_lon)

    @property
    def is_global(self) -> bool:
        return (
            abs(self.lat_max - self.lat_min - 180.0) < 1e-9
            and abs(self.lon_max - self.lon_min - 360.0) < 1e-9
        )

    @property
    def resolution_km(self) -> float:
        """Nominal resolution at the equator (global) or domain midlatitude."""
        frac_lon = (self.lon_max - self.lon_min) / 360.0
        km_per_cell_eq = EARTH_CIRCUMFERENCE_KM * frac_lon / self.n_lon
        if self.is_global:
            return km_per_cell_eq
        mid_lat = np.deg2rad(0.5 * (self.lat_min + self.lat_max))
        return km_per_cell_eq * float(np.cos(mid_lat))

    def latitudes(self) -> np.ndarray:
        """Cell-center latitudes (degrees), pole-to-pole descending excluded."""
        edges = np.linspace(self.lat_min, self.lat_max, self.n_lat + 1)
        return ((edges[:-1] + edges[1:]) / 2).astype(np.float64)

    def coarsen(self, factor: int) -> "Grid":
        """The grid obtained by block-averaging ``factor x factor`` cells."""
        if self.n_lat % factor or self.n_lon % factor:
            raise ValueError(f"grid {self.shape} not divisible by factor {factor}")
        return Grid(self.n_lat // factor, self.n_lon // factor,
                    self.lat_min, self.lat_max, self.lon_min, self.lon_max)


def latitude_weights(grid: Grid) -> np.ndarray:
    """cos(latitude) weights normalized to mean 1 — the D matrix diagonal.

    The Bayesian data term uses a latitude-weighted MSE to account for the
    shrinking longitudinal spacing toward the poles (Sec. III-A).
    """
    w = np.cos(np.deg2rad(grid.latitudes()))
    w = np.clip(w, 1e-4, None)
    w = w / w.mean()
    return w.astype(np.float32)[:, None] * np.ones((1, grid.n_lon), dtype=np.float32)


def coarsen(field: np.ndarray, factor: int) -> np.ndarray:
    """Block-average the trailing two (H, W) axes by ``factor``.

    Works on any leading shape, e.g. (C, H, W) or (T, C, H, W); this is
    the forward (fine → coarse) observation operator of the downscaling
    inverse problem.
    """
    *lead, h, w = field.shape
    if h % factor or w % factor:
        raise ValueError(f"field {field.shape} not divisible by factor {factor}")
    view = field.reshape(*lead, h // factor, factor, w // factor, factor)
    return view.mean(axis=(-3, -1))
