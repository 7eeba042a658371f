"""The continental-US domain and an IMERG-like satellite product for
inference evaluation.

:func:`us_grid` is the CONUS grid of the PRISM/DAYMET tasks of Table I
and ``OBS_VARIABLES`` their reduced variable set.
:func:`imerg_like_observation` degrades a precipitation field with
multiplicative retrieval noise and a detection floor, reproducing the
"both ERA5 and IMERG contain uncertainties, perfect alignment is not
expected" setting of the Fig. 8 global inference experiment.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid
from .variables import STATIC_VARIABLES, SURFACE_VARIABLES, Variable

__all__ = ["us_grid", "OBS_VARIABLES", "imerg_like_observation", "CONUS_BOUNDS"]

#: continental-US bounding box (lat_min, lat_max, lon_min, lon_max)
CONUS_BOUNDS = (24.0, 50.0, 235.0, 294.0)


def us_grid(n_lat: int, n_lon: int) -> Grid:
    """A CONUS-domain grid (used for the PRISM/DAYMET 28 km → 7 km tasks)."""
    lat_min, lat_max, lon_min, lon_max = CONUS_BOUNDS
    return Grid(n_lat, n_lon, lat_min, lat_max, lon_min, lon_max)


#: reduced variable set for observation products: statics + science surface vars
OBS_VARIABLES: tuple[Variable, ...] = STATIC_VARIABLES + (
    SURFACE_VARIABLES[0],  # t2m
    SURFACE_VARIABLES[1],  # tmin
    SURFACE_VARIABLES[2],  # total_precipitation
) + (SURFACE_VARIABLES[4], SURFACE_VARIABLES[5])  # u10, v10 → 7 inputs w/o 3 targets


def imerg_like_observation(truth_precip: np.ndarray, rng: np.random.Generator,
                           noise_std: float = 0.15,
                           detection_floor: float = 0.05) -> np.ndarray:
    """Degrade a truth precipitation field into a satellite-like retrieval.

    Multiplicative log-normal retrieval noise plus a light-rain detection
    floor (values below ``detection_floor`` mm/day are reported as zero),
    the two dominant IMERG error modes.  Evaluating model output against
    this product reproduces the source-inconsistency ceiling of Fig. 8.
    """
    if np.any(truth_precip < 0):
        raise ValueError("precipitation must be non-negative")
    noise = np.exp(rng.normal(0.0, noise_std, size=truth_precip.shape))
    obs = truth_precip * noise
    obs[obs < detection_floor] = 0.0
    return obs.astype(np.float32)
