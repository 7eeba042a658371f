"""Synthetic climate-field generator (the ERA5 substitute).

Real reanalysis archives are unavailable offline, so we synthesize
spatially correlated multi-variable fields with the statistical features
that make downscaling a meaningful learning problem:

* power-law spatial spectra per variable (temperature smoother than
  precipitation), generated as spectrally shaped Gaussian random fields;
* cross-variable physical coupling — temperature follows a meridional
  gradient plus an orographic lapse-rate term, precipitation is a
  positive, skewed (log-normal) transform with orographic enhancement;
* temporal structure — a seasonal cycle and an AR(1) weather component,
  so samples drawn from different "years" are statistically exchangeable
  (valid train/val/test splits by year, as in the paper).

A :class:`ClimateWorld` owns the static fields (orography, land-sea mask)
at the finest resolution; paired coarse→fine samples are produced by
block-averaging the fine truth, which is exactly the ill-posed inverse
problem ORBIT-2 solves.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, coarsen
from .variables import INPUT_VARIABLES, Variable

__all__ = ["gaussian_random_field", "ClimateWorld", "LAPSE_RATE_K_PER_M"]

LAPSE_RATE_K_PER_M = 6.5e-3  # standard atmosphere lapse rate


def gaussian_random_field(
    shape: tuple[int, int],
    slope: float,
    rng: np.random.Generator,
    periodic_lon: bool = True,
) -> np.ndarray:
    """A zero-mean, unit-variance GRF with isotropic spectrum k^-slope.

    Sampled in Fourier space: white noise shaped by ``k^(-slope/2)``
    amplitude, inverse FFT, then standardized.  ``periodic_lon`` keeps the
    field continuous across the dateline (global grids).
    """
    h, w = shape
    ky = np.fft.fftfreq(h)[:, None]
    kx = np.fft.fftfreq(w)[None, :]
    k = np.sqrt(ky * ky + kx * kx)
    k[0, 0] = 1.0  # avoid div-by-zero at the mean mode
    amplitude = k ** (-slope / 2.0)
    amplitude[0, 0] = 0.0  # zero mean
    noise = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    field = np.real(np.fft.ifft2(noise * amplitude))
    if not periodic_lon:
        # break the artificial periodicity by windowing a larger field
        pad = max(2, w // 8)
        big = gaussian_random_field((h, w + 2 * pad), slope, rng, periodic_lon=True)
        field = big[:, pad:-pad]
    std = field.std()
    if std < 1e-12:
        return np.zeros(shape, dtype=np.float32)
    return ((field - field.mean()) / std).astype(np.float32)


class ClimateWorld:
    """A self-consistent synthetic planet at a fixed fine resolution.

    Parameters
    ----------
    fine_grid:
        The finest (ground-truth) grid.
    variables:
        The variable catalog; defaults to the paper's 23-variable set.
    seed:
        World seed.  Two worlds with the same seed are identical.
    samples_per_year:
        Temporal samples per synthetic year (the paper uses hourly ERA5;
        we default to a small count so tests stay fast).
    """

    def __init__(
        self,
        fine_grid: Grid,
        variables: tuple[Variable, ...] = INPUT_VARIABLES,
        seed: int = 0,
        samples_per_year: int = 8,
    ):
        self.fine_grid = fine_grid
        self.variables = tuple(variables)
        self.seed = seed
        self.samples_per_year = int(samples_per_year)
        rng = np.random.default_rng(seed)

        h, w = fine_grid.shape
        # --- static fields shared by all samples -------------------------
        oro = gaussian_random_field((h, w), 2.2, rng)
        self.orography = np.maximum(oro, 0.0) * 1500.0  # meters; oceans at 0
        lsm_raw = gaussian_random_field((h, w), 3.0, rng)
        self.land_sea_mask = (lsm_raw > 0.0).astype(np.float32)
        self.orography *= self.land_sea_mask
        self._static_extra = {
            "soil_type": np.abs(gaussian_random_field((h, w), 2.5, rng)) * 3.0,
            "lake_cover": np.clip(gaussian_random_field((h, w), 2.8, rng) * 0.3, 0, 1),
            "albedo": np.clip(0.2 + gaussian_random_field((h, w), 2.6, rng) * 0.15, 0.02, 0.9),
        }
        lat = fine_grid.latitudes()
        self._meridional = np.cos(np.deg2rad(lat)).astype(np.float32)[:, None]
        # per-variable mean "climate" patterns, fixed for the world
        self._patterns = {
            v.name: gaussian_random_field((h, w), v.spectral_slope, rng)
            for v in self.variables
            if v.kind != "static"
        }

    # ------------------------------------------------------------------ #
    def static_field(self, name: str) -> np.ndarray:
        if name == "orography":
            return self.orography
        if name == "land_sea_mask":
            return self.land_sea_mask
        return self._static_extra[name]

    def _sample_rng(self, year: int, index: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, year, index))

    def fine_sample(self, year: int, index: int) -> np.ndarray:
        """The ground-truth fine-resolution state, shape (V, H, W), float32.

        Deterministic in (world seed, year, index): the same sample can be
        regenerated on any rank without storing terabytes, standing in for
        the data-loader + filesystem of the real pipeline.  The world keeps
        nothing — every call regenerates; :class:`DownscalingDataset` is
        the layer that keeps a split's pairs resident once generated.
        """
        rng = self._sample_rng(year, index)
        h, w = self.fine_grid.shape
        season = 2 * np.pi * (index / max(self.samples_per_year, 1))
        out = np.empty((len(self.variables), h, w), dtype=np.float32)
        for c, v in enumerate(self.variables):
            if v.kind == "static":
                out[c] = self.static_field(v.name)
                continue
            weather = gaussian_random_field((h, w), v.spectral_slope, rng)
            field = 0.65 * self._patterns[v.name] + 0.35 * weather
            if v.name.startswith(("temperature", "t2m", "tmin")):
                # meridional gradient + orographic cooling + seasonal cycle
                anom = field * v.scale * 0.3
                merid = (self._meridional - self._meridional.mean()) * v.scale * 1.5
                oro_term = -LAPSE_RATE_K_PER_M * self.orography
                seasonal = np.float32(0.25 * v.scale * np.sin(season))
                out[c] = v.base + merid + anom + oro_term + seasonal
            elif v.positive:
                # skewed positive field with orographic enhancement
                enh = 1.0 + 0.4 * self.orography / (self.orography.max() + 1e-6)
                out[c] = v.scale * np.expm1(np.clip(field, -4, 4) * 0.8) * enh
                out[c] = np.maximum(out[c], 0.0)
            else:
                out[c] = v.base + field * v.scale
        return out

    def paired_sample(self, year: int, index: int, factor: int,
                      output_channels: list[int] | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(coarse input, fine target) pair for ``factor``X downscaling.

        The coarse input is the block-averaged fine state over **all**
        variables; the target keeps only ``output_channels`` (defaults to
        all non-static channels).
        """
        fine = self.fine_sample(year, index)
        coarse = coarsen(fine, factor).astype(np.float32)
        if output_channels is None:
            output_channels = [i for i, v in enumerate(self.variables) if v.kind != "static"]
        target = fine[output_channels]
        return coarse, target.astype(np.float32)
