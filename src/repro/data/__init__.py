"""Synthetic climate data substrate (ERA5/PRISM/DAYMET/IMERG stand-ins)."""

from .datasets import Batch, DatasetSpec, DownscalingDataset, year_split
from .io import ExportedDataset, export_dataset, load_exported
from .grids import EARTH_CIRCUMFERENCE_KM, Grid, coarsen, latitude_weights
from .normalize import ChannelNormalizer, log1p_precip
from .regional import (
    CONUS_BOUNDS,
    OBS_VARIABLES,
    imerg_like_observation,
    us_grid,
)
from .synthetic import LAPSE_RATE_K_PER_M, ClimateWorld, gaussian_random_field
from .variables import (
    ATMOSPHERIC_VARIABLES,
    INPUT_VARIABLES,
    OUTPUT_VARIABLES_FULL,
    SCIENCE_TARGETS,
    STATIC_VARIABLES,
    SURFACE_VARIABLES,
    Variable,
    variable_index,
)

__all__ = [
    "Grid",
    "coarsen",
    "latitude_weights",
    "EARTH_CIRCUMFERENCE_KM",
    "ClimateWorld",
    "gaussian_random_field",
    "LAPSE_RATE_K_PER_M",
    "ChannelNormalizer",
    "log1p_precip",
    "DatasetSpec",
    "DownscalingDataset",
    "Batch",
    "year_split",
    "export_dataset",
    "load_exported",
    "ExportedDataset",
    "imerg_like_observation",
    "us_grid",
    "CONUS_BOUNDS",
    "OBS_VARIABLES",
    "Variable",
    "variable_index",
    "INPUT_VARIABLES",
    "OUTPUT_VARIABLES_FULL",
    "SCIENCE_TARGETS",
    "STATIC_VARIABLES",
    "ATMOSPHERIC_VARIABLES",
    "SURFACE_VARIABLES",
]
