"""ORBIT-2's primary contribution: Reslim, TILES, adaptive compression,
and the Bayesian downscaling objective."""

from .canny import canny_edges, edge_density, gaussian_blur, sobel_gradients
from .compression import QuadLeaf, QuadTreeCompressor, build_quadtree, uniform_token_count
from .config import PAPER_CONFIGS, ModelConfig, transformer_param_count
from .losses import (
    BayesianDownscalingLoss,
    LatitudeTileLoss,
    latitude_weighted_mse,
    mrf_tv_prior,
)
from .reslim import MAX_FACTOR_LOG2, Reslim, reslim_sequence_length
from .swin import (
    SWIN_PAPER_MAX_TOKENS,
    PatchMerging,
    SwinBlock,
    SwinDownscaler,
    WindowAttention,
    swin_param_growth,
    swin_stages_required,
)
from .tiles import (
    TiledDownscaler,
    TileSpec,
    extract_tile,
    make_tiles,
    stitch_tiles,
    tile_grid,
    tiled_attention_complexity,
)
from .vit import UpsampleViT, vit_sequence_length

__all__ = [
    "canny_edges",
    "edge_density",
    "gaussian_blur",
    "sobel_gradients",
    "QuadLeaf",
    "QuadTreeCompressor",
    "build_quadtree",
    "uniform_token_count",
    "ModelConfig",
    "PAPER_CONFIGS",
    "transformer_param_count",
    "BayesianDownscalingLoss",
    "LatitudeTileLoss",
    "latitude_weighted_mse",
    "mrf_tv_prior",
    "Reslim",
    "reslim_sequence_length",
    "MAX_FACTOR_LOG2",
    "UpsampleViT",
    "vit_sequence_length",
    "SwinDownscaler",
    "SwinBlock",
    "WindowAttention",
    "PatchMerging",
    "swin_stages_required",
    "swin_param_growth",
    "SWIN_PAPER_MAX_TOKENS",
    "TileSpec",
    "tile_grid",
    "make_tiles",
    "extract_tile",
    "stitch_tiles",
    "TiledDownscaler",
    "tiled_attention_complexity",
]
