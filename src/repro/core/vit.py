"""The upsample-first ViT downscaling baseline (Fig. 1).

This is the Prithvi/ClimateLearn-style architecture ORBIT-2 compares
against: coarse inputs are bilinearly upsampled to the target resolution
*before* the transformer, multi-variable channels are aggregated by a
shallow convolution, and the ViT runs on the full fine-resolution token
grid — hence the quadratic sequence blow-up that Reslim eliminates.
"""

from __future__ import annotations

import numpy as np

from ..nn import Conv2d, Linear, Module, TransformerEncoder, PatchEmbed, unpatchify
from ..tensor import Tensor, bilinear_upsample, gelu
from .config import ModelConfig

__all__ = ["UpsampleViT", "vit_sequence_length"]


def vit_sequence_length(out_h: int, out_w: int, patch: int) -> int:
    """Token count of the upsample-first baseline: the FINE grid patched."""
    return (out_h // patch) * (out_w // patch)


class UpsampleViT(Module):
    """Baseline downscaler: upsample → conv aggregate → ViT → project back.

    Parameters
    ----------
    config:
        Width/depth/heads; ``config.patch_size`` patches the *fine* grid.
    in_channels, out_channels:
        Physical variable counts (23 in / 18 or 3 out in the paper).
    factor:
        Spatial refinement (4X in all Table-I tasks).
    max_tokens:
        Capacity of the positional-embedding table.
    """

    def __init__(self, config: ModelConfig, in_channels: int, out_channels: int,
                 factor: int, max_tokens: int = 4096,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.config = config
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.factor = factor
        d = config.embed_dim
        # shallow convolutional variable aggregation (Fig. 1, purple)
        self.aggregate = Conv2d(in_channels, in_channels, 3, padding=1, rng=rng)
        self.patch_embed = PatchEmbed(in_channels, d, config.patch_size, rng=rng)
        self.encoder = TransformerEncoder(
            d, config.depth, config.num_heads, max_len=max_tokens,
            mlp_ratio=config.mlp_ratio, use_flash=config.use_flash,
            block_size=config.flash_block, rng=rng,
        )
        self.head = Linear(d, out_channels * config.patch_size**2, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        """(B, C_in, h, w) coarse → (B, C_out, h*factor, w*factor) fine."""
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        out_h, out_w = h * self.factor, w * self.factor
        up = bilinear_upsample(x, out_h, out_w)          # the costly step
        feats = gelu(self.aggregate(up))
        tokens = self.patch_embed(feats)                 # (B, L_fine, D)
        tokens = self.encoder(tokens)
        tokens = self.head(tokens)
        gh, gw = self.patch_embed.grid_shape(out_h, out_w)
        return unpatchify(tokens, gh, gw, self.out_channels, self.config.patch_size)
