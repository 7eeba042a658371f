"""Reslim: the Residual Slim ViT architecture (Fig. 2, Sec. III-A).

The main ViT path never upsamples: each low-resolution physical variable
is tokenized separately and a cross-attention module collapses the
variable dimension into one token stream (one patch-space node,
:class:`VariableAggregator`: the V per-variable token streams are never
materialised), a learnable resolution embedding makes predictions
resolution-aware, an optional quad-tree compressor shrinks the sequence
further, and a conv+linear decoder reconstructs the high-resolution
output directly from low-resolution tokens.  A residual
convolutional path re-introduces upsampling *outside* the transformer
(linear cost) so the ViT only learns the residual correction — the
mechanism that controls the ill-posed inverse problem's uncertainty.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    Conv2d,
    CrossAttention,
    Linear,
    Module,
    Parameter,
    TransformerEncoder,
    PatchEmbed,
    aggregate_variables,
    unpatchify,
)
from ..nn import init as nn_init
from ..tensor import Tensor, bilinear_upsample, gelu
from .compression import QuadTreeCompressor
from .config import ModelConfig

__all__ = ["Reslim", "reslim_sequence_length", "MAX_FACTOR_LOG2"]

MAX_FACTOR_LOG2 = 6  # resolution embeddings for factors 1, 2, 4, ..., 64


def reslim_sequence_length(h: int, w: int, patch: int, compression: float = 1.0) -> int:
    """Main-path token count: the COARSE grid patched, then compressed.

    Contrast with :func:`~repro.core.vit.vit_sequence_length`, which
    patches the fine grid — larger by ``factor^2``.
    """
    return max(1, int((h // patch) * (w // patch) / compression))


class ResidualPath(Module):
    """The lightweight convolutional residual branch.

    1×1 channel mixing at coarse resolution, bilinear upsampling to the
    target grid, then a 3×3 refinement conv.  All operations are linear
    in the output size, so moving the upsample here (instead of before
    the ViT) removes the quadratic attention blow-up.
    """

    def __init__(self, in_channels: int, out_channels: int, factor: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.factor = factor
        self.select = Conv2d(in_channels, out_channels, 1, rng=rng)
        self.refine = Conv2d(out_channels, out_channels, 3, padding=1, rng=rng)
        # refine starts as a no-op so the branch begins as pure
        # channel-mixed interpolation
        self.refine.weight.data[...] = 0.0
        for c in range(out_channels):
            self.refine.weight.data[c, c, 1, 1] = 1.0

    def forward(self, x: Tensor, factor: int | None = None) -> Tensor:
        factor = factor or self.factor
        coarse = self.select(x)
        _, _, h, w = coarse.shape
        up = bilinear_upsample(coarse, h * factor, w * factor)
        return self.refine(up)


class VariableAggregator(Module):
    """Cross-attention over the variable axis (Fig. 2, purple block).

    Per spatial token, the query is the mean of the V variable
    embeddings and the context is the V embeddings themselves; attention
    runs over a length-V sequence, so cost is linear in the token count
    and the output drops the variable dimension entirely (the 18–23×
    sequence reduction credited in Sec. V-B).

    The V embeddings are never built.  Each is ``P_v Wtᵀ + bt + e_v`` — a
    p × p patch through the shared tokenizer plus a per-variable constant
    — and one query per token folds the K/V projections into it, so
    :func:`repro.nn.aggregate_variables` scores and pools the raw patches
    against a ``(V + p², D)`` basis: one tape node from the field to the
    heads, whose largest array is ``(B, L, H, D)``.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.attn = CrossAttention(dim, num_heads, rng=rng)

    def forward(self, field: Tensor, tokenizer: PatchEmbed, var_embed: Tensor) -> Tensor:
        """(B, V, h, w) field, its shared single-channel ``tokenizer`` and
        the (V, 1, D) variable embeddings → (B, L, D)."""
        a = self.attn
        fused = aggregate_variables(
            field, tokenizer.proj.weight, tokenizer.proj.bias, var_embed,
            a.to_q.weight, a.to_q.bias, a.to_k.weight, a.to_k.bias,
            a.to_v.weight, a.to_v.bias, a.num_heads)           # (B, L, H, D/H)
        b, l = fused.shape[:2]
        return a.proj(fused.reshape(b, l, -1))


class Reslim(Module):
    """The full Reslim downscaler.

    Parameters
    ----------
    config:
        Width/depth/heads; ``patch_size`` patches the COARSE grid.
    in_channels / out_channels:
        Physical variable counts.
    factor:
        Default spatial refinement (4X in the paper's tasks).
    compression:
        ``None`` disables adaptive spatial compression (identity slot);
        otherwise the quad-tree density threshold in (0, 1).
    max_tokens:
        Positional-table capacity for the encoder.
    """

    def __init__(self, config: ModelConfig, in_channels: int, out_channels: int,
                 factor: int, compression: float | None = None,
                 compression_max_patch: int = 8, max_tokens: int = 4096,
                 factors: tuple[int, ...] | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.factors = tuple(sorted(set(factors or (factor,))))
        if factor not in self.factors:
            raise ValueError(f"default factor {factor} not in factors {self.factors}")
        for f in self.factors:
            if f < 1 or f > 2**MAX_FACTOR_LOG2 or (f & (f - 1)) != 0:
                raise ValueError(f"factor {f} must be a power of two within range")
        self.config = config
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.factor = factor
        self.compression_threshold = compression
        self.compression_max_patch = compression_max_patch
        d = config.embed_dim

        # shared single-channel tokenizer applied to every variable
        self.tokenizer = PatchEmbed(1, d, config.patch_size, rng=rng)
        self.var_embed = Parameter(nn_init.trunc_normal((in_channels, 1, d), rng))
        self.aggregator = VariableAggregator(d, config.num_heads, rng=rng)
        self.resolution_embed = Parameter(
            nn_init.trunc_normal((MAX_FACTOR_LOG2 + 1, d), rng)
        )
        # projection to image space used to build the quad-tree
        self.feature_proj = Linear(d, 1, rng=rng)
        self.encoder = TransformerEncoder(
            d, config.depth, config.num_heads, max_len=max_tokens,
            mlp_ratio=config.mlp_ratio, use_flash=config.use_flash,
            block_size=config.flash_block, rng=rng,
        )
        # decoder: conv in token-grid space + one linear pixel-projection
        # head per supported refinement factor (resolution-aware decoding;
        # the shared trunk plus the resolution embedding is what lets one
        # foundation model serve multiple output resolutions)
        self.decoder_conv = Conv2d(d, d, 3, padding=1, rng=rng)
        self._heads: dict[int, Linear] = {}
        for f in self.factors:
            head = Linear(d, out_channels * (config.patch_size * f) ** 2, rng=rng)
            # zero-init: at step 0 the model IS the residual path
            head.weight.data[...] = 0.0
            head.bias.data[...] = 0.0
            self._modules[f"head_x{f}"] = head
            self._heads[f] = head
        # default-factor alias; bypass module registration to avoid
        # double-counting the head's parameters
        object.__setattr__(self, "head", self._heads[factor])
        self.residual = ResidualPath(in_channels, out_channels, factor, rng=rng)
        self.last_sequence_length: int | None = None
        self.last_compression_ratio: float = 1.0

    # ------------------------------------------------------------------ #
    def _resolution_token(self, factor: int) -> Tensor:
        idx = int(np.log2(factor))
        if 2**idx != factor:
            raise ValueError(f"factor must be a power of two, got {factor}")
        return self.resolution_embed[idx : idx + 1, :].reshape(1, 1, -1)

    def forward(self, x: Tensor, factor: int | None = None) -> Tensor:
        """(B, C_in, h, w) coarse → (B, C_out, h*factor, w*factor)."""
        factor = factor or self.factor
        if factor not in self._heads:
            raise ValueError(
                f"no decoder head for factor {factor}; built for {self.factors}"
            )
        b, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        p = self.config.patch_size
        gh, gw = h // p, w // p
        d = self.config.embed_dim

        # --- tokenize each variable with the shared tokenizer, tag it with
        # its identity and aggregate the variable dimension: one node ------
        fused = self.aggregator(x, self.tokenizer, self.var_embed)  # (B, L, D)
        fused = fused + self._resolution_token(factor)

        # --- optional adaptive spatial compression ------------------------
        compressor = None
        if self.compression_threshold is not None:
            feature_img = self.feature_proj(fused).data[:, :, 0].mean(axis=0)
            feature_img = feature_img.reshape(gh, gw)
            compressor = QuadTreeCompressor.from_feature_image(
                feature_img, patch=1,
                max_patch=min(self.compression_max_patch, gh, gw),
                density_threshold=self.compression_threshold,
            )
            grid = fused.transpose(1, 2).reshape(b, d, gh, gw)
            fused = compressor.compress(grid)               # (B, L', D)
            self.last_compression_ratio = compressor.compression_ratio
        else:
            self.last_compression_ratio = 1.0
        self.last_sequence_length = fused.shape[1]

        # --- ViT training blocks ------------------------------------------
        encoded = self.encoder(fused)

        # --- decompression + decoder --------------------------------------
        if compressor is not None:
            grid = compressor.decompress(encoded, channels=d)  # (B, D, gh, gw)
        else:
            grid = encoded.transpose(1, 2).reshape(b, d, gh, gw)
        grid = gelu(self.decoder_conv(grid))
        dec_tokens = grid.reshape(b, d, gh * gw).transpose(1, 2)
        out_tokens = self._heads[factor](dec_tokens)        # (B, L, C*(p*f)^2)
        main = unpatchify(out_tokens, gh, gw, self.out_channels, p * factor)

        # --- residual convolutional path ----------------------------------
        return main + self.residual(x, factor)

    def sequence_length(self, h: int, w: int) -> int:
        """Pre-compression main-path token count for a coarse (h, w) input."""
        return reslim_sequence_length(h, w, self.config.patch_size)
