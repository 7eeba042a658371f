"""Model configurations (Sec. IV "Model Configuration").

The paper's four sizes, reproduced exactly for FLOP/memory accounting:

=======  =========  ======  =====
name     embed_dim  layers  heads
=======  =========  ======  =====
9.5M     256        6       4
126M     1024       8       16
1B       3072       8       24
10B      8192       11      32
=======  =========  ======  =====

``scaled(...)`` derives width-reduced variants with the same depth/head
structure so the architecture code paths can be *trained* on one CPU core
while the full-size configs drive the analytic performance model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ModelConfig", "PAPER_CONFIGS", "transformer_param_count"]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters shared by ViT and Reslim."""

    name: str
    embed_dim: int
    depth: int
    num_heads: int
    patch_size: int = 2        # the paper tokenizes with 2x2 patches
    mlp_ratio: float = 4.0
    use_flash: bool = True
    flash_block: int = 128

    def __post_init__(self):
        if self.embed_dim % self.num_heads:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.num_heads}"
            )
        if min(self.embed_dim, self.depth, self.num_heads, self.patch_size) <= 0:
            raise ValueError("all dimensions must be positive")


#: the paper's four configurations keyed by their reported parameter count
PAPER_CONFIGS: dict[str, ModelConfig] = {
    "9.5M": ModelConfig("9.5M", embed_dim=256, depth=6, num_heads=4),
    "126M": ModelConfig("126M", embed_dim=1024, depth=8, num_heads=16),
    "1B": ModelConfig("1B", embed_dim=3072, depth=8, num_heads=24),
    "10B": ModelConfig("10B", embed_dim=8192, depth=11, num_heads=32),
}


def transformer_param_count(config: ModelConfig, in_channels: int = 23,
                            out_channels: int = 18, max_len: int = 4096) -> int:
    """Analytic parameter count of the encoder stack + embeddings.

    Per block: QKV (3d²+3d) + output proj (d²+d) + MLP (2·r·d² + (r+1)d)
    + 2 LayerNorms (4d); plus patch embedding, positional table, and a
    linear decoder head.  Validated against the instantiated models in
    tests (exact for the ViT baseline).
    """
    d = config.embed_dim
    r = config.mlp_ratio
    per_block = (3 * d * d + 3 * d) + (d * d + d) + int(2 * r * d * d) + int((r + 1) * d) + 4 * d
    p = config.patch_size
    patch_embed = (in_channels * p * p) * d + d
    pos = max_len * d
    head = d * (out_channels * p * p) + out_channels * p * p
    final_norm = 2 * d
    return config.depth * per_block + patch_embed + pos + head + final_norm
