"""Sequence-parallel communication volumes (Sec. II / III-B).

TILES gives each rank of a group one spatial tile, runs the full model
on it independently (attention confined to the tile) and averages the
per-rank gradients with a single all-reduce per batch — the "minimal
communication frequency and overhead" property that lets TILES groups
sit on the slow inter-node links (Fig. 5).  Its execution is
:class:`~.strategy.CompositeStrategy` with ``tiles > 1``; this module
keeps the closed-form bytes for the comparison the paper draws against
Ulysses-style sequence parallelism and its all-to-all per attention
layer.
"""

from __future__ import annotations

__all__ = ["ulysses_comm_volume", "tiles_comm_volume"]


def tiles_comm_volume(param_bytes: int, world: int, steps: int = 1) -> float:
    """Bytes/rank for TILES: ONE gradient all-reduce per batch."""
    return steps * 2 * (world - 1) / world * param_bytes


def ulysses_comm_volume(seq_len: int, embed_dim: int, n_layers: int, world: int,
                        steps: int = 1, bytes_per_elem: int = 4) -> float:
    """Bytes/rank for Ulysses-style sequence parallelism.

    Each attention layer needs 4 all-to-alls (scatter Q/K/V heads, gather
    outputs) of the full (seq, dim) activation: volume
    4 · n_layers · (P-1)/P · seq·dim·bytes per forward, and roughly the
    same again in backward — this is the per-layer overhead that caps
    sequence parallelism at 188K tokens while TILES scales to billions.
    """
    # each rank's all-to-all buffer holds its 1/world share of the
    # (seq, dim) activation; it sends (world-1)/world of that per call
    per_layer = 4 * (world - 1) / world * seq_len * embed_dim * bytes_per_elem / world
    return steps * 2 * n_layers * per_layer  # forward + backward
