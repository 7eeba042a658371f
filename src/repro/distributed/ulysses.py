"""Ulysses-style sequence parallelism — the approach TILES replaces.

DeepSpeed-Ulysses (Sec. II, "Scaling algorithm solutions") splits the
token sequence across GPUs; because self-attention needs every token to
see every other token, each attention layer performs all-to-all
exchanges: scatter Q/K/V by heads (each rank gets ALL tokens of its head
subset), compute full attention per head, then all-to-all back to the
sequence split.  It is mathematically exact — and that is the point of
implementing it: the comparison with TILES is then between an exact
method paying four all-to-alls per layer and a local approximation paying
one gradient all-reduce per batch.

The implementation runs real buffers through the virtual cluster's
all-to-all and is verified against single-device attention to float
precision.
"""

from __future__ import annotations

import numpy as np

from ..nn.flash_attention import flash_attention
from ..tensor import Tensor
from .comm import ProcessGroup

__all__ = ["UlyssesAttention", "split_sequence", "merge_sequence"]


def split_sequence(x: np.ndarray, world: int) -> list[np.ndarray]:
    """Split (L, ...) along the sequence axis into ``world`` equal shards."""
    if x.shape[0] % world:
        raise ValueError(f"sequence {x.shape[0]} not divisible by {world} ranks")
    return [s.copy() for s in np.split(x, world, axis=0)]


def merge_sequence(shards: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(shards, axis=0)


class UlyssesAttention:
    """Distributed exact attention over a sequence-parallel group.

    Layout convention: each rank holds a (L/P, H, D) shard of Q, K, V
    (its slice of the sequence, all heads).  ``forward`` performs:

    1. all-to-all #1–3: re-shard Q, K, V from sequence-split to
       head-split — afterwards each rank holds (L, H/P, D);
    2. rank-local exact attention over the FULL sequence for its heads;
    3. all-to-all #4: re-shard outputs back to sequence-split.

    Four all-to-alls of the full activation per attention layer — the
    communication bill the paper contrasts with TILES.
    """

    def __init__(self, group: ProcessGroup, num_heads: int):
        if num_heads % group.size:
            raise ValueError(
                f"heads {num_heads} not divisible by group size {group.size}"
            )
        self.group = group
        self.num_heads = num_heads

    # ------------------------------------------------------------------ #
    def _seq_to_head_shards(self, shards: list[np.ndarray]) -> list[np.ndarray]:
        """(L/P, H, D) per rank → (L, H/P, D) per rank via one all-to-all."""
        p = self.group.size
        hp = self.num_heads // p
        prepared = []
        for s in shards:
            lp, h, d = s.shape
            # lay out as (P, L/P, H/P, D): slice j goes to rank j
            blocks = s.reshape(lp, p, hp, d).transpose(1, 0, 2, 3)
            prepared.append(np.ascontiguousarray(blocks.reshape(p * lp, hp, d)))
        exchanged = self.group.all_to_all(prepared)
        out = []
        for e in exchanged:
            # rank i received P blocks of (L/P, H/P, D), in sequence order
            out.append(e)
        return out

    def _head_to_seq_shards(self, shards: list[np.ndarray]) -> list[np.ndarray]:
        """(L, H/P, D) per rank → (L/P, H, D) per rank (the inverse)."""
        p = self.group.size
        hp = self.num_heads // p
        prepared = [np.ascontiguousarray(s) for s in shards]
        exchanged = self.group.all_to_all(prepared)
        out = []
        for e in exchanged:
            lp = e.shape[0] // p
            blocks = e.reshape(p, lp, hp, e.shape[-1])  # one block per source rank
            merged = blocks.transpose(1, 0, 2, 3).reshape(lp, p * hp, e.shape[-1])
            out.append(np.ascontiguousarray(merged))
        return out

    # ------------------------------------------------------------------ #
    def forward(self, q_shards: list[np.ndarray], k_shards: list[np.ndarray],
                v_shards: list[np.ndarray]) -> list[np.ndarray]:
        """Distributed attention; returns per-rank (L/P, H, D) outputs."""
        for name, shards in (("q", q_shards), ("k", k_shards), ("v", v_shards)):
            if len(shards) != self.group.size:
                raise ValueError(f"{name}: expected {self.group.size} shards")
        q_heads = self._seq_to_head_shards(q_shards)   # all-to-all 1
        k_heads = self._seq_to_head_shards(k_shards)   # all-to-all 2
        v_heads = self._seq_to_head_shards(v_shards)   # all-to-all 3
        outputs = []
        for q, k, v in zip(q_heads, k_heads, v_heads):
            # (L, H/P, D) → (1, H/P, L, D) for the attention kernel
            qt = Tensor(np.ascontiguousarray(q.transpose(1, 0, 2))[None])
            kt = Tensor(np.ascontiguousarray(k.transpose(1, 0, 2))[None])
            vt = Tensor(np.ascontiguousarray(v.transpose(1, 0, 2))[None])
            out = flash_attention(qt, kt, vt).data[0]   # (H/P, L, D)
            outputs.append(np.ascontiguousarray(out.transpose(1, 0, 2)))
        return self._head_to_seq_shards(outputs)        # all-to-all 4

    def reference(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Single-device attention over the full (L, H, D) arrays."""
        qt = Tensor(np.ascontiguousarray(q.transpose(1, 0, 2))[None])
        kt = Tensor(np.ascontiguousarray(k.transpose(1, 0, 2))[None])
        vt = Tensor(np.ascontiguousarray(v.transpose(1, 0, 2))[None])
        out = flash_attention(qt, kt, vt).data[0]
        return np.ascontiguousarray(out.transpose(1, 0, 2))
