"""Frontier-calibrated hardware topology model (Sec. IV "System Details").

Each Frontier node: one 64-core EPYC CPU + 4 MI250X cards = 8 logical
GPUs (GCDs) with 64 GB HBM each.  GCDs on the same MI250X talk over
Infinity Fabric (~200 GB/s), the four cards over 50 GB/s GPU-GPU
Infinity Fabric, and nodes over 100 GB/s Slingshot-11.  The topology
object answers "what bandwidth/latency connects ranks a and b", which is
all the collective cost models need, and carries per-GCD compute/memory
limits for the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["LinkLevel", "FrontierTopology", "GPUSpec", "FRONTIER"]


class LinkLevel(Enum):
    """Communication hierarchy levels, fastest to slowest."""

    SAME_GPU = 0      # on-chip (flash-attention SM tiles)
    SAME_CARD = 1     # two GCDs of one MI250X
    SAME_NODE = 2     # across cards in a node
    CROSS_NODE = 3    # Slingshot fabric


@dataclass(frozen=True)
class GPUSpec:
    """Per-GCD limits used by the memory and compute models."""

    memory_bytes: int = 64 * 1024**3           # 64 GB HBM per GCD
    peak_bf16_flops: float = 191.5e12          # MI250X: 383 TF/card ÷ 2 GCDs
    achievable_fraction: float = 0.55          # realistic GEMM efficiency
    memory_usable_fraction: float = 0.9        # headroom for runtime/frag

    @property
    def usable_memory_bytes(self) -> float:
        return self.memory_bytes * self.memory_usable_fraction


@dataclass(frozen=True)
class FrontierTopology:
    """Bandwidth/latency table for the Frontier interconnect hierarchy."""

    gpus_per_node: int = 8
    gpus_per_card: int = 2
    # bandwidths in bytes/second
    bw_same_card: float = 200e9
    bw_same_node: float = 50e9
    bw_cross_node: float = 100e9 / 8   # 100 GB/s NIC shared by 8 GCDs
    # latencies in seconds per message
    lat_same_card: float = 2e-6
    lat_same_node: float = 5e-6
    lat_cross_node: float = 20e-6
    gpu: GPUSpec = GPUSpec()

    def node_of(self, rank: int) -> int:
        return rank // self.gpus_per_node

    def card_of(self, rank: int) -> int:
        return rank // self.gpus_per_card

    def link_level(self, rank_a: int, rank_b: int) -> LinkLevel:
        if rank_a == rank_b:
            return LinkLevel.SAME_GPU
        if self.card_of(rank_a) == self.card_of(rank_b):
            return LinkLevel.SAME_CARD
        if self.node_of(rank_a) == self.node_of(rank_b):
            return LinkLevel.SAME_NODE
        return LinkLevel.CROSS_NODE

    def bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth (bytes/s) between two ranks."""
        level = self.link_level(rank_a, rank_b)
        if level == LinkLevel.SAME_GPU:
            return float("inf")
        if level == LinkLevel.SAME_CARD:
            return self.bw_same_card
        if level == LinkLevel.SAME_NODE:
            return self.bw_same_node
        return self.bw_cross_node

    def latency(self, rank_a: int, rank_b: int) -> float:
        level = self.link_level(rank_a, rank_b)
        if level == LinkLevel.SAME_GPU:
            return 0.0
        if level == LinkLevel.SAME_CARD:
            return self.lat_same_card
        if level == LinkLevel.SAME_NODE:
            return self.lat_same_node
        return self.lat_cross_node

    def group_bottleneck(self, ranks: list[int]) -> tuple[float, float]:
        """(min bandwidth, max latency) over a group's slowest link.

        Ring collectives are bottlenecked by the slowest hop; for the
        contiguous rank ranges our layouts use, that is the widest-level
        link present in the group.
        """
        if len(ranks) < 2:
            return float("inf"), 0.0
        bw = min(self.bandwidth(a, b) for a, b in zip(ranks[:-1], ranks[1:]))
        # close the ring
        bw = min(bw, self.bandwidth(ranks[-1], ranks[0]))
        lat = max(self.latency(a, b) for a, b in zip(ranks[:-1], ranks[1:]))
        lat = max(lat, self.latency(ranks[-1], ranks[0]))
        return bw, lat


#: the default topology instance used across benchmarks
FRONTIER = FrontierTopology()
