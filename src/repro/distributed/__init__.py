"""Simulated multi-GPU cluster: collectives, the four parallelisms, the
Frontier topology model, and the analytic performance model."""

from .bucketer import GradBucket, GradBucketer, aligned_ring_chunks
from .comm import CommStats, ProcessGroup, VirtualCluster, Work
from .elastic import (
    CanonicalState,
    FaultPlan,
)
from .hybrid_op import (
    HybridOpChain,
    hybrid_chain_volume,
    naive_sharded_chain_volume,
    split_columns,
    split_rows,
)
from .pipeline import (
    pipeline_activation_traffic,
    pipeline_bubble_fraction,
)
from .ulysses import UlyssesAttention, merge_sequence, split_sequence
from .perf_model import (
    DownscalingWorkload,
    ServiceTimeModel,
    TileServiceTimeModel,
    cache_aware_service_time,
    inference_time_per_sample,
    max_output_tokens,
    memory_per_gpu_bytes,
    modeled_step_timeline,
    overlap_report,
    plan_comm_costs,
    plan_cost_diff,
    reshard_cost,
    serve_report,
    service_time_model,
    step_traffic_schedule,
    strong_scaling_efficiency,
    sustained_flops,
    tile_inference_times,
    tile_service_time_model,
    time_per_sample,
    transformer_flops,
    workload_flops_per_sample,
)
from .sequence_parallel import tiles_comm_volume, ulysses_comm_volume
from .strategy import (
    CompositePlan,
    CompositeStrategy,
    tile_core_loss,
)
from .topology import FRONTIER, FrontierTopology, GPUSpec, LinkLevel

__all__ = [
    "ProcessGroup",
    "Work",
    "GradBucket",
    "GradBucketer",
    "aligned_ring_chunks",
    "pipeline_bubble_fraction",
    "pipeline_activation_traffic",
    "UlyssesAttention",
    "split_sequence",
    "merge_sequence",
    "VirtualCluster",
    "CommStats",
    "FrontierTopology",
    "FRONTIER",
    "GPUSpec",
    "LinkLevel",
    "split_columns",
    "split_rows",
    "HybridOpChain",
    "hybrid_chain_volume",
    "naive_sharded_chain_volume",
    "tiles_comm_volume",
    "ulysses_comm_volume",
    "CompositePlan",
    "CompositeStrategy",
    "tile_core_loss",
    "DownscalingWorkload",
    "transformer_flops",
    "workload_flops_per_sample",
    "memory_per_gpu_bytes",
    "max_output_tokens",
    "plan_comm_costs",
    "plan_cost_diff",
    "reshard_cost",
    "CanonicalState",
    "FaultPlan",
    "step_traffic_schedule",
    "modeled_step_timeline",
    "overlap_report",
    "ServiceTimeModel",
    "TileServiceTimeModel",
    "cache_aware_service_time",
    "tile_inference_times",
    "tile_service_time_model",
    "inference_time_per_sample",
    "service_time_model",
    "serve_report",
    "time_per_sample",
    "sustained_flops",
    "strong_scaling_efficiency",
]
