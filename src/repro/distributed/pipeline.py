"""Pipeline parallelism (GPipe-style), one of the model-scaling
parallelisms the paper surveys (Sec. II), in closed form.

The model is partitioned into consecutive stages, one per rank; a batch
is split into microbatches that stream through the stages.  Utilization
is bounded by the pipeline *bubble*: with P stages and M microbatches the
forward timeline has M + P - 1 slots of which P - 1 per stage are idle,
giving bubble fraction (P-1)/(M+P-1).  ORBIT-2 prefers FSDP/tensor/
Hybrid-OP over pipelining for that bubble and for the per-microbatch
activation traffic; no pipeline engine runs here, and the parallelism
ablation prices both terms with the two functions below (modeled).
"""

from __future__ import annotations

__all__ = [
    "pipeline_bubble_fraction",
    "pipeline_activation_traffic",
]


def pipeline_bubble_fraction(n_stages: int, n_microbatches: int) -> float:
    """Idle fraction of the GPipe forward+backward schedule."""
    if n_stages < 1 or n_microbatches < 1:
        raise ValueError("positive stage/microbatch counts required")
    return (n_stages - 1) / (n_microbatches + n_stages - 1)


def pipeline_activation_traffic(microbatch_elems: int, n_stages: int,
                                n_microbatches: int, bytes_per_elem: int = 2) -> float:
    """Bytes crossing stage boundaries per step (forward + backward)."""
    boundaries = n_stages - 1
    return 2.0 * boundaries * n_microbatches * microbatch_elems * bytes_per_elem
