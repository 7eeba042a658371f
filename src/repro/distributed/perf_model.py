"""Analytic performance model calibrated to Frontier (Tables II/III, Fig. 6).

The paper's headline numbers come from 512–32,768 GPUs we do not have;
this module predicts them from first principles plus a handful of
calibration constants, combined with Frontier's published link/compute
specs (``repro.distributed.topology``):

* **FLOPs** — standard transformer accounting: per layer,
  ``24·L·d²`` projection FLOPs + ``4·L²·d`` attention FLOPs (multiply-add
  = 2); training = 3× forward.  TILES confines attention within tiles
  (dividing the quadratic term) but adds halo tokens to every tile — the
  overhead that makes 36 tiles slower than 16 (Table II(b)).
* **Memory** — parameters + optimizer state (bf16 weights, fp32 master +
  two Adam moments = 14 bytes/param) sharded over the GPUs serving one
  tile; linear activation residency ``C_ACT·depth·L·d·2`` bytes sharded
  by tensor parallelism (≤ one node); naive attention adds the quadratic
  ``L²`` score matrices — why the baseline ViT OOMs at 777K tokens
  (Table II) while flash-attention Reslim scales to billions.
* **Rate** — a roofline on per-layer GEMM shape, saturating in the width
  ``d²`` and the tile tokens ``L`` separately: sustained fraction
  ``F_MAX·d²/(d²+D_HALF)·L/(L+L_HALF)``.  Reproduces the paper's
  small-model underutilization (9.5M at 363 PF vs 10B at 1.8 EF).
* **Schedule** — each sample is served by a group of ``tiles × tp``
  GPUs; the remaining GPUs replicate groups data-parallel.  A fixed
  per-step floor (kernel launch / loader residue), a 90 %-overlapped
  gradient all-reduce, and a logarithmic straggler term complete the
  model; the latter two produce the 92–98 % strong-scaling band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import ModelConfig, transformer_param_count
from ..core.tiles import tile_grid
from .strategy import CompositePlan
from .topology import FRONTIER, FrontierTopology

__all__ = [
    "DownscalingWorkload",
    "transformer_flops",
    "workload_flops_per_sample",
    "memory_per_gpu_bytes",
    "max_output_tokens",
    "plan_comm_costs",
    "plan_cost_diff",
    "reshard_cost",
    "REPLAN_VALIDATE_S",
    "step_traffic_schedule",
    "modeled_step_timeline",
    "overlap_report",
    "ServiceTimeModel",
    "TileServiceTimeModel",
    "DEFAULT_SERVICE_TIME",
    "SERVE_DISPATCH_S",
    "inference_time_per_sample",
    "service_time_model",
    "tile_inference_times",
    "tile_service_time_model",
    "cache_aware_service_time",
    "serve_report",
    "time_per_sample",
    "sustained_flops",
    "strong_scaling_efficiency",
    "C_ACT",
    "F_MAX",
    "T_FLOOR",
]

# ---------------------------------------------------------------------- #
# calibration constants (single source of truth; see module docstring)
# ---------------------------------------------------------------------- #
C_ACT = 144            # resident activation tensors per layer (incl. backward)
F_MAX = 0.6            # best-case fraction of peak bf16 FLOPs for big GEMMs
D_HALF = 3.0e5         # d² at which width-bound efficiency reaches F_MAX/2
L_HALF = 1500.0        # sequence length at which batch-dim efficiency is half
T_FLOOR = 1.5e-4       # per-step fixed cost (launch/loader residue), seconds
QT_SECONDS_PER_TOKEN = 3.0e-6  # CPU quad-tree build + (de)compress per token
GRAD_OVERLAP = 0.9     # fraction of gradient all-reduce hidden under backward
TP_OVERLAP = 0.75      # fraction of tensor-parallel all-reduce hidden
JITTER_PER_DOUBLING = 0.012  # straggler/sync overhead per doubling beyond 512
BYTES_PER_PARAM_TRAIN = 14   # bf16 weight + fp32 master + 2 fp32 Adam moments
ACT_BYTES = 2                # bf16 activations


@dataclass(frozen=True)
class DownscalingWorkload:
    """One row of the experiment grid: model × task × scaling strategy."""

    config: ModelConfig
    coarse_shape: tuple[int, int]        # input grid (h, w)
    factor: int = 4
    out_channels: int = 18
    architecture: str = "reslim"         # 'reslim' | 'vit'
    tiles: int = 1
    compression: float = 1.0             # adaptive-compression sequence divisor
    halo_tokens: int = 8                 # halo width in token units per side
    flash_attention: bool = True

    def __post_init__(self):
        if self.architecture not in ("reslim", "vit"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.tiles < 1 or self.compression < 1.0 or self.factor < 1:
            raise ValueError("tiles >= 1, compression >= 1, factor >= 1 required")

    # ------------------------------------------------------------------ #
    # sequence accounting
    # ------------------------------------------------------------------ #
    @property
    def fine_shape(self) -> tuple[int, int]:
        return (self.coarse_shape[0] * self.factor, self.coarse_shape[1] * self.factor)

    @property
    def output_tokens(self) -> int:
        """The paper's headline 'sequence length': fine pixels × channels / p²."""
        h, w = self.fine_shape
        p = self.config.patch_size
        return h * w * self.out_channels // (p * p)

    @property
    def token_grid(self) -> tuple[int, int]:
        """Token grid the transformer sees (before tiling/compression)."""
        p = self.config.patch_size
        if self.architecture == "reslim":
            h, w = self.coarse_shape
        else:
            h, w = self.fine_shape
        return (max(1, h // p), max(1, w // p))

    @property
    def attention_tokens_core(self) -> int:
        """Tokens attended over the whole sample, halo excluded.

        Reslim: coarse grid, variable-aggregated, after compression.  ViT
        baseline: upsampled fine grid with per-variable tokens (up to the
        3 science channels) — Table II(a)'s counting.
        """
        gh, gw = self.token_grid
        if self.architecture == "reslim":
            return max(1, int(gh * gw / self.compression))
        return gh * gw * min(self.out_channels, 3)

    def attention_tokens_per_tile(self) -> int:
        """Per-tile sequence INCLUDING halo overhead."""
        if self.tiles == 1:
            return self.attention_tokens_core
        gh, gw = self.token_grid
        rows, cols = tile_grid(self.tiles)
        th = max(1, gh // rows)
        tw = max(1, gw // cols)
        h = self.halo_tokens
        per_tile = (th + 2 * h) * (tw + 2 * h)
        if self.architecture == "vit":
            per_tile *= min(self.out_channels, 3)
        return max(1, int(per_tile / self.compression))

    @property
    def attention_tokens_total(self) -> int:
        """Sum over tiles of the per-tile (halo-inflated) sequences."""
        if self.tiles == 1:
            return self.attention_tokens_core
        return self.tiles * self.attention_tokens_per_tile()


# ---------------------------------------------------------------------- #
# FLOPs
# ---------------------------------------------------------------------- #
def transformer_flops(seq_len: int, config: ModelConfig, training: bool = True,
                      attention_divisor: float = 1.0) -> float:
    """FLOPs of one pass over ``seq_len`` tokens through the encoder.

    ``attention_divisor`` models TILES: pairwise interactions confined to
    tiles divide the quadratic term by the tile count.  This prices model
    FLOPs, while ``FlopCounter`` bills executed FLOPs, which in training
    include flash attention's recomputed ``QKᵀ`` (half the attention term).
    """
    d = config.embed_dim
    proj = 24.0 * seq_len * d * d
    attn = 4.0 * seq_len * seq_len * d / attention_divisor
    total = config.depth * (proj + attn)
    return 3.0 * total if training else total


def workload_flops_per_sample(w: DownscalingWorkload, training: bool = True) -> float:
    """Whole-sample FLOPs: transformer + the linear-cost heads/paths."""
    seq = w.attention_tokens_total
    flops = transformer_flops(seq, w.config, training, attention_divisor=w.tiles)
    # linear extras: residual path + decoder on the fine grid
    fh, fw = w.fine_shape
    extras = 600.0 * fh * fw * w.out_channels
    return flops + (3.0 * extras if training else extras)


# ---------------------------------------------------------------------- #
# memory
# ---------------------------------------------------------------------- #
TP_MIN_EMBED_DIM = 2048  # tensor parallelism only pays off for wide models


def _tp_ways(w: DownscalingWorkload, n_gpus: int, topology: FrontierTopology) -> int:
    """Tensor-parallel width the schedule would choose.

    Narrow models (d < 2048) run TP=1 — the per-layer all-reduce costs
    more than the sharded GEMMs save.  Wide models use a full node, the
    paper's Fig. 5 placement.
    """
    gpus_per_tile = max(1, n_gpus // w.tiles)
    if w.config.embed_dim < TP_MIN_EMBED_DIM:
        return 1
    return min(gpus_per_tile, topology.gpus_per_node)


def memory_per_gpu_bytes(w: DownscalingWorkload, n_gpus: int,
                         topology: FrontierTopology = FRONTIER) -> float:
    """Peak bytes on the busiest GPU for one training sample."""
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    params = transformer_param_count(w.config, out_channels=w.out_channels)
    gpus_per_tile = max(1, n_gpus // w.tiles)
    # FSDP/Hybrid-OP shard parameters + optimizer state over the WHOLE
    # allocation (tiles are data-parallel replicas of the same weights)
    param_bytes = BYTES_PER_PARAM_TRAIN * params / n_gpus
    seq_tile = w.attention_tokens_per_tile()
    # activations shard over the node's GPUs regardless of the time-model
    # TP choice (intra-node sequence/hidden sharding is always available
    # when the alternative is OOM)
    tp = min(gpus_per_tile, topology.gpus_per_node)
    d = w.config.embed_dim
    act_linear = C_ACT * w.config.depth * seq_tile * d * ACT_BYTES / tp
    if w.flash_attention:
        block = w.config.flash_block
        attn_peak = min(block, seq_tile) * seq_tile * ACT_BYTES * 2 / tp
    else:
        # naive attention keeps scores + probs per head for backward
        attn_peak = 2.0 * float(seq_tile) ** 2 * ACT_BYTES * w.config.num_heads / tp
    # fine-grid output buffer for this tile (fp32 prediction + target)
    fh, fw = w.fine_shape
    out_buf = 2 * 4.0 * fh * fw * w.out_channels / w.tiles
    return param_bytes + act_linear + attn_peak + out_buf


def max_output_tokens(config: ModelConfig, n_gpus: int, architecture: str = "reslim",
                      tiles: int = 1, compression: float = 1.0,
                      flash_attention: bool = True, factor: int = 4,
                      out_channels: int = 18,
                      topology: FrontierTopology = FRONTIER) -> DownscalingWorkload:
    """Largest workload (by output tokens) that fits per-GPU memory.

    Searches global 2:1 coarse grids (h, 2h); returns the fitting
    workload, whose ``output_tokens`` and fine grid give a Table III row
    (km resolution via ``repro.data.Grid``).
    """
    limit = topology.gpu.usable_memory_bytes
    best: DownscalingWorkload | None = None
    h = 8
    while h <= 2_000_000:
        w = DownscalingWorkload(
            config=config, coarse_shape=(h, 2 * h), factor=factor,
            out_channels=out_channels, architecture=architecture, tiles=tiles,
            compression=compression, flash_attention=flash_attention,
        )
        if memory_per_gpu_bytes(w, n_gpus, topology) > limit:
            break
        best = w
        h = int(h * 1.1) + 2
        h -= h % 2
    if best is None:
        raise MemoryError(
            f"{architecture}/{config.name} does not fit on {n_gpus} GPUs at any size"
        )
    return best


# ---------------------------------------------------------------------- #
# time & throughput
# ---------------------------------------------------------------------- #
def _roofline_rate(gemm_tokens: float, embed_dim: int,
                   topology: FrontierTopology = FRONTIER) -> float:
    """Achieved FLOP/s per GPU as a saturating function of GEMM shape.

    Two independent saturation factors: the GEMM inner width (d² — narrow
    models are memory-bound regardless of sequence length, the paper's
    9.5M underutilization) and the token/batch dimension (short per-tile
    sequences underfill the compute units).
    """
    d2 = float(embed_dim) ** 2
    frac = F_MAX * (d2 / (d2 + D_HALF)) * (gemm_tokens / (gemm_tokens + L_HALF))
    return topology.gpu.peak_bf16_flops * frac


def _hierarchical_allreduce_time(nbytes: float, n_gpus: int,
                                 topology: FrontierTopology = FRONTIER) -> float:
    """Intra-node reduce + inter-node tree all-reduce + intra-node bcast."""
    if n_gpus <= 1:
        return 0.0
    t_node = 2.0 * nbytes / topology.bw_same_node
    n_nodes = max(1, n_gpus // topology.gpus_per_node)
    if n_nodes > 1:
        t_cross = 2.0 * nbytes / (topology.bw_cross_node * topology.gpus_per_node) \
            + np.log2(n_nodes) * topology.lat_cross_node
    else:
        t_cross = 0.0
    return t_node + t_cross


def time_per_sample(w: DownscalingWorkload, n_gpus: int,
                    topology: FrontierTopology = FRONTIER,
                    include_io: bool = True) -> float:
    """Modelled wall-clock seconds to downscale one hourly sample.

    One sample occupies a group of ``tiles × tp`` GPUs; the cluster runs
    ``n_gpus / group`` such groups data-parallel.  Per-sample time is the
    group step time divided by the concurrency, plus the unhidden slice
    of the once-per-step gradient all-reduce and a straggler term.
    """
    if n_gpus < 1:
        raise ValueError("need at least one GPU")
    flops = workload_flops_per_sample(w)
    tp = _tp_ways(w, n_gpus, topology)
    group = min(n_gpus, w.tiles * tp)
    concurrent = max(1, n_gpus // group)
    seq_tile = w.attention_tokens_per_tile()
    rate = _roofline_rate(seq_tile, w.config.embed_dim, topology)
    t_compute = flops / (group * rate)
    # per-layer tensor-parallel all-reduces, partially overlapped
    if tp > 1:
        act_bytes = seq_tile * w.config.embed_dim * ACT_BYTES
        t_tp = (1.0 - TP_OVERLAP) * 2 * w.config.depth * (
            2 * (tp - 1) / tp * act_bytes / topology.bw_same_node
            + topology.lat_same_node
        )
    else:
        t_tp = 0.0
    params = transformer_param_count(w.config, out_channels=w.out_channels)
    t_grad = (1.0 - GRAD_OVERLAP) * _hierarchical_allreduce_time(
        2.0 * params, n_gpus, topology
    )
    # CPU-side quad-tree construction + compress/decompress scatter, only
    # partially hidden behind GPU compute (Table II(b)'s diminishing
    # returns at high compression come from exactly this term)
    t_qt = QT_SECONDS_PER_TOKEN * w.attention_tokens_core * w.compression \
        if w.compression > 1.0 else 0.0
    floor = T_FLOOR if include_io else 0.0
    t_step = floor + t_compute + t_tp + t_grad + t_qt
    if n_gpus > 512:
        t_step *= 1.0 + JITTER_PER_DOUBLING * np.log2(n_gpus / 512)
    return t_step / concurrent


def step_traffic_schedule(config: ModelConfig, tokens_per_tile: int = 4096,
                          in_channels: int = 23,
                          out_channels: int = 18) -> list[dict]:
    """The canonical collective sequence of ONE composite training step.

    Single source of truth for modeled traffic — :func:`plan_comm_costs`
    aggregates it per (level, op), :func:`modeled_step_timeline` plays it
    out on a rank timeline, and the tracer's runtime spans carry the same
    per-call bytes.  Per step: FSDP all-gathers bf16 weights before
    forward and again before backward; TP issues 2 activation all-reduces
    per layer in each direction; FSDP reduce-scatters bf16 gradients;
    the TILES and DDP levels each run one fp32 gradient all-reduce.
    """
    params = transformer_param_count(config, in_channels=in_channels,
                                     out_channels=out_channels)
    act_nbytes = tokens_per_tile * config.embed_dim * ACT_BYTES
    return [
        {"phase": "forward", "level": "fsdp", "op": "all_gather",
         "calls": 1, "nbytes": params * ACT_BYTES},
        {"phase": "forward", "level": "tp", "op": "all_reduce",
         "calls": 2 * config.depth, "nbytes": act_nbytes},
        {"phase": "backward", "level": "fsdp", "op": "all_gather",
         "calls": 1, "nbytes": params * ACT_BYTES},
        {"phase": "backward", "level": "tp", "op": "all_reduce",
         "calls": 2 * config.depth, "nbytes": act_nbytes},
        {"phase": "reduce", "level": "fsdp", "op": "reduce_scatter",
         "calls": 1, "nbytes": params * ACT_BYTES},
        {"phase": "reduce", "level": "tiles", "op": "all_reduce",
         "calls": 1, "nbytes": params * 4},
        {"phase": "reduce", "level": "ddp", "op": "all_reduce",
         "calls": 1, "nbytes": params * 4},
    ]


#: representative rank set per level (all groups of a level are congruent)
_LEVEL_RANKS = {
    "tp": lambda plan: plan.tp_ranks(0, 0, 0),
    "fsdp": lambda plan: plan.fsdp_ranks(0, 0, 0),
    "tiles": lambda plan: plan.tiles_ranks(0, 0, 0),
    "ddp": lambda plan: plan.ddp_ranks(0, 0, 0),
}


def plan_comm_costs(plan: CompositePlan, config: ModelConfig,
                    tokens_per_tile: int = 4096, in_channels: int = 23,
                    out_channels: int = 18) -> list[dict]:
    """Per-level communication bill of ONE composite training step.

    Uses the same :class:`CompositePlan` that drives execution, so the
    estimate and the runtime traffic share one rank layout: each row is
    a (level, collective) pair with its per-call bytes, call count, the
    ring-model wall-clock on the level's representative group, and the
    widest link the level crosses (the Fig. 5 placement check).  Rows
    aggregate :func:`step_traffic_schedule` — the same pricing the
    tracer and the modeled timeline use.
    """
    hierarchy = plan.communication_hierarchy()
    cluster = plan.cluster
    schedule = step_traffic_schedule(config, tokens_per_tile,
                                    in_channels, out_channels)
    order = [("tp", "all_reduce"), ("fsdp", "all_gather"),
             ("fsdp", "reduce_scatter"), ("tiles", "all_reduce"),
             ("ddp", "all_reduce")]
    calls: dict[tuple[str, str], int] = {}
    nbytes: dict[tuple[str, str], float] = {}
    for entry in schedule:
        key = (entry["level"], entry["op"])
        calls[key] = calls.get(key, 0) + entry["calls"]
        nbytes[key] = entry["nbytes"]
    rows: list[dict] = []
    for level, op in order:
        ranks = _LEVEL_RANKS[level](plan)
        group = cluster.group(ranks)
        n = calls[(level, op)]
        b = nbytes[(level, op)]
        rows.append({
            "level": level,
            "group_size": len(ranks),
            "op": op,
            "calls": n,
            "bytes_per_call": float(b),
            "time_s": n * group.collective_time(op, int(b)),
            "link": hierarchy[level],
        })
    return rows


REPLAN_VALIDATE_S = 2.0e-4
"""Per-rank re-validation/wiring cost of a reshard: rebuilding the new
plan's process groups, re-checking the level partitions, and re-arming
gradient buckets.  Linear in the new world."""


def reshard_cost(old_plan: CompositePlan, new_plan: CompositePlan,
                 state_nbytes: int) -> dict:
    """Modeled price of moving a live run from one plan to another.

    The reshard is a gather-then-scatter of the canonical state: the old
    plan's FSDP group all-gathers its shards into the canonical vector
    (export), the new world broadcasts it onto the new slices (import),
    and every new rank pays a fixed re-validation cost.  Both transfers
    are priced on the ring model of the actual clusters involved, so the
    downtime scales with state bytes and with the slowest link either
    plan's groups cross.
    """
    state_nbytes = int(state_nbytes)
    export_group = old_plan.cluster.group(old_plan.fsdp_ranks(0, 0, 0))
    import_group = new_plan.cluster.group(list(range(new_plan.world)))
    export_s = export_group.collective_time("all_gather", state_nbytes)
    import_s = import_group.collective_time("broadcast", state_nbytes)
    revalidate_s = REPLAN_VALIDATE_S * new_plan.world
    return {
        "old": old_plan.layout(),
        "new": new_plan.layout(),
        "state_bytes": state_nbytes,
        "bytes_moved": 2 * state_nbytes,
        "export_s": export_s,
        "import_s": import_s,
        "revalidate_s": revalidate_s,
        "downtime_s": export_s + import_s + revalidate_s,
    }


def plan_cost_diff(old_plan: CompositePlan, new_plan: CompositePlan,
                   config: ModelConfig, tokens_per_tile: int = 4096,
                   in_channels: int = 23, out_channels: int = 18) -> dict:
    """Per-(level, op) delta between two plans' communication bills.

    Joins :func:`plan_comm_costs` rows of both plans on (level, op) —
    the row set is fixed, so the join is total — and attaches the
    modeled :func:`reshard_cost` of moving between them (canonical state
    = fp32 params + two fp32 AdamW moments).  This is what
    ``repro plan --diff OLD NEW`` prints.
    """
    old_rows = plan_comm_costs(old_plan, config, tokens_per_tile,
                               in_channels, out_channels)
    new_rows = plan_comm_costs(new_plan, config, tokens_per_tile,
                               in_channels, out_channels)
    rows = []
    for o, n in zip(old_rows, new_rows):
        assert (o["level"], o["op"]) == (n["level"], n["op"])
        rows.append({
            "level": o["level"],
            "op": o["op"],
            "old_group_size": o["group_size"],
            "new_group_size": n["group_size"],
            "old_bytes": o["calls"] * o["bytes_per_call"],
            "new_bytes": n["calls"] * n["bytes_per_call"],
            "old_time_s": o["time_s"],
            "new_time_s": n["time_s"],
            "delta_time_s": n["time_s"] - o["time_s"],
        })
    old_total = sum(r["old_time_s"] for r in rows)
    new_total = sum(r["new_time_s"] for r in rows)
    params = transformer_param_count(config, in_channels=in_channels,
                                     out_channels=out_channels)
    # canonical state: fp32 params + 2 fp32 Adam moments
    reshard = reshard_cost(old_plan, new_plan, params * 12)
    return {
        "old": old_plan.layout(),
        "new": new_plan.layout(),
        "rows": rows,
        "old_total_s": old_total,
        "new_total_s": new_total,
        "delta_total_s": new_total - old_total,
        "reshard": reshard,
    }


def modeled_step_timeline(plan: CompositePlan, config: ModelConfig,
                          tokens_per_tile: int = 4096, in_channels: int = 23,
                          out_channels: int = 18, overlap: bool = False,
                          n_buckets: int = 8) -> list:
    """Per-rank modeled timeline of one training step — no execution.

    Plays :func:`step_traffic_schedule` out over every group of each
    level with barrier semantics (a collective starts at the latest
    member clock) and inserts roofline-priced compute segments for the
    forward and backward passes, so ``repro trace`` can render a
    world-64 step as a Perfetto timeline in milliseconds of model time.
    Returns :class:`repro.obs.Span` objects.

    ``overlap=True`` switches to a two-stream schedule per rank: compute
    stays on the main stream, while the reduce-phase collectives are
    split into ``n_buckets`` backward-driven bucket pieces launched on
    per-level comm streams (``stream="comm"`` spans) with dependency
    edges from the bucket-ready times.  Three real overlap mechanisms
    are modeled: (1) bucket k's reduction starts as soon as the tail of
    backward finalizes its gradients, (2) each parallelism level owns
    its own communicator stream, so bucket k's TILES/DDP all-reduce
    pipelines under bucket k+1's FSDP reduce-scatter, and (3) the
    backward FSDP weight all-gather is prefetched right after the
    forward one (it must complete before backward starts).  The
    ``overlap=False`` schedule is unchanged.
    """
    from ..obs.tracer import Span

    cluster = plan.cluster
    t = {r: 0.0 for r in range(plan.world)}
    spans: list = []

    def comm(entry: dict) -> None:
        for ranks in plan.level_rank_sets()[entry["level"]]:
            if len(ranks) == 1:
                continue
            group = cluster.group(ranks)
            dur = entry["calls"] * group.collective_time(
                entry["op"], int(entry["nbytes"]))
            start = max(t[r] for r in ranks)
            for r in ranks:
                spans.append(Span(
                    name=f"comm/{entry['op']}", cat="comm", rank=r,
                    start_s=start, dur_s=dur,
                    args={"op": entry["op"], "level": entry["level"],
                          "bytes": float(entry["nbytes"]),
                          "calls": entry["calls"],
                          "group_size": len(ranks), "modeled": True}))
                t[r] = start + dur

    def compute(name: str, dur: float) -> None:
        for r in range(plan.world):
            spans.append(Span(name=name, cat="compute", rank=r,
                              start_s=t[r], dur_s=dur,
                              args={"modeled": True}))
            t[r] += dur

    rate = _roofline_rate(tokens_per_tile, config.embed_dim,
                          cluster.topology)
    fwd_flops = transformer_flops(tokens_per_tile, config, training=False)
    t_fwd = fwd_flops / (plan.tp * rate)

    schedule = step_traffic_schedule(config, tokens_per_tile,
                                    in_channels, out_channels)
    by_phase: dict[str, list[dict]] = {}
    for entry in schedule:
        by_phase.setdefault(entry["phase"], []).append(entry)

    if not overlap:
        for entry in by_phase.get("forward", ()):
            if entry["op"] == "all_gather":  # weights arrive before compute
                comm(entry)
        compute("compute/forward", t_fwd)
        for entry in by_phase.get("forward", ()):
            if entry["op"] != "all_gather":
                comm(entry)
        for entry in by_phase.get("backward", ()):
            if entry["op"] == "all_gather":
                comm(entry)
        compute("compute/backward", 2.0 * t_fwd)
        for entry in by_phase.get("backward", ()):
            if entry["op"] != "all_gather":
                comm(entry)
        for entry in by_phase.get("reduce", ()):
            comm(entry)
        return spans

    # ------------------------------------------------------------------ #
    # two-stream overlapped schedule.  All groups of one level are
    # congruent (same size, same link, same ready times), so per-level
    # comm-stream frontiers and dependency edges are scalars; spans are
    # still emitted for every member rank.
    # ------------------------------------------------------------------ #
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    front: dict[str, float] = {}

    def comm_stream(entry: dict, nbytes: float, ready_s: float,
                    bucket: int | None = None) -> float:
        """Launch one async piece on its level's comm stream.

        Starts at max(ready time, dependency edge folded into
        ``ready_s``, the level stream's frontier); returns its end time
        (``ready_s`` unchanged when the level has size-1 groups).
        """
        level, op = entry["level"], entry["op"]
        end = ready_s
        for ranks in plan.level_rank_sets()[level]:
            if len(ranks) == 1:
                continue
            group = cluster.group(ranks)
            dur = group.collective_time(op, int(nbytes))
            start = max(ready_s, front.get(level, 0.0))
            end = start + dur
            args = {"op": op, "level": level, "bytes": float(nbytes),
                    "calls": 1, "group_size": len(ranks), "modeled": True,
                    "async": True}
            if bucket is not None:
                args["bucket"] = bucket
            for r in ranks:
                spans.append(Span(
                    name=f"comm/{op}", cat="comm", rank=r, start_s=start,
                    dur_s=dur, args=args, stream="comm"))
        if end != ready_s:
            front[level] = end
        return end

    for entry in by_phase.get("forward", ()):
        if entry["op"] == "all_gather":
            comm(entry)
    # FSDP prefetch: the backward weight all-gather launches on the comm
    # stream the moment the forward one is off the wire, hiding under
    # forward compute + TP traffic; backward cannot start before it lands
    prefetch_end = 0.0
    for entry in by_phase.get("backward", ()):
        if entry["op"] == "all_gather":
            for _ in range(entry["calls"]):
                prefetch_end = comm_stream(entry, entry["nbytes"],
                                           max(t.values()))
    compute("compute/forward", t_fwd)
    for entry in by_phase.get("forward", ()):
        if entry["op"] != "all_gather":
            comm(entry)
    for r in t:
        t[r] = max(t[r], prefetch_end)
    bwd_start = max(t.values())
    t_bwd = 2.0 * t_fwd
    compute("compute/backward", t_bwd)
    # backward-driven bucketed reduction: bucket k's gradients are final
    # at a uniform fraction of backward; each piece chains through the
    # reduce levels (reduce_scatter -> tiles -> ddp) on per-level streams
    reduce_entries = list(by_phase.get("reduce", ()))
    for k in range(n_buckets):
        ready = bwd_start + (k + 1) / n_buckets * t_bwd
        dep = ready
        for entry in reduce_entries:
            dep = comm_stream(entry, entry["nbytes"] / n_buckets, dep,
                              bucket=k)
    for entry in by_phase.get("backward", ()):
        if entry["op"] != "all_gather":
            comm(entry)
    # the step ends when every rank's comm streams drain
    drain = max(front.values(), default=0.0)
    for r in t:
        t[r] = max(t[r], drain)
    return spans


def overlap_report(plan: CompositePlan, config: ModelConfig,
                   tokens_per_tile: int = 4096, in_channels: int = 23,
                   out_channels: int = 18, n_buckets: int = 8) -> dict:
    """Compare the barrier and overlapped schedules of one step.

    Returns the modeled step times of both schedules, the exposed
    (unhidden) comm time of the overlapped one, the fraction of async
    comm hidden under compute, and the speedup.  By construction
    ``compute_stream_time + exposed_comm_time == step_time_overlap`` on
    the critical rank — the end-to-end consistency the tests gate.
    """
    barrier = modeled_step_timeline(plan, config, tokens_per_tile,
                                    in_channels, out_channels)
    over = modeled_step_timeline(plan, config, tokens_per_tile,
                                 in_channels, out_channels,
                                 overlap=True, n_buckets=n_buckets)
    step_barrier = max((s.end_s for s in barrier), default=0.0)
    per_rank_end: dict[int, float] = {}
    compute_end: dict[int, float] = {}
    async_total: dict[int, float] = {}
    for s in over:
        per_rank_end[s.rank] = max(per_rank_end.get(s.rank, 0.0), s.end_s)
        if s.stream == "comm":
            async_total[s.rank] = async_total.get(s.rank, 0.0) + s.dur_s
        else:
            compute_end[s.rank] = max(compute_end.get(s.rank, 0.0), s.end_s)
    step_overlap = max(per_rank_end.values(), default=0.0)
    crit = max(per_rank_end, key=per_rank_end.get) if per_rank_end else 0
    t_compute = compute_end.get(crit, 0.0)
    exposed = max(0.0, step_overlap - t_compute)
    total_async = async_total.get(crit, 0.0)
    hidden = max(0.0, total_async - exposed)
    return {
        "step_time_barrier": step_barrier,
        "step_time_overlap": step_overlap,
        "compute_stream_time": t_compute,
        "exposed_comm_time": exposed,
        "overlapped_fraction": hidden / total_async if total_async else 0.0,
        "speedup": step_barrier / step_overlap if step_overlap else 1.0,
        "n_buckets": n_buckets,
    }


# ---------------------------------------------------------------------- #
# serving: inference pricing and replica-count planning
# ---------------------------------------------------------------------- #
#: host-side cost of one dispatched batch: staging the coarse fields to
#: the replica, kernel launches, and output writeback — paid once per
#: batch, which is exactly the overhead dynamic coalescing amortizes
SERVE_DISPATCH_S = 2.0e-3


@dataclass(frozen=True)
class ServiceTimeModel:
    """Modeled wall time of one coalesced inference batch.

    Linear in batch size: a fixed per-dispatch cost plus a per-sample
    roofline inference time.  Callable so the scheduler treats any
    ``batch_size -> seconds`` function interchangeably.
    """

    dispatch_s: float
    per_sample_s: float

    def __call__(self, batch_size: int) -> float:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self.dispatch_s + batch_size * self.per_sample_s


#: generic fallback when no model config is supplied: a 126M-class
#: replica on a single GCD (~20 ms/sample at 4096 tokens)
DEFAULT_SERVICE_TIME = ServiceTimeModel(dispatch_s=SERVE_DISPATCH_S,
                                        per_sample_s=2.0e-2)


def inference_time_per_sample(config: ModelConfig,
                              tokens_per_sample: int = 4096,
                              gpus_per_replica: int = 1,
                              topology: FrontierTopology = FRONTIER) -> float:
    """Roofline seconds for one forward pass over one sample's tokens.

    The replica's GPUs split the work evenly (TILES/TP inside the
    replica are embarrassingly parallel at inference — no gradient
    traffic), so per-sample time scales 1/gpus_per_replica on top of
    the same saturating rate the training model uses.
    """
    if gpus_per_replica < 1:
        raise ValueError("gpus_per_replica must be >= 1")
    rate = _roofline_rate(tokens_per_sample, config.embed_dim, topology)
    flops = transformer_flops(tokens_per_sample, config, training=False)
    return flops / (gpus_per_replica * rate)


def service_time_model(config: ModelConfig, tokens_per_sample: int = 4096,
                       gpus_per_replica: int = 1,
                       topology: FrontierTopology = FRONTIER,
                       dispatch_s: float = SERVE_DISPATCH_S) -> ServiceTimeModel:
    """The :class:`ServiceTimeModel` for one replica of ``config``."""
    return ServiceTimeModel(
        dispatch_s=dispatch_s,
        per_sample_s=inference_time_per_sample(
            config, tokens_per_sample, gpus_per_replica, topology))


# ---------------------------------------------------------------------- #
# tile-granular serving: per-tile pricing and cache-hit-aware sizing
# ---------------------------------------------------------------------- #
def tile_inference_times(config: ModelConfig | None, *,
                         coarse_shape: tuple[int, int], n_tiles: int,
                         halo: int = 0, tokens_per_sample: int = 4096,
                         gpus_per_replica: int = 1,
                         per_sample_s: float | None = None,
                         topology: FrontierTopology = FRONTIER,
                         ) -> dict[tuple[int, int], float]:
    """Roofline seconds per distinct halo-extended tile shape.

    A tile's forward covers its *halo-extended* input, so interior tiles
    (full halos on all four sides) cost more than clamped edge tiles —
    the halo overhead the paper's Table II(b) measures.  Tokens scale
    with tile area relative to the full grid; the roofline rate is
    re-evaluated at the tile's own token count, so small tiles also pay
    the short-sequence underutilization penalty.

    With ``config=None`` the times are an area-proportional scaling of
    ``per_sample_s`` (default: :data:`DEFAULT_SERVICE_TIME`'s) — the
    generic fallback the service uses when no model config is given.
    """
    from ..core.tiles import make_tiles

    h, w = int(coarse_shape[0]), int(coarse_shape[1])
    specs = make_tiles(h, w, n_tiles, halo)
    area = float(h * w)
    out: dict[tuple[int, int], float] = {}
    for s in specs:
        sig = s.halo_shape
        if sig in out:
            continue
        ratio = (sig[0] * sig[1]) / area
        if config is None:
            base = DEFAULT_SERVICE_TIME.per_sample_s \
                if per_sample_s is None else per_sample_s
            out[sig] = base * ratio
        else:
            tokens = max(1.0, tokens_per_sample * ratio)
            rate = _roofline_rate(tokens, config.embed_dim, topology)
            flops = transformer_flops(tokens, config, training=False)
            out[sig] = flops / (gpus_per_replica * rate)
    return out


class TileServiceTimeModel:
    """Modeled wall time of one coalesced *tile* batch.

    ``dispatch_s`` is paid once per batch (the amortization cross-request
    tile batching buys); each tile adds its shape's roofline time.  The
    scheduler batches tiles of one shape signature at a time, so a call
    carries the batch's signature; unknown signatures fall back to the
    mean tile time.
    """

    def __init__(self, dispatch_s: float, tile_s: dict[tuple[int, int], float]):
        if dispatch_s < 0.0:
            raise ValueError("dispatch_s must be >= 0")
        if not tile_s or any(v < 0.0 for v in tile_s.values()):
            raise ValueError("tile_s must be a non-empty map of >= 0 times")
        self.dispatch_s = dispatch_s
        self.tile_s = dict(tile_s)
        self.mean_tile_s = sum(tile_s.values()) / len(tile_s)

    def tile_time(self, shape: tuple[int, int] | None = None) -> float:
        if shape is None:
            return self.mean_tile_s
        return self.tile_s.get(tuple(shape), self.mean_tile_s)

    def __call__(self, batch_size: int,
                 shape: tuple[int, int] | None = None) -> float:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        return self.dispatch_s + batch_size * self.tile_time(shape)


def tile_service_time_model(config: ModelConfig | None = None, *,
                            coarse_shape: tuple[int, int], n_tiles: int,
                            halo: int = 0, tokens_per_sample: int = 4096,
                            gpus_per_replica: int = 1,
                            per_sample_s: float | None = None,
                            dispatch_s: float = SERVE_DISPATCH_S,
                            topology: FrontierTopology = FRONTIER,
                            ) -> TileServiceTimeModel:
    """The :class:`TileServiceTimeModel` for one replica serving tiles."""
    return TileServiceTimeModel(
        dispatch_s=dispatch_s,
        tile_s=tile_inference_times(
            config, coarse_shape=coarse_shape, n_tiles=n_tiles, halo=halo,
            tokens_per_sample=tokens_per_sample,
            gpus_per_replica=gpus_per_replica, per_sample_s=per_sample_s,
            topology=topology))


def cache_aware_service_time(tile_model: TileServiceTimeModel, n_tiles: int,
                             hit_rate: float) -> ServiceTimeModel:
    """Request-level pricing of tile-granular serving at an assumed
    per-tile cache hit rate.

    A request recomputes ``n_tiles * (1 - hit_rate)`` tiles in
    expectation; hits cost nothing on the replica.  The result is a
    plain :class:`ServiceTimeModel`, so the whole-request scheduler in
    :func:`serve_report` can price fleets across the hit-rate axis
    without running tile-level events — the sensitivity analysis that
    tells the capacity plan how many replicas a cache collapse costs.
    """
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    expected_tiles = n_tiles * (1.0 - hit_rate)
    return ServiceTimeModel(
        dispatch_s=tile_model.dispatch_s,
        per_sample_s=expected_tiles * tile_model.mean_tile_s)


def serve_report(config: ModelConfig, *, scenario: str = "burst",
                 rate_rps: float = 50.0, duration_s: float = 60.0,
                 slo_p99_s: float = 0.5, max_replicas: int = 8,
                 gpus_per_replica: int = 8, max_batch: int = 8,
                 max_wait_s: float = 0.05, tokens_per_sample: int = 4096,
                 seed: int = 0, replica_counts: list[int] | None = None,
                 n_tiles: int = 1, halo: int = 0,
                 coarse_shape: tuple[int, int] | None = None,
                 hit_rates: tuple[float, ...] = (0.0, 0.5, 0.9),
                 topology: FrontierTopology = FRONTIER) -> dict:
    """Price replica counts against a p99 latency SLO.

    For each candidate replica count the traffic scenario is played
    through the *actual* serving scheduler (latency-only — no model
    executes), so the report and a real service run on the same
    configuration agree number-for-number.  Returns one row per count
    (p50/p99 latency, throughput, mean utilization, SLO verdict) plus
    ``recommended_replicas``: the smallest count whose simulated p99
    meets the SLO, or ``None`` if none does — the "how many GPUs does
    this traffic cost" answer the capacity plan needs.

    With ``n_tiles > 1`` (and ``coarse_shape`` for the tile geometry)
    the report adds ``hit_rate_sensitivity``: the same sizing pass
    repeated under the cache-hit-aware tile service-time model at each
    assumed per-tile hit rate — one row per rate, each with its own
    recommended fleet.  A rolling-forecast deployment reads its steady
    state off the high-hit-rate row and its cold-start / cache-collapse
    exposure off the 0%-row; the spread between them is the capacity the
    tile cache is worth.
    """
    # function-level import: repro.serve depends on this module
    from ..serve import BatchPolicy, DownscalingService, TrafficGenerator
    from .comm import VirtualCluster

    if slo_p99_s <= 0:
        raise ValueError("slo_p99_s must be positive")
    counts = replica_counts or list(range(1, max_replicas + 1))
    if not counts or min(counts) < 1:
        raise ValueError("replica_counts must be positive")
    st = service_time_model(config, tokens_per_sample, gpus_per_replica,
                            topology)
    gen = TrafficGenerator(scenario, rate_rps, duration_s, seed=seed)

    def size_fleet(service_time) -> tuple[list[dict], int | None]:
        rows: list[dict] = []
        recommended = None
        for n in sorted(counts):
            service = DownscalingService(
                n_replicas=n,
                policy=BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
                cluster=VirtualCluster(n * gpus_per_replica, topology),
                service_time=service_time)
            summary = service.run(gen.generate()).summary()
            meets = summary["latency_p99_s"] <= slo_p99_s
            rows.append({
                "replicas": n,
                "gpus": n * gpus_per_replica,
                "p50_s": summary["latency_p50_s"],
                "p99_s": summary["latency_p99_s"],
                "throughput_rps": summary["throughput_rps"],
                "utilization_mean": summary["utilization_mean"],
                "meets_slo": meets,
            })
            if meets and recommended is None:
                recommended = n
        return rows, recommended

    rows, recommended = size_fleet(st)
    report = {
        "scenario": scenario,
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "slo_p99_s": slo_p99_s,
        "gpus_per_replica": gpus_per_replica,
        "per_sample_s": st.per_sample_s,
        "dispatch_s": st.dispatch_s,
        "rows": rows,
        "recommended_replicas": recommended,
    }
    if n_tiles > 1:
        if coarse_shape is None:
            raise ValueError("tiled serve_report needs coarse_shape=(h, w)")
        tm = tile_service_time_model(
            config, coarse_shape=coarse_shape, n_tiles=n_tiles, halo=halo,
            tokens_per_sample=tokens_per_sample,
            gpus_per_replica=gpus_per_replica, topology=topology)
        sensitivity = []
        for hr in hit_rates:
            hr_rows, hr_rec = size_fleet(
                cache_aware_service_time(tm, n_tiles, hr))
            at_rec = next((r for r in hr_rows if r["replicas"] == hr_rec),
                          None)
            sensitivity.append({
                "hit_rate": hr,
                "recommended_replicas": hr_rec,
                "p99_at_recommended_s":
                    at_rec["p99_s"] if at_rec else None,
                "rows": hr_rows,
            })
        report["tiles"] = {"n_tiles": n_tiles, "halo": halo,
                           "coarse_shape": list(coarse_shape),
                           "per_tile_s": tm.mean_tile_s,
                           "dispatch_s": tm.dispatch_s}
        report["hit_rate_sensitivity"] = sensitivity
    return report


def sustained_flops(w: DownscalingWorkload, n_gpus: int,
                    topology: FrontierTopology = FRONTIER) -> float:
    """Application-level FLOP/s: work per sample ÷ wall time per sample."""
    return workload_flops_per_sample(w) / time_per_sample(w, n_gpus, topology)


def strong_scaling_efficiency(w: DownscalingWorkload, n_gpus_list: list[int],
                              baseline_gpus: int | None = None,
                              topology: FrontierTopology = FRONTIER) -> dict[int, float]:
    """Speedup per GPU relative to the baseline count (paper: 512 GPUs)."""
    baseline_gpus = baseline_gpus or n_gpus_list[0]
    t0 = time_per_sample(w, baseline_gpus, topology)
    out = {}
    for n in n_gpus_list:
        t = time_per_sample(w, n, topology)
        out[n] = (t0 * baseline_gpus) / (t * n)
    return out
