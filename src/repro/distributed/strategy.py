"""The strategy layer (Sec. III-C): every parallelism that trains.

Training runs through exactly one strategy, :class:`CompositeStrategy`:

* ``setup(model_factory)`` builds its model units and process groups;
* ``forward(inputs)`` — full-batch inference;
* ``forward_backward(inputs, targets)`` (per-unit compute, NO
  collectives) then ``reduce_gradients()`` (all gradient communication
  for the step) — the train-step split;
* ``optimizer_params()`` — per-unit ``(params, FlatParamBuffer)``
  pairs, so optimizers adopt the *same* buffer the collectives use;
* ``reference_forward`` / ``reference_step`` — the single-model
  semantics the equivalence oracle compares against;
* ``comm_summary()`` / ``reset_comm()`` — per-level byte accounting.

Plain DDP, FSDP and TILES are its degenerate plans
``CompositePlan(ddp=W)``, ``(fsdp=W)``, ``(tiles=W)``: a size-1 level's
collective is a copy.  The forward-only engines (tensor parallel,
Ulysses, Hybrid-OP, pipeline) are not strategies; the oracle drives
them directly.

:class:`CompositePlan` is Fig. 5's orthogonal layout as the explicit
four-factor decomposition ``tp x fsdp x tiles x ddp == world`` with the
rank layout ``rank = ((d*tiles + t)*fsdp + f)*tp
+ p`` (tensor parallel innermost/contiguous, matching Fig. 5's placement
of TP on the fast in-node links).  :class:`CompositeStrategy` executes
the full stack end-to-end on the virtual cluster:

* one **model unit** per (data-parallel rank ``d``, tile ``t``) pair;
  rank ``d`` holds rows ``d*k:(d+1)*k`` of the batch, ``k = batch //
  ddp``.  The FSDP and TP ranks of a unit share its compute (shared
  arithmetic, genuine traffic), with the per-layer TP all-reduce volume
  recorded as modelled traffic on the TP groups;
* FSDP reduce-scatters each unit's flat gradient into per-rank shards
  (identical contributions accumulate in float64 — exact);
* the TILES all-reduce averages shards across the tiles of one sample
  (once per batch, Sec. III-B);
* the DDP all-reduce averages across data-parallel ranks;
* an FSDP all-gather re-materialises the full averaged gradient into the
  unit's :class:`~repro.nn.flat.FlatParamBuffer` via ``load_grad`` — the
  pre-attached ``.grad`` views see it with zero copies.

The two ring phases average over all (d, t) units, so every unit ends
with the single-process gradient of the whole batch — the composition
law the oracle verifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.tiles import (TiledDownscaler, TileSpec, extract_tile, make_tiles,
                          stitch_tiles)
from ..nn import Module
from ..obs.tracer import active_tracer, span
from ..nn.flat import FlatParamBuffer, flatten_grads
from ..nn.module import Parameter
from ..tensor import CompiledStep, Tensor
from .bucketer import GradBucketer, aligned_ring_chunks
from .comm import ProcessGroup, VirtualCluster

__all__ = [
    "CompositePlan",
    "CompositeStrategy",
    "tile_core_loss",
]


def tile_core_loss(out: Tensor, spec: TileSpec, factor: int,
                   targets: np.ndarray, loss_fn) -> Tensor:
    """Loss on a tile's core region (halo outputs cropped, Sec. III-B).

    Losses carrying a truthy ``tile_aware`` attribute (e.g.
    :class:`~repro.core.losses.LatitudeTileLoss`) receive the tile's
    :class:`TileSpec` as a third argument so position-dependent terms can
    slice their full-grid state to this tile's window.
    """
    top, left = (spec.y0 - spec.hy0) * factor, (spec.x0 - spec.hx0) * factor
    ch, cw = spec.core_shape
    core = out[:, :, top: top + ch * factor, left: left + cw * factor]
    # Tensor targets slice through the graph (a view getitem) so compiled
    # steps see the target as a live input instead of a frozen constant
    sel = np.s_[:, :, spec.y0 * factor: spec.y1 * factor,
                spec.x0 * factor: spec.x1 * factor]
    tile_target = targets[sel] if isinstance(targets, Tensor) else Tensor(targets[sel])
    if getattr(loss_fn, "tile_aware", False):
        return loss_fn(core, tile_target, spec)
    return loss_fn(core, tile_target)


def _microbatch_mean_grads(model: Module, losses) -> np.ndarray:
    """Backward each microbatch loss thunk; float64-average the grads."""
    grads = []
    for compute_loss in losses:
        model.zero_grad()
        compute_loss().backward()
        grads.append(flatten_grads(model).astype(np.float64))
    return np.mean(grads, axis=0).astype(np.float32)


# --------------------------------------------------------------------- #
# the composite plan: tp x fsdp x tiles x ddp == world
# --------------------------------------------------------------------- #
@dataclass
class CompositePlan:
    """Explicit four-factor decomposition of the world.

    Rank layout: ``rank = ((d*tiles + t)*fsdp + f)*tp + p`` — tensor
    parallelism is innermost (contiguous ranks, fast in-node links),
    then FSDP (neighbour strides), then the tile index, then the sample
    index, matching Fig. 5's hierarchy from fastest to slowest link.
    """

    cluster: VirtualCluster
    tp: int = 1
    fsdp: int = 1
    tiles: int = 1
    ddp: int = 1

    def __post_init__(self):
        sizes = (self.tp, self.fsdp, self.tiles, self.ddp)
        if min(sizes) < 1:
            raise ValueError(f"all level sizes must be >= 1, got {sizes}")
        world = self.cluster.world_size
        if self.tp * self.fsdp * self.tiles * self.ddp != world:
            raise ValueError(
                f"tp x fsdp x tiles x ddp = "
                f"{self.tp}x{self.fsdp}x{self.tiles}x{self.ddp} = "
                f"{self.tp * self.fsdp * self.tiles * self.ddp} != world {world}"
            )
        if self.tp > self.cluster.topology.gpus_per_node:
            raise ValueError("tensor parallelism must fit within a node")

    # ------------------------------------------------------------------ #
    @property
    def world(self) -> int:
        return self.cluster.world_size

    def rank(self, p: int, f: int, t: int, d: int) -> int:
        return ((d * self.tiles + t) * self.fsdp + f) * self.tp + p

    # ------------------------------------------------------------------ #
    # rank sets per level
    # ------------------------------------------------------------------ #
    def tp_ranks(self, d: int, t: int, f: int) -> list[int]:
        return [self.rank(p, f, t, d) for p in range(self.tp)]

    def fsdp_ranks(self, d: int, t: int, p: int) -> list[int]:
        return [self.rank(p, f, t, d) for f in range(self.fsdp)]

    def tiles_ranks(self, d: int, f: int, p: int) -> list[int]:
        return [self.rank(p, f, t, d) for t in range(self.tiles)]

    def ddp_ranks(self, t: int, f: int, p: int) -> list[int]:
        return [self.rank(p, f, t, d) for d in range(self.ddp)]

    def level_rank_sets(self) -> dict[str, list[list[int]]]:
        """Every level's rank sets (each level partitions the world)."""
        return {
            "tp": [self.tp_ranks(d, t, f)
                   for d in range(self.ddp) for t in range(self.tiles)
                   for f in range(self.fsdp)],
            "fsdp": [self.fsdp_ranks(d, t, p)
                     for d in range(self.ddp) for t in range(self.tiles)
                     for p in range(self.tp)],
            "tiles": [self.tiles_ranks(d, f, p)
                      for d in range(self.ddp) for f in range(self.fsdp)
                      for p in range(self.tp)],
            "ddp": [self.ddp_ranks(t, f, p)
                    for t in range(self.tiles) for f in range(self.fsdp)
                    for p in range(self.tp)],
        }

    def validate(self) -> None:
        """Check each level's groups partition the world exactly."""
        for level, rank_sets in self.level_rank_sets().items():
            seen: set[int] = set()
            for ranks in rank_sets:
                overlap = seen & set(ranks)
                assert not overlap, f"{level}: rank reuse {overlap}"
                seen.update(ranks)
            assert seen == set(range(self.world)), f"{level}: incomplete partition"

    # ------------------------------------------------------------------ #
    def level_sizes(self) -> dict[str, int]:
        return {"tp": self.tp, "fsdp": self.fsdp,
                "tiles": self.tiles, "ddp": self.ddp}

    def communication_hierarchy(self) -> dict[str, str]:
        """Widest link each level's traffic crosses (the Fig. 5 picture)."""
        topo = self.cluster.topology

        def widest(ranks: list[int]) -> str:
            if len(ranks) == 1:
                return "local"
            levels = {topo.link_level(a, b).name
                      for a in ranks for b in ranks if a != b}
            for lvl in ("CROSS_NODE", "SAME_NODE", "SAME_CARD"):
                if lvl in levels:
                    return lvl
            return "local"

        return {
            "tp": widest(self.tp_ranks(0, 0, 0)),
            "fsdp": widest(self.fsdp_ranks(0, 0, 0)),
            "tiles": widest(self.tiles_ranks(0, 0, 0)),
            "ddp": widest(self.ddp_ranks(0, 0, 0)),
        }

    # ------------------------------------------------------------------ #
    # elasticity: derive a successor plan for a live reshard
    # ------------------------------------------------------------------ #
    def layout(self) -> dict[str, int]:
        """Serializable layout descriptor (checkpoint metadata, diffs)."""
        return {"world": self.world, "tp": self.tp, "fsdp": self.fsdp,
                "tiles": self.tiles, "ddp": self.ddp}

    def reshard(self, tp: int | None = None, fsdp: int | None = None,
                tiles: int | None = None, ddp: int | None = None,
                cluster: VirtualCluster | None = None) -> "CompositePlan":
        """A new plan with some factors changed — the reshard target.

        Unspecified factors are carried over.  A fresh
        :class:`VirtualCluster` of the new product is created (same
        topology) unless one is passed in, so the old plan's groups and
        their byte accounting stay untouched while the live state moves
        to the new plan via :mod:`repro.distributed.elastic`.
        """
        tp = self.tp if tp is None else int(tp)
        fsdp = self.fsdp if fsdp is None else int(fsdp)
        tiles = self.tiles if tiles is None else int(tiles)
        ddp = self.ddp if ddp is None else int(ddp)
        world = tp * fsdp * tiles * ddp
        if cluster is None:
            cluster = VirtualCluster(world, topology=self.cluster.topology)
        return CompositePlan(cluster=cluster, tp=tp, fsdp=fsdp,
                             tiles=tiles, ddp=ddp)

    def shrink_to(self, new_world: int) -> "CompositePlan":
        """The recovery plan after ranks die, preserving batch semantics.

        ``ddp`` is pinned to the configured batch size and ``tiles``
        fixes the loss decomposition, so both are preserved; the
        surviving world is absorbed by shrinking FSDP (the numerically
        safe axis — reduce-scatter accumulates elementwise in float64,
        so repartitioning it cannot perturb gradients) and, when the
        quotient no longer divides by ``tp``, collapsing TP to 1.
        """
        if new_world < 1:
            raise ValueError(f"cannot shrink to world {new_world}")
        unit_ways = self.tiles * self.ddp
        if new_world % unit_ways:
            raise ValueError(
                f"world {new_world} not divisible by tiles x ddp = "
                f"{self.tiles}x{self.ddp}; batch/tile semantics cannot be "
                f"preserved")
        quotient = new_world // unit_ways
        if quotient % self.tp == 0:
            tp, fsdp = self.tp, quotient // self.tp
        else:
            tp, fsdp = 1, quotient
        return self.reshard(tp=tp, fsdp=fsdp)


# --------------------------------------------------------------------- #
# the composite strategy: the full Fig. 5 stack, end-to-end
# --------------------------------------------------------------------- #
class CompositeStrategy:
    """TP x FSDP x TILES x DDP executed together on the virtual cluster.

    See the module docstring for the execution and reduction schedule.
    Collectives run once per tensor-parallel index so every group's
    byte accounting is real; results are identical across ``p`` (the
    inputs are), so the last result is used.
    """

    def __init__(self, plan: CompositePlan, loss_fn,
                 halo: int = 2, factor: int = 2, overlap: bool = False,
                 bucket_bytes: int = 1 << 16, compile: bool = False,
                 compile_guard=None):
        self.plan = plan
        self.loss_fn = loss_fn
        self.halo = halo
        self.factor = factor
        self.overlap = overlap
        self.bucket_bytes = bucket_bytes
        self.compile = bool(compile)
        self._compile_guard = compile_guard
        self._compiled: dict[tuple[int, int], CompiledStep] = {}
        self._active_loss_fn = loss_fn
        self.steps = 0
        self._model_factory = None
        # bumped by every reshard; part of the compiled-step guard key so
        # stale captured plans recapture transparently on the next call
        self._plan_epoch = 0

    # ------------------------------------------------------------------ #
    def setup(self, model_factory) -> None:
        self._model_factory = model_factory
        self._release_compiled()
        plan = self.plan
        cluster = plan.cluster
        n_units = plan.ddp * plan.tiles
        self._units: list[Module] = [model_factory(u) for u in range(n_units)]
        state = self._units[0].state_dict()
        for unit in self._units[1:]:
            unit.load_state_dict(state)
        self._buffers = [FlatParamBuffer(list(u.parameters()))
                         for u in self._units]
        self._bucketers = ([GradBucketer(buf, self.bucket_bytes)
                            for buf in self._buffers]
                           if self.overlap else [])
        self._ph1_works: list = []
        self._ph2_works: dict = {}
        self._fired: dict = {}
        self._work_grads: dict = {}
        # one ProcessGroup object per rank set, built once so CommStats
        # accumulate across steps
        self._tp_groups = {
            (d, t, f): cluster.group(plan.tp_ranks(d, t, f))
            for d in range(plan.ddp) for t in range(plan.tiles)
            for f in range(plan.fsdp)
        }
        self._fsdp_groups = {
            (d, t, p): cluster.group(plan.fsdp_ranks(d, t, p))
            for d in range(plan.ddp) for t in range(plan.tiles)
            for p in range(plan.tp)
        }
        self._tiles_groups = {
            (d, f, p): cluster.group(plan.tiles_ranks(d, f, p))
            for d in range(plan.ddp) for f in range(plan.fsdp)
            for p in range(plan.tp)
        }
        self._ddp_groups = {
            (t, f, p): cluster.group(plan.ddp_ranks(t, f, p))
            for t in range(plan.tiles) for f in range(plan.fsdp)
            for p in range(plan.tp)
        }

    def _unit(self, d: int, t: int) -> Module:
        return self._units[d * self.plan.tiles + t]

    def _buffer(self, d: int, t: int) -> FlatParamBuffer:
        return self._buffers[d * self.plan.tiles + t]

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _rank_rows(self, batch: int) -> list[slice]:
        """Rows of the batch held by each data-parallel rank."""
        ddp = self.plan.ddp
        if batch % ddp:
            raise ValueError(
                f"batch {batch} not divisible by data-parallel ways {ddp}")
        k = batch // ddp
        return [slice(d * k, (d + 1) * k) for d in range(ddp)]

    def _tile_specs(self, inputs) -> list[TileSpec] | None:
        if self.plan.tiles == 1:
            return None
        h, w = inputs.shape[-2:]
        return make_tiles(h, w, self.plan.tiles, self.halo)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Inference: each rank's samples, tiled over its units, stitched."""
        specs = self._tile_specs(inputs)
        outs = []
        for d, rows in enumerate(self._rank_rows(inputs.shape[0])):
            x = Tensor(inputs[rows])
            if specs is None:
                outs.append(self._unit(d, 0)(x).data)
                continue
            tile_outs = [self._unit(d, t)(extract_tile(x, spec))
                         for t, spec in enumerate(specs)]
            outs.append(stitch_tiles(tile_outs, specs, self.factor).data)
        return np.concatenate(outs)

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray,
                         loss_fn=None) -> list[float]:
        """Per-unit forward/backward (no communication); per-unit losses."""
        loss_fn = loss_fn or self.loss_fn
        self._active_loss_fn = loss_fn
        plan = self.plan
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"inputs/targets batch sizes differ: "
                f"{inputs.shape[0]} != {targets.shape[0]}")
        rank_rows = self._rank_rows(inputs.shape[0])
        if self.overlap:
            self._begin_overlap_step()
        losses = []
        for d, rows in enumerate(rank_rows):
            x, y = Tensor(inputs[rows]), Tensor(targets[rows])
            for t in range(plan.tiles):
                unit, buf = self._unit(d, t), self._buffer(d, t)
                buf.zero_grad()
                bucketer = None
                if self.overlap:
                    bucketer = self._bucketers[d * plan.tiles + t]
                    bucketer.arm(lambda bucket, d=d, t=t:
                                 self._on_bucket_ready(d, t, bucket))
                try:
                    if self.compile:
                        loss_data, out_data = self._compiled_step(d, t)(
                            inputs[rows], targets[rows])
                        loss_val, out_nbytes = float(loss_data), out_data.nbytes
                    else:
                        loss, out = self._unit_loss(unit, x, y, t, loss_fn)
                        loss.backward()
                        loss_val, out_nbytes = float(loss.data), out.data.nbytes
                    if bucketer is not None:
                        bucketer.flush()
                finally:
                    if bucketer is not None:
                        bucketer.disarm()
                buf.sync_grads()
                self._record_tp_traffic(unit, out_nbytes, d, t)
                losses.append(loss_val)
        return losses

    def step(self, inputs, targets) -> list[float]:
        """One gradient step: compute then communicate; per-unit losses."""
        losses = self.forward_backward(inputs, targets)
        self.reduce_gradients()
        return losses

    # ------------------------------------------------------------------ #
    # compiled per-(d, t) steps
    # ------------------------------------------------------------------ #
    def _compiled_step(self, d: int, t: int) -> CompiledStep:
        step = self._compiled.get((d, t))
        if step is None:
            step = CompiledStep(self._make_tile_fn(d, t),
                                guard_extra=self._guard_key)
            self._compiled[(d, t)] = step
        return step

    def _guard_key(self):
        extra = self._compile_guard() if self._compile_guard is not None else None
        return (id(self._active_loss_fn),
                bool(getattr(self._units[0], "training", True)),
                self._plan_epoch, extra)

    def _release_compiled(self) -> None:
        """Free every captured plan (arena bytes drop to zero for them)."""
        for step in self._compiled.values():
            step.release()
        self._compiled.clear()

    def _make_tile_fn(self, d: int, t: int):
        """Step function for one unit's tile: loss first (backward root),
        then the tile output (its nbytes feed the TP traffic model)."""
        return lambda xt, yt: self._unit_loss(self._unit(d, t), xt, yt, t,
                                              self._active_loss_fn)

    def _unit_loss(self, model: Module, xt: Tensor, yt: Tensor, t: int,
                   loss_fn) -> tuple[Tensor, Tensor]:
        """Tile ``t``'s loss on one rank's rows, and the model output: the
        one statement of the per-unit loss (eager, compiled, reference)."""
        if self.plan.tiles == 1:
            out = model(xt)
            return loss_fn(out, yt), out
        h, w = xt.shape[-2:]
        spec = make_tiles(h, w, self.plan.tiles, self.halo)[t]
        out = model(extract_tile(xt, spec))
        return tile_core_loss(out, spec, self.factor, yt, loss_fn), out

    # ------------------------------------------------------------------ #
    # backward-driven overlapped reduction (phases 1-2 under backward)
    # ------------------------------------------------------------------ #
    def _begin_overlap_step(self) -> None:
        plan = self.plan
        F = plan.fsdp
        lpad = self._buffers[0].padded_size(F)
        self._shard_len = lpad // F
        self._work_grads = {
            (d, t): np.zeros(lpad, dtype=np.float32)
            for d in range(plan.ddp) for t in range(plan.tiles)
        }
        self._ph1_works = []
        self._ph2_works = {}
        self._fired = {}

    def _on_bucket_ready(self, d: int, t: int, bucket) -> None:
        """Phase 1 of one bucket, launched from unit (d, t)'s tape walk.

        Every FSDP rank contributes the identical unit gradient, and the
        float64 mean of identical float32 values is exact, so the
        reduce-scatter's output *is* its input — the collective runs for
        real traffic and comm-stream time, while the values ride in the
        unit's working padded-gradient vector.  The tail bucket (index 0)
        also owns the zero padding up to ``padded_size(F)``.
        """
        plan = self.plan
        P, F, T = plan.tp, plan.fsdp, plan.tiles
        buf = self._buffer(d, t)
        wg = self._work_grads[(d, t)]
        lo = bucket.lo
        hi = wg.size if bucket.hi == buf.size else bucket.hi
        wg[lo:bucket.hi] = buf.grad[lo:bucket.hi]
        seg = wg[lo:hi]
        m = -(-seg.size // F) * F
        seg_p = np.zeros(m, dtype=np.float32)
        seg_p[:seg.size] = seg
        contributions = [seg_p.reshape(F, -1)] * F
        for p in range(P):
            w1 = self._fsdp_groups[(d, t, p)].reduce_scatter_async(
                contributions, op="mean")
        self._ph1_works.append(w1)
        # phase 2 is reducible once every tile of sample d finished this
        # bucket; the tracer's per-rank comm frontier carries the
        # phase-1 -> phase-2 dependency (each TILES member rank sits in
        # one of the bucket's FSDP groups)
        key = (d, bucket.index)
        self._fired[key] = self._fired.get(key, 0) + 1
        if self._fired[key] == T:
            self._launch_tiles(d, lo, hi, bucket.index)

    def _launch_tiles(self, d: int, lo: int, hi: int, b_idx: int) -> None:
        """Phase 2 of one bucket: TILES all-reduce of the shard sub-ranges.

        The bucket's padded range intersects each FSDP shard ``f`` in a
        sub-range; reducing that slice with the globally aligned ring
        chunk partition is bit-identical to the eager whole-shard call.
        """
        plan = self.plan
        P, F, T = plan.tp, plan.fsdp, plan.tiles
        ln = self._shard_len
        entries = []
        for f in range(F):
            s, e = max(lo, f * ln), min(hi, (f + 1) * ln)
            if e <= s:
                continue
            bufs = [self._work_grads[(d, t)][s:e] for t in range(T)]
            chunks = aligned_ring_chunks(s - f * ln, e - f * ln, ln, T)
            for p in range(P):
                work = self._tiles_groups[(d, f, p)].all_reduce_async(
                    bufs, op="mean", chunks=chunks)
            entries.append((f, s, e, work))
        self._ph2_works[(d, b_idx)] = entries

    def _record_tp_traffic(self, unit: Module, act_nbytes: int,
                           d: int, t: int) -> None:
        """Model the Megatron per-layer all-reduce bill on the TP groups.

        TP compute is shared within a unit (no sharded numerics to run),
        so the traffic is *modelled*, not executed: 2 all-reduces per
        layer forward + 2 backward, ring volume 2(P-1)/P of the layer
        activation, recorded under ``modeled_all_reduce``.
        """
        P = self.plan.tp
        if P == 1:
            return
        depth = getattr(getattr(unit, "config", None), "depth", 1)
        volume = 4 * depth * 2 * (P - 1) / P * act_nbytes
        tracer = active_tracer()
        for f in range(self.plan.fsdp):
            group = self._tp_groups[(d, t, f)]
            group.stats.record("modeled_all_reduce", volume)
            if tracer is not None:
                # the bill is 4*depth per-layer all-reduces of one
                # activation each; coalesce into one span per group,
                # priced by the same ring formula the planner uses
                tracer.collective(
                    "all_reduce", group.ranks, act_nbytes,
                    group.collective_time("all_reduce", act_nbytes),
                    calls=4 * depth)

    # ------------------------------------------------------------------ #
    # the four-phase reduction
    # ------------------------------------------------------------------ #
    def reduce_gradients(self) -> None:
        """All gradient collectives of one step."""
        plan = self.plan
        P, F, T, D = plan.tp, plan.fsdp, plan.tiles, plan.ddp
        shards: dict[tuple[int, int], list[np.ndarray]] = {}
        if self.overlap:
            # phases 1-2 already launched bucket-by-bucket during
            # backward; drain the works and assemble the per-unit shard
            # vectors from the bucket results (each shard element is
            # covered by exactly one bucket)
            ln = self._shard_len
            with span("reduce/overlap_wait", cat="reduce"):
                for w in self._ph1_works:
                    w.wait()
                for d in range(D):
                    for t in range(T):
                        wg = self._work_grads[(d, t)]
                        shards[(d, t)] = [wg[f * ln:(f + 1) * ln].copy()
                                          for f in range(F)]
                for (d, _b), entries in sorted(self._ph2_works.items()):
                    for f, s, e, work in entries:
                        results = work.wait()
                        for t in range(T):
                            shards[(d, t)][f][s - f * ln:e - f * ln] = results[t]
            self._ph1_works, self._ph2_works, self._fired = [], {}, {}
            self._work_grads = {}
        else:
            # phase 1 — FSDP reduce-scatter: every rank of a unit
            # contributes the (identical) unit gradient and keeps its own
            # shard.  The float64 accumulation of identical contributions
            # is exact.
            with span("reduce/fsdp_reduce_scatter", cat="reduce"):
                for d in range(D):
                    for t in range(T):
                        padded = self._buffer(d, t).padded_grad(F).reshape(F, -1)
                        contributions = [padded] * F
                        for p in range(P):
                            result = self._fsdp_groups[(d, t, p)].reduce_scatter(
                                contributions, op="mean")
                        shards[(d, t)] = [r.reshape(-1) for r in result]
            # phase 2 — TILES all-reduce: average each shard across the
            # tiles of one sample (the once-per-batch collective of
            # Sec. III-B)
            with span("reduce/tiles_all_reduce", cat="reduce"):
                for d in range(D):
                    for f in range(F):
                        bufs = [shards[(d, t)][f] for t in range(T)]
                        for p in range(P):
                            result = self._tiles_groups[(d, f, p)].all_reduce(
                                bufs, op="mean")
                        for t in range(T):
                            shards[(d, t)][f] = result[t]
        # phase 3 — DDP all-reduce: average across data-parallel ranks
        with span("reduce/ddp_all_reduce", cat="reduce"):
            for t in range(T):
                for f in range(F):
                    bufs = [shards[(d, t)][f] for d in range(D)]
                    for p in range(P):
                        result = self._ddp_groups[(t, f, p)].all_reduce(
                            bufs, op="mean")
                    for d in range(D):
                        shards[(d, t)][f] = result[d]
        # phase 4 — FSDP all-gather: re-materialise the averaged flat
        # gradient straight into each unit's buffer (zero per-param copies)
        with span("reduce/fsdp_all_gather", cat="reduce"):
            for d in range(D):
                for t in range(T):
                    for p in range(P):
                        result = self._fsdp_groups[(d, t, p)].all_gather(
                            shards[(d, t)])
                    self._buffer(d, t).load_grad(result[0])
        self.steps += 1

    # ------------------------------------------------------------------ #
    def optimizer_params(self) -> list[tuple[list[Parameter], FlatParamBuffer]]:
        """Per-unit ``(params, flat_buffer)`` for optimizer construction."""
        return [(list(u.parameters()), buf)
                for u, buf in zip(self._units, self._buffers)]

    def units(self) -> list[Module]:
        """The executed model instances, one per (d, t) compute unit."""
        return self._units

    def buffers(self) -> list[FlatParamBuffer]:
        return self._buffers

    def unit_grads(self, index: int = 0) -> np.ndarray:
        return flatten_grads(self._units[index])

    def unit_params(self, index: int = 0) -> np.ndarray:
        return self._buffers[index].export_data()

    def apply_sgd(self, lr: float) -> None:
        """Plain SGD on every unit (oracle/test helper)."""
        for model in self._units:
            for p in model.parameters():
                if p.grad is not None:
                    p.data -= lr * p.grad

    def assert_units_synchronized(self, atol: float = 0.0) -> None:
        ref = self._units[0].state_dict()
        for i, unit in enumerate(self._units[1:], start=1):
            for name, arr in unit.state_dict().items():
                if not np.allclose(arr, ref[name], rtol=0.0, atol=atol):
                    raise AssertionError(f"unit {i} drifted on {name}")

    # ------------------------------------------------------------------ #
    # elasticity: live reshard onto a new plan
    # ------------------------------------------------------------------ #
    def export_state(self) -> np.ndarray:
        """The canonical flat parameter vector (all units agree on it)."""
        return self._buffers[0].export_data()

    def import_state(self, canonical: np.ndarray) -> None:
        """Overwrite every unit's flat buffer with the canonical vector."""
        for buf in self._buffers:
            buf.load_data(canonical)

    def reshard(self, new_plan: CompositePlan) -> None:
        """Move the live run onto ``new_plan``, bitwise.

        Export the canonical parameter vector, validate the new plan,
        rebuild units/buffers/process groups/bucketers at the new world
        via :meth:`setup`, and re-import the state.  Every captured
        :class:`CompiledStep` is released and the plan epoch bumped, so
        a surviving ``CompiledStep`` handle held elsewhere also sees a
        guard-key mismatch and recaptures transparently.  After this
        returns, the strategy is bitwise-identical to one constructed
        fresh on ``new_plan`` and fed the same canonical state.
        """
        if self._model_factory is None:
            raise RuntimeError("reshard before setup: no model factory")
        with span("replan/reshard", cat="replan",
                  old=str(self.plan.level_sizes()),
                  new=str(new_plan.level_sizes())):
            with span("replan/validate", cat="replan"):
                new_plan.validate()
            with span("replan/export", cat="replan"):
                canonical = self.export_state()
            self._plan_epoch += 1
            self.plan = new_plan
            with span("replan/rebuild", cat="replan"):
                self.setup(self._model_factory)
            with span("replan/import", cat="replan"):
                self.import_state(canonical)

    # ------------------------------------------------------------------ #
    def level_groups(self) -> dict[str, list[ProcessGroup]]:
        """Process groups per parallelism level, ``{"tp": [...], ...}``."""
        return {
            "tp": list(self._tp_groups.values()),
            "fsdp": list(self._fsdp_groups.values()),
            "tiles": list(self._tiles_groups.values()),
            "ddp": list(self._ddp_groups.values()),
        }

    def comm_summary(self, reset: bool = False) -> dict:
        """``{"<level>_level_bytes": total, "calls": {...}}`` per level.

        ``calls`` holds per-op call counts per level; ``async_launches``
        counts the subset issued through the async API (bucketed
        overlap); ``per_step`` divides each level's bytes by ``steps``.
        ``reset=True`` zeroes the accounting after the snapshot, so
        callers measuring per-phase traffic stop hand-rolling the
        snapshot/reset pair.
        """
        out: dict = {"calls": {}, "async_launches": {}}
        for level, groups in self.level_groups().items():
            out[f"{level}_level_bytes"] = float(
                sum(g.stats.total_bytes() for g in groups)
            )
            calls: dict[str, int] = {}
            launches: dict[str, int] = {}
            for g in groups:
                for op, n in g.stats.calls.items():
                    calls[op] = calls.get(op, 0) + n
                for op, n in g.stats.async_launches.items():
                    launches[op] = launches.get(op, 0) + n
            out["calls"][level] = calls
            out["async_launches"][level] = launches
        out["steps"] = self.steps
        out["per_step"] = {
            level: (out[f"{level}_level_bytes"] / self.steps
                    if self.steps else 0.0)
            for level in ("tp", "fsdp", "tiles", "ddp")
        }
        if reset:
            self.reset_comm()
        return out

    def reset_comm(self) -> None:
        """Zero every group's :class:`~.comm.CommStats` and the step count
        (epoch accounting)."""
        for groups in self.level_groups().values():
            for g in groups:
                g.stats.reset()
        self.steps = 0

    # ------------------------------------------------------------------ #
    # single-rank reference semantics
    # ------------------------------------------------------------------ #
    def reference_forward(self, model: Module, inputs) -> np.ndarray:
        """Single-model output on the whole batch, tiled like the plan."""
        if self.plan.tiles > 1:
            model = TiledDownscaler(model, n_tiles=self.plan.tiles,
                                    halo=self.halo, factor=self.factor)
        return model(Tensor(inputs)).data

    def reference_step(self, model: Module, inputs, targets) -> np.ndarray:
        """Flat single-model gradient matching the plan's loss
        decomposition: per-(rank, tile) microbatch gradients averaged in
        float64 (the mirror of the collectives' reduction)."""
        thunks = []
        for rows in self._rank_rows(inputs.shape[0]):
            xt, yt = Tensor(inputs[rows]), Tensor(targets[rows])
            for t in range(self.plan.tiles):
                thunks.append(lambda xt=xt, yt=yt, t=t:
                              self._unit_loss(model, xt, yt, t, self.loss_fn)[0])
        return _microbatch_mean_grads(model, thunks)
