"""The strategy layer (Sec. III-C): every parallelism that trains.

Training runs through exactly one strategy, :class:`CompositeStrategy`:

* ``setup(model_factory)`` builds its one model and the process groups;
* ``forward(inputs)`` — full-batch inference;
* ``forward_backward(inputs, targets)`` (per-unit compute, NO
  collectives) then ``reduce_gradients()`` (all gradient communication
  for the step) — the train-step split;
* ``model`` and ``buffers()[0]`` — the model and its
  :class:`~repro.nn.flat.FlatParamBuffer`, which the optimizer adopts,
  so it steps the buffer the collectives fill;
* ``reference_forward`` / ``reference_step`` — the single-model
  semantics the equivalence oracle compares against;
* ``comm_summary()`` / ``reset_comm()`` — per-level byte accounting.

Plain DDP, FSDP and TILES are its degenerate plans
``CompositePlan(ddp=W)``, ``(fsdp=W)``, ``(tiles=W)``: a size-1 level's
collective leaves its buffer as it is.  The forward-only engines
(tensor parallel, Ulysses, Hybrid-OP) are not strategies; the oracle
drives them directly.

:class:`CompositePlan` is Fig. 5's orthogonal layout as the explicit
four-factor decomposition ``tp x fsdp x tiles x ddp == world`` with the
rank layout ``rank = ((d*tiles + t)*fsdp + f)*tp
+ p`` (tensor parallel innermost/contiguous, matching Fig. 5's placement
of TP on the fast in-node links).  :class:`CompositeStrategy` executes
the full stack end-to-end on the virtual cluster:

* one **compute unit** per (data-parallel rank ``d``, tile ``t``)
  pair: rank ``d`` holds rows ``d*k:(d+1)*k`` of the batch, ``k = batch
  // ddp``.  Every replica would hold the same bytes, so the units share
  one model and one flat buffer: a unit is a row slice and a tile
  index, run in turn, and its gradient is copied into its own per-step
  *work gradient* (the flat gradient padded to a multiple of ``fsdp``).
  The FSDP and TP ranks of a unit share its compute (shared arithmetic,
  genuine traffic), with the per-layer TP all-reduce volume recorded as
  modelled traffic on the TP groups;
* FSDP reduce-scatters each unit's work gradient in place into per-rank
  shards, its blocks (identical contributions accumulate in float64 —
  exact); the later phases reduce those blocks in place too;
* the TILES all-reduce averages shards across the tiles of one sample
  (once per batch, Sec. III-B);
* the DDP all-reduce averages across data-parallel ranks;
* the FSDP all-gather moves nothing (the shards tile the work gradient)
  and is billed.

The two ring phases average over all (d, t) units, so every unit ends
with the single-process gradient of the whole batch — the composition
law the oracle verifies.  ``reduce_gradients`` checks that every unit's
reduced work gradient has unit (0, 0)'s bytes, then ``load_grad``
copies that one result into the flat buffer, whose pre-attached
``.grad`` views see it with zero copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.tiles import TiledDownscaler, TilePlan, TileSpec, extract_tile
from ..nn import Module
from ..obs.tracer import active_tracer, span
from ..nn.flat import FlatParamBuffer, flatten_grads
from ..tensor import CompiledStep, Tensor
from ..tensor.compile import Arena
from .bucketer import GradBucketer, aligned_ring_chunks
from .comm import ProcessGroup, VirtualCluster

__all__ = [
    "CompositePlan",
    "CompositeStrategy",
    "tile_core_loss",
]


def tile_core_loss(out: Tensor, spec: TileSpec, factor: int,
                   targets: np.ndarray, loss_fn) -> Tensor:
    """Loss on a tile's core region (halo outputs cropped, Sec. III-B)."""
    core = spec.core_of(out, factor)
    # Tensor targets slice through the graph (a view getitem) so compiled
    # steps see the target as a live input instead of a frozen constant
    ys, xs = spec.fine_core(factor)
    sel = np.s_[:, :, ys, xs]
    tile_target = targets[sel] if isinstance(targets, Tensor) else Tensor(targets[sel])
    if tile_target.shape[-2:] != core.shape[-2:]:
        raise ValueError(
            f"tile ({spec.row}, {spec.col}) target {tile_target.shape[-2:]} "
            f"!= its core {core.shape[-2:]}")
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
    Each FSDP, TILES and DDP rank set has one group per tensor-parallel
    index ``p``; the ``P`` groups share one set of buffers, so
    :meth:`_reduce_once` reduces them once and bills the others.
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
        # one captured plan per tile index: every rank's rows replay it
        self._compiled: dict[int, CompiledStep] = {}
        self._arena = Arena()   # the tile plans replay one after another
        self._active_loss_fn = loss_fn
        self.steps = 0
        self.model: Module | None = None
        # counts reshards, for the monitor; plans do not depend on it
        self._plan_epoch = 0

    # ------------------------------------------------------------------ #
    def setup(self, model_factory) -> None:
        """Build the one model, ``model_factory(0)``, its flat buffer and
        bucketer, and the plan's process groups."""
        self._release_compiled()
        self.model = model_factory(0)
        self._buffer = FlatParamBuffer(list(self.model.parameters()))
        self._bucketer = (GradBucketer(self._buffer, self.bucket_bytes)
                          if self.overlap else None)
        self._ph1_works: list = []
        self._ph2_works: dict = {}
        self._fired: dict = {}
        self._work_grads: dict[tuple[int, int], np.ndarray] = {}
        self._build_groups()

    def _build_groups(self) -> None:
        """One ProcessGroup object per rank set, built once per plan so
        CommStats accumulate across steps; a reduction level keys the P
        groups of its tensor-parallel replicas together."""
        plan = self.plan
        cluster = plan.cluster
        P = range(plan.tp)
        self._tp_groups = {
            (d, t, f): cluster.group(plan.tp_ranks(d, t, f))
            for d in range(plan.ddp) for t in range(plan.tiles)
            for f in range(plan.fsdp)
        }
        self._fsdp_groups = {
            (d, t): [cluster.group(plan.fsdp_ranks(d, t, p)) for p in P]
            for d in range(plan.ddp) for t in range(plan.tiles)
        }
        self._tiles_groups = {
            (d, f): [cluster.group(plan.tiles_ranks(d, f, p)) for p in P]
            for d in range(plan.ddp) for f in range(plan.fsdp)
        }
        self._ddp_groups = {
            (t, f): [cluster.group(plan.ddp_ranks(t, f, p)) for p in P]
            for t in range(plan.tiles) for f in range(plan.fsdp)
        }

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

    def _tile_plan(self, grid) -> TilePlan:
        return TilePlan.build(grid, self.plan.tiles, self.halo, self.factor)

    def _check_batch(self, inputs, targets) -> None:
        """Targets pair with inputs: one per sample and, under TILES,
        on the input grid × ``factor`` (each tile slices its core's
        target out of it)."""
        if targets.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"inputs/targets batch sizes differ: "
                f"{inputs.shape[0]} != {targets.shape[0]}")
        if self.plan.tiles == 1:
            return
        want = tuple(n * self.factor for n in inputs.shape[-2:])
        if tuple(targets.shape[-2:]) != want:
            raise ValueError(
                f"targets grid {tuple(targets.shape[-2:])} != inputs grid "
                f"{tuple(inputs.shape[-2:])} x factor {self.factor}")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Inference: each rank's samples, tiled over its units, stitched."""
        tiles = (self._tile_plan(inputs.shape[-2:]) if self.plan.tiles > 1
                 else None)
        outs = []
        for rows in self._rank_rows(inputs.shape[0]):
            x = Tensor(inputs[rows])
            if tiles is None:
                outs.append(self.model(x).data)
                continue
            tile_outs = [self.model(extract_tile(x, spec)) for spec in tiles.specs]
            outs.append(tiles.stitch(tile_outs).data)
        return np.concatenate(outs)

    def forward_backward(self, inputs: np.ndarray, targets: np.ndarray,
                         loss_fn=None) -> list[float]:
        """Per-unit forward/backward (no communication); per-unit losses.

        The units run in turn on the one model: each zeroes its gradient,
        and its result lands in the unit's work gradient, bucket by
        bucket under overlap, else copied after its backward."""
        loss_fn = loss_fn or self.loss_fn
        self._active_loss_fn = loss_fn
        plan = self.plan
        self._check_batch(inputs, targets)
        rank_rows = self._rank_rows(inputs.shape[0])
        buf, bucketer = self._buffer, self._bucketer
        lpad = buf.padded_size(plan.fsdp)
        self._ph1_works, self._ph2_works, self._fired = [], {}, {}
        self._work_grads = {}
        losses = []
        for d, rows in enumerate(rank_rows):
            x, y = Tensor(inputs[rows]), Tensor(targets[rows])
            for t in range(plan.tiles):
                buf.zero_grad()
                wg = self._work_grads[(d, t)] = np.zeros(lpad, dtype=np.float32)
                if bucketer is not None:
                    bucketer.arm(lambda bucket, d=d, t=t:
                                 self._on_bucket_ready(d, t, bucket))
                try:
                    if self.compile:
                        loss_data, out_data = self._compiled_step(t)(
                            inputs[rows], targets[rows])
                        loss_val, out_nbytes = float(loss_data), out_data.nbytes
                    else:
                        loss, out = self._unit_loss(self.model, x, y, t, loss_fn)
                        loss.backward()
                        loss_val, out_nbytes = float(loss.data), out.data.nbytes
                    if bucketer is not None:
                        bucketer.flush()
                finally:
                    if bucketer is not None:
                        bucketer.disarm()
                buf.sync_grads()
                if bucketer is None:
                    wg[:buf.size] = buf.grad
                self._record_tp_traffic(out_nbytes, d, t)
                losses.append(loss_val)
        return losses

    def step(self, inputs, targets) -> list[float]:
        """One gradient step: compute then communicate; per-unit losses."""
        losses = self.forward_backward(inputs, targets)
        self.reduce_gradients()
        return losses

    # ------------------------------------------------------------------ #
    # compiled per-tile steps
    # ------------------------------------------------------------------ #
    def _compiled_step(self, t: int) -> CompiledStep:
        """Tile ``t``'s plan.  Every rank's rows have the shapes of rank
        0's and run the same model, so they replay the plan rank 0
        captured (replay equals eager bit for bit)."""
        step = self._compiled.get(t)
        if step is None:
            step = CompiledStep(self._make_tile_fn(t),
                                guard_extra=self._guard_key, arena=self._arena)
            self._compiled[t] = step
        return step

    def _guard_key(self):
        extra = self._compile_guard() if self._compile_guard is not None else None
        return (id(self._active_loss_fn),
                bool(getattr(self.model, "training", True)), extra)

    def _release_compiled(self) -> None:
        """Free every captured plan (arena bytes drop to zero for them)."""
        for step in self._compiled.values():
            step.release()
        self._compiled.clear()

    def _make_tile_fn(self, t: int):
        """Step function for tile ``t``: loss first (backward root), then
        the tile output (its nbytes feed the TP traffic model)."""
        return lambda xt, yt: self._unit_loss(self.model, xt, yt, t,
                                              self._active_loss_fn)

    def _unit_loss(self, model: Module, xt: Tensor, yt: Tensor, t: int,
                   loss_fn) -> tuple[Tensor, Tensor]:
        """Tile ``t``'s loss on one rank's rows, and the model output: the
        one statement of the per-unit loss (eager, compiled, reference)."""
        if self.plan.tiles == 1:
            out = model(xt)
            return loss_fn(out, yt), out
        spec = self._tile_plan(xt.shape[-2:]).specs[t]
        out = model(extract_tile(xt, spec))
        return tile_core_loss(out, spec, self.factor, yt, loss_fn), out

    # ------------------------------------------------------------------ #
    # backward-driven overlapped reduction (phases 1-2 under backward)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _reduce_once(groups: list[ProcessGroup], name: str, buffers,
                     launch: bool = False, **kw):
        """Run collective ``name`` once for the ``P`` TP replica groups.

        They share one set of buffers, and a second in-place mean of
        averaged values re-rounds: every group but the last is billed
        alone, then the last runs it (the order of P separate calls)."""
        for g in groups[:-1]:
            g.bill(name, buffers, launch)
        last = groups[-1]
        return getattr(last, name + "_async" if launch else name)(buffers, **kw)

    def _on_bucket_ready(self, d: int, t: int, bucket) -> None:
        """Phase 1 of one bucket, launched from unit (d, t)'s tape walk.

        The bucket's gradient is copied into the unit's work gradient;
        the FSDP reduce-scatter runs in place on it, rounded up to a
        multiple of F elements (shifted left at the end).  The float64
        mean of the F ranks' identical values is exact, so every element
        is rewritten unchanged: the collective runs for real traffic and
        comm-stream time.  The tail bucket (index 0) also owns the zero
        padding up to ``padded_size(F)``.
        """
        F, T = self.plan.fsdp, self.plan.tiles
        buf = self._buffer
        wg = self._work_grads[(d, t)]
        lo = bucket.lo
        hi = wg.size if bucket.hi == buf.size else bucket.hi
        wg[lo:bucket.hi] = buf.grad[lo:bucket.hi]
        m = -(-(hi - lo) // F) * F
        s = min(lo, wg.size - m)
        seg = wg[s:s + m].reshape(F, -1)
        self._ph1_works.append(self._reduce_once(
            self._fsdp_groups[(d, t)], "reduce_scatter", [seg] * F,
            launch=True, op="mean"))
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
        sub-range; reducing that slice of the tiles' work gradients in
        place with the globally aligned ring chunk partition is
        bit-identical to the eager whole-shard call.
        """
        F, T = self.plan.fsdp, self.plan.tiles
        ln = self._work_grads[(d, 0)].size // F
        works = []
        for f in range(F):
            s, e = max(lo, f * ln), min(hi, (f + 1) * ln)
            if e <= s:
                continue
            bufs = [self._work_grads[(d, t)][s:e] for t in range(T)]
            chunks = aligned_ring_chunks(s - f * ln, e - f * ln, ln, T)
            works.append(self._reduce_once(
                self._tiles_groups[(d, f)], "all_reduce", bufs,
                launch=True, op="mean", chunks=chunks))
        self._ph2_works[(d, b_idx)] = works

    def _record_tp_traffic(self, act_nbytes: int, d: int, t: int) -> None:
        """Model the Megatron per-layer all-reduce bill on the TP groups.

        TP compute is shared within a unit (no sharded numerics to run),
        so the traffic is *modelled*, not executed: 2 all-reduces per
        layer forward + 2 backward, ring volume 2(P-1)/P of the layer
        activation, recorded under ``modeled_all_reduce``.
        """
        P = self.plan.tp
        if P == 1:
            return
        depth = getattr(getattr(self.model, "config", None), "depth", 1)
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
        """All gradient collectives of one step, in place on the per-step
        work gradients; then the drift check and one ``load_grad``."""
        plan = self.plan
        F, T, D = plan.fsdp, plan.tiles, plan.ddp
        if self.overlap:
            # phases 1-2 already ran bucket by bucket during backward;
            # waiting completes their comm-stream time
            with span("reduce/overlap_wait", cat="reduce"):
                for w in self._ph1_works:
                    w.wait()
                for _, works in sorted(self._ph2_works.items()):
                    for w in works:
                        w.wait()
        work = self._work_grads
        shards = {key: wg.reshape(F, -1) for key, wg in work.items()}
        if not self.overlap:
            # phase 1 — FSDP reduce-scatter: every rank of a unit
            # contributes the (identical) unit gradient and keeps its own
            # shard.  The float64 accumulation of identical contributions
            # is exact.
            with span("reduce/fsdp_reduce_scatter", cat="reduce"):
                for key, rows in shards.items():
                    self._reduce_once(self._fsdp_groups[key], "reduce_scatter",
                                      [rows] * F, op="mean")
            # phase 2 — TILES all-reduce: average each shard across the
            # tiles of one sample (the once-per-batch collective of
            # Sec. III-B)
            with span("reduce/tiles_all_reduce", cat="reduce"):
                for d in range(D):
                    for f in range(F):
                        self._reduce_once(
                            self._tiles_groups[(d, f)], "all_reduce",
                            [shards[(d, t)][f] for t in range(T)], op="mean")
        # phase 3 — DDP all-reduce: average across data-parallel ranks
        with span("reduce/ddp_all_reduce", cat="reduce"):
            for t in range(T):
                for f in range(F):
                    self._reduce_once(
                        self._ddp_groups[(t, f)], "all_reduce",
                        [shards[(d, t)][f] for d in range(D)], op="mean")
        # phase 4 — FSDP all-gather: the shards already tile each work
        # gradient, so it is billed; every unit now holds one result
        with span("reduce/fsdp_all_gather", cat="reduce"):
            for key in work:
                for g in self._fsdp_groups[key]:
                    g.bill("all_gather", list(shards[key]))
            self._buffer.load_grad(self._agreed(work))
        self._ph1_works, self._ph2_works, self._fired = [], {}, {}
        self._work_grads = {}
        self.steps += 1

    @staticmethod
    def _agreed(work: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        """Unit (0, 0)'s reduced work gradient, once every unit's has its
        bytes: ``-0.0`` against ``+0.0`` is drift, identical NaNs are
        not.  The reduction leaves all units one result, so a unit that
        differs means a collective broke that."""
        ref = work[(0, 0)]
        bits = ref.view(np.uint32)
        for key, wg in work.items():
            if wg is not ref and not np.array_equal(wg.view(np.uint32), bits):
                raise RuntimeError(
                    f"unit {key}'s reduced gradient drifted from unit (0, 0)'s")
        return ref

    # ------------------------------------------------------------------ #
    def buffers(self) -> list[FlatParamBuffer]:
        """The model's flat buffer, the one the optimizer adopts."""
        return [self._buffer]

    def unit_grads(self) -> np.ndarray:
        return flatten_grads(self.model)

    def unit_params(self) -> np.ndarray:
        return self._buffer.export_data()

    def apply_sgd(self, lr: float) -> None:
        """Plain SGD on the model (oracle/test helper)."""
        for p in self.model.parameters():
            if p.grad is not None:
                p.data -= lr * p.grad

    # ------------------------------------------------------------------ #
    # elasticity: live reshard onto a new plan
    # ------------------------------------------------------------------ #
    def export_state(self) -> np.ndarray:
        """The canonical flat parameter vector."""
        return self._buffer.export_data()

    def import_state(self, canonical: np.ndarray) -> None:
        """Overwrite the flat buffer with the canonical vector."""
        self._buffer.load_data(canonical)

    def reshard(self, new_plan: CompositePlan) -> None:
        """Move the live run onto ``new_plan``, bitwise.

        The model, its flat buffer and bucketer do not depend on the
        plan, so only the process groups are rebuilt.  A tile's plan
        replays on any rank's rows, so captured plans (and their arena
        slabs) are kept unless the tile count changes, which releases
        them.  After this returns, the strategy is bitwise-identical to
        one constructed fresh on ``new_plan`` with the same parameters.
        """
        if self.model is None:
            raise RuntimeError("reshard before setup: no model")
        with span("replan/reshard", cat="replan",
                  old=str(self.plan.level_sizes()),
                  new=str(new_plan.level_sizes())):
            with span("replan/validate", cat="replan"):
                new_plan.validate()
            if new_plan.tiles != self.plan.tiles:
                self._release_compiled()
            self._plan_epoch += 1
            self.plan = new_plan
            with span("replan/rebuild", cat="replan"):
                self._build_groups()

    # ------------------------------------------------------------------ #
    def level_groups(self) -> dict[str, list[ProcessGroup]]:
        """Process groups per parallelism level, ``{"tp": [...], ...}``."""
        def flat(replicas):
            return [g for groups in replicas.values() for g in groups]

        return {
            "tp": list(self._tp_groups.values()),
            "fsdp": flat(self._fsdp_groups),
            "tiles": flat(self._tiles_groups),
            "ddp": flat(self._ddp_groups),
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
        self._check_batch(inputs, targets)
        thunks = []
        for rows in self._rank_rows(inputs.shape[0]):
            xt, yt = Tensor(inputs[rows]), Tensor(targets[rows])
            for t in range(self.plan.tiles):
                thunks.append(lambda xt=xt, yt=yt, t=t:
                              self._unit_loss(model, xt, yt, t, self.loss_fn)[0])
        return _microbatch_mean_grads(model, thunks)
