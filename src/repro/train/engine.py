"""The distributed training engine: Trainer machinery × strategy layer.

:class:`DistributedEngine` runs the full composite parallel stack
(TP × FSDP × TILES × DDP, Fig. 5) through the single-process
:class:`~repro.train.trainer.Trainer`'s template hooks — so AMP loss
scaling, gradient clipping, the warmup-cosine schedule, history tracking,
and checkpointing are the *same code* whether training runs on one
process or on the virtual cluster.  Only three hooks differ:

* ``_build_optimizer`` makes one AdamW per model unit, each *adopting*
  the unit's :class:`~repro.nn.flat.FlatParamBuffer` — optimizer steps
  and gradient collectives share one allocation (no re-flattening);
* ``_backward`` routes through
  :meth:`CompositeStrategy.forward_backward` +
  :meth:`~CompositeStrategy.reduce_gradients`;
* ``_forward_loss`` (evaluation) uses the strategy's tiled forward, so
  images larger than one unit's token budget still evaluate.

The loss defaults to per-tile MSE.  Passing ``latitude_loss=True``
installs :class:`~repro.core.losses.LatitudeTileLoss` instead — the
paper's latitude-weighted data term with each tile slicing its own rows
out of the full-grid weight matrix (no per-tile re-normalization), so
the distributed objective matches ``Trainer``'s full-grid weighted MSE.
The TV prior still does not decompose over tiles (neighbour pairs cross
tile boundaries), so the distributed objective is the ``tv_weight=0``
Bayesian loss.

With a trivial plan (``tp=fsdp=tiles=ddp=1``) and the same loss, the
engine's training trajectory is bit-identical to ``Trainer``'s — the
collectives degenerate to copies and the flat AdamW update is shared.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.losses import LatitudeTileLoss
from ..data.datasets import DownscalingDataset
from ..data.grids import latitude_weights
from ..distributed.elastic import CanonicalState, FaultPlan
from ..distributed.strategy import CompositePlan, CompositeStrategy
from ..nn import AdamW
from ..obs.tracer import active_tracer, span
from ..tensor import Tensor
from .trainer import TrainConfig, Trainer, load_checkpoint, save_checkpoint

__all__ = ["DistributedEngine", "mse_loss"]


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Plain MSE — the default per-tile training objective."""
    diff = pred - target
    return (diff * diff).mean()


class _TileAwareLoss:
    """Marks a wrapped ``(pred, target, spec)`` callable as tile-aware so
    :func:`~repro.distributed.strategy.tile_core_loss` forwards the
    :class:`~repro.core.tiles.TileSpec` through the AMP adapter."""

    tile_aware = True

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, pred: Tensor, target: Tensor, spec=None) -> Tensor:
        return self._fn(pred, target, spec)


class DistributedEngine(Trainer):
    """Train one model across the composite parallel stack.

    Parameters
    ----------
    model_factory:
        ``factory(unit_index) -> Module`` building one model unit; all
        units are synchronized to unit 0's weights.
    dataset / config / val_dataset:
        As for :class:`Trainer`.  ``config.batch_size`` must equal the
        plan's data-parallel ways, and the dataset must divide evenly
        into such batches (the composite step has no ragged-batch path).
    plan:
        The :class:`CompositePlan` mapping the world onto
        TP × FSDP × TILES × DDP.
    halo / factor:
        TILES configuration (coarse-pixel halo, refinement factor).
    loss_fn:
        Per-tile loss ``(pred, target) -> Tensor``; defaults to
        :func:`mse_loss`.
    latitude_loss:
        Use the paper's latitude-weighted data term
        (:class:`~repro.core.losses.LatitudeTileLoss` over the dataset's
        fine grid) instead of plain MSE.  Mutually exclusive with
        ``loss_fn``.
    overlap / bucket_bytes:
        Enable backward-driven bucketed async gradient reduction in the
        strategy (bit-identical to the eager reduce; see
        :class:`~repro.distributed.bucketer.GradBucketer`).
    """

    def __init__(self, model_factory, dataset: DownscalingDataset,
                 config: TrainConfig, plan: CompositePlan,
                 halo: int = 2, factor: int = 2, loss_fn=None,
                 latitude_loss: bool = False,
                 overlap: bool = False, bucket_bytes: int = 1 << 16,
                 val_dataset: DownscalingDataset | None = None,
                 compile: bool = False, monitor=None):
        if config.batch_size != plan.ddp:
            raise ValueError(
                f"batch_size {config.batch_size} != plan data-parallel "
                f"ways {plan.ddp}"
            )
        if len(dataset) % config.batch_size:
            raise ValueError(
                f"dataset of {len(dataset)} does not divide into batches "
                f"of {config.batch_size}"
            )
        if latitude_loss and loss_fn is not None:
            raise ValueError("pass either loss_fn or latitude_loss, not both")
        self.plan = plan
        if latitude_loss:
            self._tile_loss = LatitudeTileLoss(
                latitude_weights(dataset.spec.fine_grid), factor=factor)
        else:
            self._tile_loss = loss_fn or mse_loss
        strategy_loss = (_TileAwareLoss(self._strategy_loss)
                         if getattr(self._tile_loss, "tile_aware", False)
                         else self._strategy_loss)
        # the per-tile loss reads the live loss scale inside the captured
        # graph, so compiled steps must recapture whenever it moves
        self.strategy = CompositeStrategy(
            plan, strategy_loss, halo=halo, factor=factor,
            overlap=overlap, bucket_bytes=bucket_bytes, compile=compile,
            compile_guard=lambda: (
                self.scaler.scale_value
                if getattr(self, "scaler", None) is not None else None))
        self.strategy.setup(model_factory)
        super().__init__(self.strategy.units()[0], dataset, config,
                         val_dataset=val_dataset, monitor=monitor)
        # Trainer installs the full-grid Bayesian loss; the engine's
        # objective is the per-tile loss (see the module docstring)
        self.loss_fn = self._tile_loss
        self._fault_plan: FaultPlan | None = None
        self.replan_log: list[dict] = []

    # ------------------------------------------------------------------ #
    # hooks
    # ------------------------------------------------------------------ #
    def _build_optimizer(self):
        # one AdamW per unit, adopting the unit's flat buffer so the
        # optimizer step and the gradient collectives share storage
        self._unit_optimizers = [
            AdamW(params, lr=self.config.lr,
                  weight_decay=self.config.weight_decay, flat=buf)
            for params, buf in self.strategy.optimizer_params()
        ]
        return self._unit_optimizers[0]

    def _optimizers(self) -> list:
        return self._unit_optimizers

    def _strategy_loss(self, pred: Tensor, target: Tensor, spec=None) -> Tensor:
        """Per-tile loss with the Trainer's AMP semantics applied."""
        if self.cast is not None:
            pred = self.cast(pred)
        if spec is not None and getattr(self._tile_loss, "tile_aware", False):
            loss = self._tile_loss(pred, target, spec)
        else:
            loss = self._tile_loss(pred, target)
        if self.scaler is not None:
            loss = self.scaler.scale(loss)
        return loss

    def _backward(self, batch) -> float:
        with span("train/forward_backward", cat="step"):
            losses = self.strategy.forward_backward(batch.inputs, batch.targets)
        with span("train/reduce", cat="step"):
            self.strategy.reduce_gradients()
        mean = float(np.mean(losses))
        if self.scaler is not None:
            mean /= self.scaler.scale_value  # report the unscaled loss
        return mean

    def _forward_loss(self, batch) -> Tensor:
        # evaluation path: the strategy's tiled forward handles images
        # beyond a single unit's token budget
        pred = Tensor(self.strategy.forward(batch.inputs))
        if self.cast is not None:
            pred = self.cast(pred)
        return self.loss_fn(pred, Tensor(batch.targets))

    # ------------------------------------------------------------------ #
    # elasticity: live replan, rank-failure recovery, checkpointing
    # ------------------------------------------------------------------ #
    def export_state(self) -> CanonicalState:
        """Snapshot the run into the plan-independent canonical form."""
        m, v, t = self._unit_optimizers[0].export_state()
        extra: dict = {}
        if self.scaler is not None:
            extra["loss_scale"] = self.scaler.scale_value
        return CanonicalState(data=self.strategy.export_state(),
                              adam_m=m, adam_v=v, adam_t=t,
                              step=self._step, extra=extra)

    def import_state(self, state: CanonicalState) -> None:
        """Restore a canonical snapshot onto the current plan, bitwise."""
        self.strategy.import_state(state.data)
        if state.adam_m is not None:
            for opt in self._unit_optimizers:
                opt.import_state(state.adam_m, state.adam_v, state.adam_t)
        self._step = int(state.step)
        if self.scaler is not None and "loss_scale" in state.extra:
            self.scaler.scale_value = float(state.extra["loss_scale"])

    def replan(self, new_plan: CompositePlan) -> dict:
        """Reshard the live run onto ``new_plan``; returns a replan report.

        Re-validates the new plan against the run's batch semantics,
        exports canonical state, rebuilds units/groups/buckets through
        :meth:`CompositeStrategy.reshard` (which also invalidates every
        captured :class:`~repro.tensor.compile.CompiledStep` so compiled
        replay recaptures transparently), rebuilds the per-unit
        optimizers on the new flat buffers, and re-imports parameters +
        AdamW moments.  The next training step is bitwise-identical to a
        fresh engine at the new world fed the same canonical state.
        """
        from ..distributed.perf_model import reshard_cost

        if self.config.batch_size != new_plan.ddp:
            raise ValueError(
                f"batch_size {self.config.batch_size} != new plan "
                f"data-parallel ways {new_plan.ddp}"
            )
        old_plan = self.plan
        state = self.export_state()
        t0 = time.perf_counter()
        with span("replan/engine", cat="replan",
                  old=str(old_plan.level_sizes()),
                  new=str(new_plan.level_sizes())):
            self.strategy.reshard(new_plan)
            self.plan = new_plan
            with span("replan/optimizers", cat="replan"):
                self.optimizer = self._build_optimizer()
                for opt in self._unit_optimizers:
                    opt.import_state(state.adam_m, state.adam_v, state.adam_t)
            self.model = self.strategy.units()[0]
        downtime_s = time.perf_counter() - t0
        cost = reshard_cost(old_plan, new_plan, state.nbytes)
        tracer = active_tracer()
        if tracer is not None:
            tracer.metrics.inc("replan/count")
            tracer.metrics.observe("replan/downtime_s", downtime_s)
            tracer.metrics.observe("replan/modeled_downtime_s",
                                   cost["downtime_s"])
        report = {
            "old": old_plan.layout(), "new": new_plan.layout(),
            "step": self._step, "state_bytes": state.nbytes,
            "downtime_s": downtime_s, "modeled": cost,
        }
        self.replan_log.append(report)
        if self.monitor is not None:
            self.monitor.event(
                "replan", t=float(self._step),
                old=dict(old_plan.layout()), new=dict(new_plan.layout()),
                step=self._step, state_bytes=state.nbytes,
                modeled_downtime_s=cost["downtime_s"])
        return report

    def attach_fault_plan(self, fault_plan: FaultPlan) -> None:
        """Arm scripted rank failures; recovery runs through replan."""
        self._fault_plan = fault_plan

    def _train_step_impl(self, batch) -> float:
        fp = self._fault_plan
        if fp is not None:
            dead = fp.dead_at(self._step)
            if dead:
                bad = [r for r in dead if not 0 <= r < self.plan.world]
                if bad:
                    raise ValueError(
                        f"fault plan kills ranks {bad} outside world "
                        f"{self.plan.world}")
                survivors = self.plan.world - len(dead)
                if self.monitor is not None:
                    self.monitor.event("rank_failure", t=float(self._step),
                                       step=self._step, dead=list(dead),
                                       survivors=survivors)
                with span("replan/failure", cat="replan",
                          step=self._step, dead=str(list(dead))):
                    report = self.replan(self.plan.shrink_to(survivors))
                report["dead_ranks"] = list(dead)
                tracer = active_tracer()
                if tracer is not None:
                    tracer.metrics.inc("replan/rank_failures", len(dead))
        return super()._train_step_impl(batch)

    def _monitor_state(self) -> dict:
        from ..tensor import graph_counters
        state = super()._monitor_state()
        state["plan"] = dict(self.plan.layout())
        state["plan_epoch"] = self.strategy._plan_epoch
        state["replans"] = len(self.replan_log)
        # compiled steps live in the strategy, not the Trainer flag, so
        # always embed the guard counters (as deltas against the
        # construction-time baseline: the raw counters are process-global)
        state["graph_counters"] = {
            k: v - self._graph_base.get(k, 0)
            for k, v in graph_counters().items()}
        return state

    def save(self, path, extra: dict | None = None) -> None:
        """Checkpoint unit 0 with this run's plan-layout metadata."""
        save_checkpoint(self.model, path, extra=extra, plan=self.plan)

    def load(self, path) -> dict:
        """Load a checkpoint, validating its layout against this plan."""
        extra = load_checkpoint(self.model, path, expect_plan=self.plan)
        self.sync_units()
        return extra

    # ------------------------------------------------------------------ #
    def sync_units(self) -> None:
        """Re-broadcast unit 0's weights (after a checkpoint load)."""
        state = self.model.state_dict()
        for unit in self.strategy.units()[1:]:
            unit.load_state_dict(state)

    def assert_synchronized(self, atol: float = 1e-6) -> None:
        self.strategy.assert_units_synchronized(atol=atol)

    def communication_summary(self, reset: bool = False) -> dict:
        return self.strategy.comm_summary(reset=reset)

    def reset_comm(self) -> None:
        self.strategy.reset_comm()
