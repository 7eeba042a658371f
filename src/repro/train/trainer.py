"""Training harness: pretraining and fine-tuning loops with mixed
precision, gradient clipping, checkpointing, and metric tracking."""

from __future__ import annotations

import math
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.losses import BayesianDownscalingLoss
from ..data.datasets import DownscalingDataset
from ..data.grids import latitude_weights
from ..nn import AdamW, Bf16Cast, GradScaler, Module, clip_grad_norm, warmup_cosine
from ..obs.tracer import active_tracer, span
from ..tensor import CompiledStep, Tensor, no_grad

__all__ = ["TrainConfig", "Trainer", "save_checkpoint", "load_checkpoint",
           "CHECKPOINT_FORMAT_VERSION"]


@dataclass
class TrainConfig:
    """Hyper-parameters for one training run."""

    epochs: int = 3
    batch_size: int = 2
    lr: float = 3e-3
    min_lr: float = 1e-5
    warmup_steps: int = 5
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    tv_weight: float = 0.02
    bf16: bool = False
    seed: int = 0
    log_every: int = 0  # 0 disables stdout logging


@dataclass
class TrainHistory:
    """Per-epoch record of losses and gradient health."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    skipped_steps: int = 0
    clip_events: int = 0


class Trainer:
    """Single-process trainer binding model, data, loss, and optimizer.

    The loss is the paper's Bayesian objective (latitude-weighted MSE +
    MRF-TV prior) on the fine grid of the training dataset.
    """

    def __init__(self, model: Module, dataset: DownscalingDataset,
                 config: TrainConfig, val_dataset: DownscalingDataset | None = None,
                 compile: bool = False, monitor=None):
        self.model = model
        self.dataset = dataset
        self.val_dataset = val_dataset
        self.config = config
        if dataset.normalizer is None:
            dataset.fit_normalizer()
        if val_dataset is not None and val_dataset.normalizer is None:
            val_dataset.normalizer = dataset.normalizer
            val_dataset.target_normalizer = dataset.target_normalizer
        self.loss_fn = BayesianDownscalingLoss(
            latitude_weights(dataset.spec.fine_grid), tv_weight=config.tv_weight
        )
        self.optimizer = self._build_optimizer()
        self.scaler = GradScaler() if config.bf16 else None
        self.cast = Bf16Cast() if config.bf16 else None
        self.history = TrainHistory()
        self._rng = np.random.default_rng(config.seed)
        self.compiled = bool(compile)
        self._compiled_step = None
        if self.compiled:
            self._compiled_step = CompiledStep(
                self._compiled_fn,
                guard_extra=lambda: (
                    bool(getattr(self.model, "training", True)),
                    self.scaler.scale_value if self.scaler is not None else None),
                span=lambda name: span(name, cat="step"))
        self._step = 0
        self._total_steps = max(
            1, config.epochs * ((len(dataset) + config.batch_size - 1) // config.batch_size)
        )
        # continuous health monitoring (repro.obs.monitor): one None
        # check per step when disabled; when attached, every step feeds
        # the detector pack's train/… series and the flight recorder
        self.monitor = monitor
        self._last_health: dict = {}
        if monitor is not None:
            monitor.add_state_provider(self._monitor_state)
        # baseline for per-run graph-counter deltas in dumps (the raw
        # counters are process-global and cumulative)
        from ..tensor import graph_counters
        self._graph_base = dict(graph_counters())

    # ------------------------------------------------------------------ #
    # template-method hooks: DistributedEngine overrides these to route
    # compute through a CompositeStrategy while AMP/scheduling/clipping and
    # the epoch loop below stay shared
    # ------------------------------------------------------------------ #
    def _build_optimizer(self):
        # flatten=True: one contiguous param/grad buffer, one vectorised
        # AdamW update per step (bit-identical to the per-tensor loop)
        return AdamW(self.model.parameters(), lr=self.config.lr,
                     weight_decay=self.config.weight_decay, flatten=True)

    def _backward(self, batch) -> float:
        """Forward + backward; returns the (unscaled) loss value."""
        if self._compiled_step is not None:
            outs = self._compiled_step(batch.inputs, batch.targets)
            return float(outs[-1])
        with span("train/forward", cat="step"):
            loss = self._forward_loss(batch)
        with span("train/backward", cat="step"):
            if self.scaler is not None:
                self.scaler.scale(loss).backward()
            else:
                loss.backward()
        return float(loss.data)

    def _clip_and_step(self) -> float:
        """Clip the gradients and step; returns the pre-clip grad norm."""
        opt = self.optimizer
        if self.scaler is None:
            norm = clip_grad_norm(opt.params, self.config.grad_clip)
            opt.step()
            return norm
        # clip in unscaled units by scaling the threshold instead
        scale = self.scaler.scale_value
        norm = clip_grad_norm(opt.params, self.config.grad_clip * scale) / scale
        if not self.scaler.step(opt):
            self.history.skipped_steps += 1
        return norm

    # ------------------------------------------------------------------ #
    def _loss_from_tensors(self, x: Tensor, y: Tensor) -> Tensor:
        pred = self.model(x)
        if self.cast is not None:
            pred = self.cast(pred)
        return self.loss_fn(pred, y)

    def _forward_loss(self, batch) -> Tensor:
        return self._loss_from_tensors(Tensor(batch.inputs), Tensor(batch.targets))

    def _compiled_fn(self, xt: Tensor, yt: Tensor):
        """Captured step: backward root (scaled when bf16) first, then the
        unscaled loss — ``_backward`` reads the latter."""
        loss = self._loss_from_tensors(xt, yt)
        root = self.scaler.scale(loss) if self.scaler is not None else loss
        return root, loss

    def train_step(self, batch) -> float:
        """One optimizer step; returns the (unscaled) loss value."""
        tracer = active_tracer()
        monitor = self.monitor
        if tracer is None and monitor is None:
            return self._train_step_impl(batch)
        t0 = time.perf_counter() if monitor is not None else 0.0
        if tracer is None:
            loss = self._train_step_impl(batch)
        else:
            with tracer.span("train/step", cat="step") as sp:
                loss = self._train_step_impl(batch)
                sp.args["loss"] = loss
            tracer.metrics.observe("train/loss", loss)
            self._observe_health(tracer.metrics)
            tracer.end_step(len(batch.inputs), sp)
        if monitor is not None:
            self._feed_monitor(monitor, loss, time.perf_counter() - t0,
                               len(batch.inputs))
        return loss

    def _observe_health(self, metrics) -> None:
        """Surface the step's gradient-health record as ``train/…``
        histograms — the single place the detector pack and ``repro
        profile`` both read (the ``TrainHistory`` lists mirror these)."""
        h = self._last_health
        metrics.observe("train/grad_norm", h["grad_norm"])
        metrics.observe("train/clip_event", h["clip_event"])
        metrics.observe("train/overflow_skip", h["overflow_skip"])
        if h.get("loss_scale") is not None:
            metrics.observe("train/loss_scale", h["loss_scale"])

    def _feed_monitor(self, monitor, loss: float, wall_s: float,
                      n_samples: int) -> None:
        """One step's samples for the health monitor.

        The time axis is the step index — deterministic by construction.
        Wall-derived samples (step duration, throughput) are tagged so a
        monitor built with ``wall_metrics=False`` replays bitwise.
        """
        t = float(self._step - 1)
        h = self._last_health
        monitor.record("train/loss", loss, t=t)
        monitor.record("train/grad_norm", h["grad_norm"], t=t)
        monitor.record("train/clip_event", h["clip_event"], t=t)
        monitor.record("train/overflow_skip", h["overflow_skip"], t=t)
        if h.get("loss_scale") is not None:
            monitor.record("train/loss_scale", h["loss_scale"], t=t)
        monitor.record("train/step_s", wall_s, t=t, wall=True)
        if wall_s > 0:
            monitor.record("train/samples_per_s", n_samples / wall_s, t=t,
                           wall=True)
        monitor.step_record(t, step=self._step - 1, loss=loss,
                            grad_norm=h["grad_norm"],
                            overflow_skip=h["overflow_skip"],
                            loss_scale=h.get("loss_scale"))

    def _monitor_state(self) -> dict:
        """Engine state embedded in flight-recorder dumps."""
        from ..tensor import graph_counters
        state: dict = {"step": self._step, "compiled": self.compiled}
        if self.compiled:
            state["graph_counters"] = {
                k: v - self._graph_base.get(k, 0)
                for k, v in graph_counters().items()}
        if self.scaler is not None:
            state["loss_scale"] = self.scaler.scale_value
            state["overflow_skips"] = self.history.skipped_steps
        return state

    def _train_step_impl(self, batch) -> float:
        with span("train/zero_grad", cat="step"):
            self.optimizer.lr = warmup_cosine(
                self._step, self.config.warmup_steps, self._total_steps,
                self.config.lr, self.config.min_lr,
            )
            self.optimizer.zero_grad()
        loss = self._backward(batch)
        skipped_before = self.history.skipped_steps
        with span("train/optim", cat="step"):
            norm = self._clip_and_step()
        self.history.grad_norms.append(norm)
        clipped = math.isfinite(norm) and norm > self.config.grad_clip
        if clipped:
            self.history.clip_events += 1
        self._last_health = {
            "grad_norm": norm,
            "clip_event": 1.0 if clipped else 0.0,
            "overflow_skip": float(self.history.skipped_steps - skipped_before),
            "loss_scale": (self.scaler.scale_value
                           if self.scaler is not None else None),
        }
        self._step += 1
        return loss

    def train_epoch(self) -> float:
        self.model.train()
        losses = []
        for batch in self.dataset.batches(self.config.batch_size, shuffle=True,
                                          rng=self._rng):
            losses.append(self.train_step(batch))
            if self.config.log_every and len(losses) % self.config.log_every == 0:
                print(f"step {self._step}: loss={losses[-1]:.4f}")
        mean_loss = float(np.mean(losses))
        self.history.train_loss.append(mean_loss)
        return mean_loss

    def evaluate(self, dataset: DownscalingDataset | None = None) -> float:
        """Mean loss over a dataset without gradient computation."""
        dataset = dataset or self.val_dataset or self.dataset
        self.model.eval()
        losses = []
        with no_grad():
            for batch in dataset.batches(self.config.batch_size):
                losses.append(float(self._forward_loss(batch).data))
        return float(np.mean(losses))

    def fit(self) -> TrainHistory:
        """Run the configured number of epochs, validating after each."""
        for _ in range(self.config.epochs):
            self.train_epoch()
            if self.val_dataset is not None:
                self.history.val_loss.append(self.evaluate(self.val_dataset))
        return self.history


CHECKPOINT_FORMAT_VERSION = 2
"""v1 payloads had no ``format_version`` key and no plan metadata; v2
embeds both so resuming a resharded run validates the layout instead of
silently loading mismatched flat-buffer slices."""


def _plan_layout(plan) -> dict | None:
    if plan is None:
        return None
    return dict(plan.layout() if hasattr(plan, "layout") else plan)


def save_checkpoint(model: Module, path: str | Path, extra: dict | None = None,
                    plan=None) -> None:
    """Serialize model weights (+ optional metadata) to ``path``.

    ``plan`` (a :class:`~repro.distributed.strategy.CompositePlan` or a
    layout dict) is embedded so a later load can validate that the
    resuming run's layout matches — or deliberately differs via a
    reshard — instead of silently assuming it.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "state": model.state_dict(),
        "extra": extra or {},
        "plan": _plan_layout(plan),
    }
    with open(path, "wb") as f:
        pickle.dump(payload, f)


def load_checkpoint(model: Module, path: str | Path, expect_plan=None) -> dict:
    """Load weights saved by :func:`save_checkpoint`; returns the metadata.

    Passing ``expect_plan`` validates the checkpoint's embedded layout
    against the resuming run's plan.  A mismatch raises with both
    layouts — resume at the saved layout and ``reshard`` to the new one,
    or re-save after the reshard.  Legacy (v1) checkpoints carry no
    layout, so requesting validation against one is also an error.
    """
    with open(path, "rb") as f:
        payload = pickle.load(f)
    version = payload.get("format_version", 1)
    if version > CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format v{version} is newer than supported "
            f"v{CHECKPOINT_FORMAT_VERSION}")
    if expect_plan is not None:
        expected = _plan_layout(expect_plan)
        saved = payload.get("plan")
        if saved is None:
            raise ValueError(
                "checkpoint has no plan-layout metadata (format "
                f"v{version}); cannot validate against {expected} — "
                "re-save it with the current format to enable validation")
        if dict(saved) != expected:
            raise ValueError(
                f"checkpoint layout {dict(saved)} != resuming layout "
                f"{expected}; resume at the saved layout and reshard, or "
                "re-save the checkpoint after the reshard")
    model.load_state_dict(payload["state"])
    return payload["extra"]
