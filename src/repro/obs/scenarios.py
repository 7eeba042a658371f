"""Seeded monitor scenarios: clean and fault-injected runs, end to end.

One function, :func:`run_monitor_scenario`, drives a real workload —
tiny train loop, elastic engine, or the serving simulator — with a
:class:`~repro.obs.monitor.Monitor` attached, optionally injecting a
fault, and returns the monitor plus what the scenario *expected* to
fire.  ``repro monitor``, the monitor tests, and the CI gate all run
through here, so the determinism contract is pinned against the same
code paths users exercise.

Scenarios and injections
------------------------
``train``
    Tiny single-process :class:`~repro.train.Trainer` loop.
    ``nan`` poisons one batch's inputs (→ ``nonfinite-loss`` +
    ``nonfinite-grad``); ``loss-spike`` scales one batch's targets
    (→ ``loss-spike``); ``thrash`` forces an inf gradient every other
    step under bf16 loss scaling (→ ``scaler-thrash``).
``elastic``
    :class:`~repro.train.DistributedEngine` at world 4 (fsdp=2 × ddp=2).
    ``rank-death`` arms a :class:`~repro.distributed.elastic.FaultPlan`
    killing two ranks mid-run (→ ``rank-failure`` + ``replan``).
``serve``
    Latency-only :class:`~repro.serve.DownscalingService` on the frozen
    clock.  ``burst`` runs an under-provisioned fleet into a traffic
    spike with admission control (→ ``p99-slo-burn``, ``queue-depth``,
    ``shed-rate``); the clean baseline is a well-provisioned steady run.

**Determinism.**  Monitors are built with ``wall_metrics=False`` and
every timestamp is a step index or simulated second, so the same
``(scenario, inject, seed)`` reproduces a bitwise-identical alert
timeline and flight-recorder dump — the monitor tests assert exactly
that, and the clean variants fire zero alerts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .monitor import Monitor, default_serve_rules, default_train_rules
from .tracer import Tracer

__all__ = ["INJECTIONS", "SCENARIOS", "ScenarioResult",
           "run_monitor_scenario"]

SCENARIOS = ("train", "elastic", "serve")

#: valid injections per scenario ("none" = clean baseline everywhere)
INJECTIONS = {
    "train": ("none", "nan", "loss-spike", "thrash"),
    "elastic": ("none", "rank-death"),
    "serve": ("none", "burst"),
}

#: the rules each injection is built to trip (the scenario tests assert
#: every one fired, and that clean runs fire none)
EXPECTED_RULES = {
    ("train", "nan"): ("nonfinite-loss", "nonfinite-grad"),
    ("train", "loss-spike"): ("loss-spike",),
    ("train", "thrash"): ("scaler-thrash",),
    ("elastic", "rank-death"): ("rank-failure", "replan"),
    ("serve", "burst"): ("p99-slo-burn", "queue-depth", "shed-rate"),
}


@dataclass
class ScenarioResult:
    """One scenario run: the monitor, its expectations, and extras."""

    scenario: str
    inject: str
    monitor: Monitor
    expected_rules: tuple[str, ...]
    tracer: Tracer | None = None
    detail: dict = field(default_factory=dict)

    @property
    def missing_rules(self) -> tuple[str, ...]:
        """Expected rules that never fired (empty = scenario behaved)."""
        return tuple(r for r in self.expected_rules
                     if self.monitor.fired(r) == 0)

    @property
    def ok(self) -> bool:
        """Clean runs fired nothing; injected runs fired every intended
        rule (extra firings are allowed — a NaN loss legitimately trips
        the spike detector too)."""
        if self.inject == "none":
            return not self.monitor.alerts
        return not self.missing_rules


def run_monitor_scenario(scenario: str = "train", inject: str = "none", *,
                         steps: int = 12, seed: int = 0,
                         wall_metrics: bool = False,
                         trace: bool = False) -> ScenarioResult:
    """Run one seeded scenario under a fresh monitor; see module docs."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; "
                         f"expected one of {SCENARIOS}")
    if inject not in INJECTIONS[scenario]:
        raise ValueError(
            f"injection {inject!r} not valid for {scenario!r}; "
            f"expected one of {INJECTIONS[scenario]}")
    expected = EXPECTED_RULES.get((scenario, inject), ())
    if scenario == "serve":
        return _serve_scenario(inject, expected, seed=seed,
                               wall_metrics=wall_metrics, trace=trace)
    return _train_scenario(scenario, inject, expected, steps=steps,
                           seed=seed, wall_metrics=wall_metrics, trace=trace)


# ---------------------------------------------------------------------- #
# train / elastic
# ---------------------------------------------------------------------- #
def _tiny_dataset(seed: int, n_samples: int = 8):
    from ..data import DatasetSpec, DownscalingDataset, Grid

    spec = DatasetSpec(name="monitor", fine_grid=Grid(16, 32), factor=4,
                       years=(2000,), samples_per_year=n_samples, seed=seed,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=(2000,))


def _poisoned(batch, *, inputs_scale=None, inputs_nan=False,
              targets_scale=None):
    """A copy of ``batch`` with a deterministic fault baked in."""
    from ..data.datasets import Batch

    inputs = batch.inputs.copy()
    targets = batch.targets.copy()
    if inputs_nan:
        inputs[..., 0, 0] = np.nan
    if inputs_scale is not None:
        inputs *= inputs_scale
    if targets_scale is not None:
        targets *= targets_scale
    return Batch(inputs=inputs, targets=targets,
                 targets_raw=batch.targets_raw, keys=batch.keys)


def _train_scenario(scenario: str, inject: str, expected, *, steps: int,
                    seed: int, wall_metrics: bool,
                    trace: bool) -> ScenarioResult:
    from ..core import ModelConfig, Reslim
    from ..train import TrainConfig, Trainer

    thrash = inject == "thrash"
    config = TrainConfig(epochs=1, batch_size=2, lr=2e-3, seed=seed,
                         bf16=thrash)
    ds = _tiny_dataset(seed)
    monitor = Monitor(default_train_rules(grad_clip=config.grad_clip),
                      wall_metrics=wall_metrics)
    fault_step = steps // 2

    if scenario == "elastic":
        trainer = _elastic_engine(ds, config, monitor, seed,
                                  rank_death=inject == "rank-death",
                                  fault_step=fault_step)
    else:
        model_config = ModelConfig("monitor", embed_dim=16, depth=1,
                                   num_heads=2)
        model = Reslim(model_config, in_channels=23, out_channels=3,
                       factor=4, max_tokens=64,
                       rng=np.random.default_rng(seed))
        trainer = Trainer(model, ds, config, monitor=monitor)
        if thrash:
            # force an inf gradient on alternating steps: the scaler
            # skips + halves, the skip stream burns the thrash rule
            _arm_grad_poison(trainer, every=2)

    batches = list(ds.batches(config.batch_size))
    tracer_cm = Tracer() if trace else None
    losses: list[float] = []

    def step_batches():
        for i in range(steps):
            batch = batches[i % len(batches)]
            if i == fault_step and inject == "nan":
                batch = _poisoned(batch, inputs_nan=True)
            elif i == fault_step and inject == "loss-spike":
                batch = _poisoned(batch, targets_scale=50.0)
            losses.append(trainer.train_step(batch))

    if tracer_cm is not None:
        with tracer_cm:
            step_batches()
    else:
        step_batches()
    return ScenarioResult(scenario=scenario, inject=inject, monitor=monitor,
                          expected_rules=expected, tracer=tracer_cm,
                          detail={"losses": losses,
                                  "history": trainer.history,
                                  "trainer": trainer})


def _arm_grad_poison(trainer, every: int = 2) -> None:
    """Wrap ``trainer._backward`` to inject an inf gradient on every
    ``every``-th step — a deterministic stand-in for bf16 overflow that
    exercises the GradScaler skip/backoff loop (and the thrash rule)."""
    orig = trainer._backward

    def poisoned(batch):
        loss = orig(batch)
        if trainer._step % every == 0:
            grads = [p.grad for p in trainer.optimizer.params
                     if p.grad is not None]
            if grads:
                grads[0].flat[0] = np.inf
        return loss

    trainer._backward = poisoned


def _elastic_engine(ds, config, monitor, seed: int, *, rank_death: bool,
                    fault_step: int):
    from ..core import ModelConfig, Reslim
    from ..distributed import CompositePlan, FaultPlan, VirtualCluster
    from ..train import DistributedEngine

    plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=2, tiles=1,
                         ddp=config.batch_size)
    model_config = ModelConfig("monitor-elastic", embed_dim=16, depth=1,
                               num_heads=2)

    def factory(unit_index=0):
        return Reslim(model_config, 23, 3, factor=4, max_tokens=64,
                      rng=np.random.default_rng(seed))

    engine = DistributedEngine(factory, ds, config, plan, halo=2, factor=4,
                               monitor=monitor)
    if rank_death:
        # two ranks die -> world 2, fsdp collapses 2 -> 1
        engine.attach_fault_plan(FaultPlan({fault_step: (2, 3)}))
    return engine


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def _serve_scenario(inject: str, expected, *, seed: int, wall_metrics: bool,
                    trace: bool) -> ScenarioResult:
    from ..serve import (BatchPolicy, DownscalingService, ServiceTimeModel,
                         TrafficGenerator)

    slo_p99_s = 0.08
    if inject == "burst":
        # one replica against a hard spike, queue capped so overload
        # sheds: latency blows the SLO window, depth crosses the bound
        gen = TrafficGenerator("burst", rate_rps=120.0, duration_s=4.0,
                               seed=seed, n_inputs=8, burst_factor=8.0)
        service = DownscalingService(
            n_replicas=1, policy=BatchPolicy(max_batch=4, max_wait_s=0.002),
            service_time=ServiceTimeModel(0.03, {(): 0.004}),
            max_queue_depth=24)
        max_depth = 16.0
    else:
        # four replicas ambling through steady traffic: every latency
        # lands far under the SLO and the queue never builds
        gen = TrafficGenerator("steady", rate_rps=40.0, duration_s=4.0,
                               seed=seed, n_inputs=8)
        service = DownscalingService(
            n_replicas=4, policy=BatchPolicy(max_batch=4, max_wait_s=0.002),
            service_time=ServiceTimeModel(0.002, {(): 0.0005}))
        max_depth = 64.0
    monitor = Monitor(default_serve_rules(slo_p99_s=slo_p99_s,
                                          max_queue_depth=max_depth),
                      wall_metrics=wall_metrics)
    result = service.run(gen.generate(), monitor=monitor)
    summary = result.summary()
    return ScenarioResult(scenario="serve", inject=inject, monitor=monitor,
                          expected_rules=expected,
                          detail={"summary": summary, "result": result,
                                  "slo_p99_s": slo_p99_s})
