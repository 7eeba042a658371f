"""Overhead budgets of the observability layer on a real train step.

Two instruments must stay cheap: the *disabled* tracer (every ``span()``
site left in place with no tracer installed) and an *attached* health
monitor (the detector pack fed once per step).  Each is held to the
same two bounds, measured one way:

* **budget** — the isolated cost per step is under 3 % of a raw step.
  For the tracer that is the number of span sites a step passes through
  (counted with a tracer installed) times the measured cost of one
  disabled site; for the monitor it is one ``_feed_monitor`` call.
  Isolated costs are stable where an end-to-end ratio is not: step-time
  noise on a busy machine is several times the budget.
* **sanity** — one interleaved A/B of whole steps (raw, tracing
  disabled, monitored; best-of-``ROUNDS`` per arm, GC parked) keeps each
  instrumented arm under 1.25x its control, ruling out a gross
  regression the isolated measurement could miss.
"""

import gc
import time

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.nn import warmup_cosine
from repro.obs import Monitor, Tracer, active_tracer, default_train_rules, span
from repro.train import TrainConfig, Trainer

BUDGET = 0.03
SANITY = 1.25
#: Interleaved rounds per arm.  A best-of estimate needs one quiet step
#: per arm; with other processes competing for the BLAS threads, ten
#: rounds sometimes left one arm without any.
ROUNDS = 30


def _raw_step(trainer: Trainer, batch) -> None:
    """``Trainer._train_step_impl`` with every span site stripped — the
    control arm.  Mirrors that method phase for phase."""
    trainer.optimizer.lr = warmup_cosine(
        trainer._step, trainer.config.warmup_steps, trainer._total_steps,
        trainer.config.lr, trainer.config.min_lr)
    trainer.optimizer.zero_grad()
    loss = trainer._forward_loss(batch)
    loss.backward()
    trainer.history.grad_norms.append(trainer._clip_and_step())
    trainer._step += 1


def _min_time(fn, best: float) -> float:
    t0 = time.perf_counter()
    fn()
    return min(best, time.perf_counter() - t0)


def _per_call(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


@pytest.fixture(scope="module")
def measured():
    spec = DatasetSpec(name="obs-overhead", fine_grid=Grid(32, 64), factor=2,
                       years=(2000,), samples_per_year=4, seed=0,
                       output_channels=(17, 18))
    ds = DownscalingDataset(spec, years=(2000,))
    model = Reslim(ModelConfig("overhead", embed_dim=32, depth=2, num_heads=4),
                   in_channels=23, out_channels=2, factor=2, max_tokens=4096,
                   rng=np.random.default_rng(0))
    trainer = Trainer(model, ds, TrainConfig(epochs=1, batch_size=2))
    batch = next(iter(ds.batches(2)))
    monitor = Monitor(default_train_rules(trainer.config.grad_clip))
    monitor.add_state_provider(trainer._monitor_state)
    assert active_tracer() is None and trainer.monitor is None

    with Tracer(trace_engine_ops=False) as tr:
        trainer.train_step(batch)
    sites = len(tr.spans)
    for _ in range(3):
        trainer.train_step(batch)

    raw_s = plain_s = monitored_s = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            raw_s = _min_time(lambda: _raw_step(trainer, batch), raw_s)
            plain_s = _min_time(lambda: trainer.train_step(batch), plain_s)
            trainer.monitor = monitor
            monitored_s = _min_time(lambda: trainer.train_step(batch),
                                    monitored_s)
            trainer.monitor = None

        def disabled_site():
            with span("train/forward", cat="step"):
                pass

        site_s = _per_call(disabled_site, 4096)
        feed_s = _per_call(lambda: trainer._feed_monitor(
            monitor, 1.0, raw_s, len(batch.inputs)), 256)
    finally:
        gc.enable()
    return {"sites": sites, "site_s": site_s, "feed_s": feed_s,
            "raw_s": raw_s, "plain_s": plain_s, "monitored_s": monitored_s}


def test_disabled_tracer_costs_under_budget(measured):
    assert measured["sites"] >= 5   # train/step, zero_grad, fwd, bwd, optim
    share = measured["sites"] * measured["site_s"] / measured["raw_s"]
    assert share < BUDGET, (
        f"{measured['sites']} disabled span sites cost {share:.3%} of a "
        f"step: an instrumentation site is doing work while tracing is off")


def test_monitor_feed_costs_under_budget(measured):
    share = measured["feed_s"] / measured["raw_s"]
    assert share < BUDGET, f"monitor feed costs {share:.3%} of a step"


def test_interleaved_steps_within_sanity_bound(measured):
    assert measured["plain_s"] / measured["raw_s"] < SANITY
    assert measured["monitored_s"] / measured["plain_s"] < SANITY
