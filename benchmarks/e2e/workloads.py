"""The five workloads: set-up, one operation, and the output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned.  All inputs derive from the seed.
An operation is one train step (batch fetch + ``train_step``) or one
served traffic window; ``op`` returns ``(samples, failed_samples)``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, VirtualCluster
from repro.serve import (ROLLING, AutoscalePolicy, BatchPolicy,
                         DownscalingService, TileCache, TrafficGenerator)
from repro.tensor import Tensor, no_grad
from repro.train import (DistributedEngine, TrainConfig, Trainer,
                         build_inference_runner)

from .metrics import C, SC, SS, SW, T

COARSE = (32, 64)
FACTOR = 2
IN_CH, OUT_CHANNELS = 23, (17, 18, 19)
HALO = 2
SERVE_TILES = 4
BATCH = 2
WARMUP_OPS = 3
CHECK_EVERY = 10   # executed serve: every 10th window is checked bitwise


def build_dataset(seed: int) -> DownscalingDataset:
    spec = DatasetSpec(name="e2e", fine_grid=Grid(COARSE[0] * FACTOR,
                                                  COARSE[1] * FACTOR),
                       factor=FACTOR, years=(2000, 2001), samples_per_year=8,
                       seed=seed, output_channels=OUT_CHANNELS)
    ds = DownscalingDataset(spec, years=spec.years)
    ds.fit_normalizer()
    return ds


def build_model(config: ModelConfig, seed: int) -> Reslim:
    return Reslim(config, IN_CH, len(OUT_CHANNELS), factor=FACTOR,
                  max_tokens=512, rng=np.random.default_rng(seed))


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((192, 192)).astype(np.float32)
_CAL_V = _CAL_RNG.standard_normal(400_000).astype(np.float32)
_CAL_OUT = np.empty_like(_CAL_V)


def calibrate() -> float:
    """Seconds one fixed mix of GEMM, elementwise and interpreter work
    takes right now (about 8 ms on the reference box).

    The sandbox's speed drifts by tens of percent over minutes (shared
    host), which would swamp every bound.  A sample is taken before each
    op, outside the clock; the run's median sample, over the reference
    constant, is the run's speed factor, and timings are reported at
    reference speed (see ``run.py``).
    """
    t0 = time.perf_counter()
    for _ in range(10):
        _CAL_A @ _CAL_A
        np.tanh(_CAL_V, out=_CAL_OUT)
        total = 0
        for i in range(6000):
            total += i * i
    return time.perf_counter() - t0


def batch_stream(ds: DownscalingDataset, seed: int):
    """Shuffled epochs forever, as ``Trainer.train_epoch`` draws them."""
    rng = np.random.default_rng(seed)
    while True:
        yield from ds.batches(BATCH, shuffle=True, rng=rng)


class Workload:
    name = ""
    per_request = False   # op time is reported per request (serve)
    min_ops = 5
    #: (untraced ops, traced ops) of the per-layer pass at run_seconds
    trace_ops = (16, 16)

    def __init__(self, seed: int, quick: bool = False):
        self.seed = int(seed)
        self.quick = quick
        self.data_build_s = 0.0
        self.attempted = self.failed = 0   # samples, counted by run_ops
        self.calibration: list[float] = []  # speed samples, by run_ops

    def _dataset(self) -> DownscalingDataset:
        t0 = time.perf_counter()
        ds = build_dataset(self.seed)
        self.data_build_s = time.perf_counter() - t0
        return ds

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed: make op ``i``'s client-side input ready."""

    def op(self, i: int) -> tuple[int, int]:
        raise NotImplementedError

    def after_op(self, i: int) -> int:
        """Untimed per-op output check; returns failed samples."""
        return 0

    def check(self) -> list[str]:
        """End-of-run output checks; returns failure messages."""
        return []


# --------------------------------------------------------------------- #
# training
# --------------------------------------------------------------------- #
class _Train(Workload):
    def build(self):
        """A freshly initialised trainer — also the reference of check (a)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.ds = self._dataset()
        self.trainer = self.build()
        self.batches = batch_stream(self.ds, self.seed)
        self.warm_losses = [self.trainer.train_step(next(self.batches))
                            for _ in range(WARMUP_OPS)]
        self.losses: list[float] = []

    def op(self, i: int) -> tuple[int, int]:
        loss = self.trainer.train_step(next(self.batches))
        self.losses.append(loss)
        return BATCH, 0 if math.isfinite(loss) else BATCH

    def check(self) -> list[str]:
        # (a) a second, freshly built identical trainer reproduces the
        # run's first losses exactly
        fresh, batches = self.build(), batch_stream(self.ds, self.seed)
        again = [fresh.train_step(next(batches)) for _ in range(WARMUP_OPS)]
        if again != self.warm_losses:
            return [f"{self.name}: fresh trainer losses {again} != "
                    f"{self.warm_losses}"]
        return []


class TrainSingle(_Train):
    name = T
    config = ModelConfig("e2e-single", embed_dim=64, depth=3, num_heads=8)

    def build(self) -> Trainer:
        return Trainer(build_model(self.config, self.seed), self.ds,
                       TrainConfig(epochs=1000, batch_size=BATCH,
                                   seed=self.seed))


class TrainComposite8(_Train):
    name = C
    trace_ops = (40, 40)
    config = ModelConfig("e2e-composite", embed_dim=32, depth=2, num_heads=4)

    def __init__(self, seed: int, quick: bool = False):
        super().__init__(seed, quick)
        # ops before which the run reshards 8 -> 4 and back 4 -> 8
        self.replan_at = {2: 1, 4: 2} if quick else {10: 1, 16: 2}
        self.min_ops = max(self.replan_at) + (2 if quick else 4)
        self.reshards: list[tuple[int, float, float]] = []

    @staticmethod
    def plan(fsdp: int) -> CompositePlan:
        return CompositePlan(VirtualCluster(fsdp * 4), tp=1, fsdp=fsdp,
                             tiles=2, ddp=BATCH)

    def unit(self, index: int = 0) -> Reslim:
        return build_model(self.config, self.seed)

    def build(self) -> DistributedEngine:
        return DistributedEngine(
            self.unit, self.ds,
            TrainConfig(epochs=1000, batch_size=BATCH, seed=self.seed),
            self.plan(2), halo=HALO, factor=FACTOR, overlap=True,
            compile=True)

    def op(self, i: int) -> tuple[int, int]:
        fsdp = self.replan_at.get(i)
        if fsdp is not None:
            t0 = time.perf_counter()
            report = self.trainer.replan(self.plan(fsdp))
            self.reshards.append((i, time.perf_counter() - t0,
                                  report["modeled"]["downtime_s"]))
        return super().op(i)


# --------------------------------------------------------------------- #
# serving
# --------------------------------------------------------------------- #
def served_ok(requests, result) -> int:
    """Requests answered ``ok``; raises unless ``ok + shed == sent`` (e)."""
    ok = sum(r.status == "ok" for r in result.responses)
    shed = sum(r.status == "shed" for r in result.responses)
    if ok + shed != len(requests):
        raise RuntimeError(f"ok {ok} + shed {shed} != sent {len(requests)}")
    return ok


class _Serve(Workload):
    """An op is one traffic window: a tuple of request lists, each served
    by one ``DownscalingService.run``."""

    per_request = True
    pregenerated = 8   # windows generated during set-up (the rest
    #                    are generated between ops, outside the clock)

    def traffic(self, i: int) -> tuple:
        """Window ``i``'s request lists (``i = -1``: the warm-up window)."""
        raise NotImplementedError

    def traffic_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i + 1

    def pregenerate(self) -> None:
        t0 = time.perf_counter()
        n = 2 if self.quick else self.pregenerated
        self.windows = {i: self.traffic(i) for i in range(n)}
        self.traffic_gen_s = time.perf_counter() - t0
        self.traffic_gen_requests = sum(len(r) for w in self.windows.values()
                                        for r in w)
        #: summary() of every served window, kept by the per-layer pass
        self.summaries: list[tuple] | None = None
        self.last: tuple = ()

    def serve(self, window: tuple) -> tuple:
        """One ``ServeResult`` per request list of the window."""
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Window ``i``, taken out of the pool: keeping served windows
        alive would make peak memory grow with the number of ops."""
        self.current = self.windows.pop(i, None) or self.traffic(i)

    def op(self, i: int) -> tuple[int, int]:
        self.last = self.serve(self.current)
        sent = sum(map(len, self.current))
        ok = sum(served_ok(requests, result)
                 for requests, result in zip(self.current, self.last))
        return sent, sent - ok

    def after_op(self, i: int) -> int:
        if self.summaries is not None:
            self.summaries.append(tuple(r.summary() for r in self.last))
        return 0


class _ServeExec(_Serve):
    config = ModelConfig("e2e-serve", embed_dim=32, depth=2, num_heads=4)
    rate_rps = 0.0
    tile_update_rate = 0.0
    window_s = 0.0

    def traffic(self, i: int) -> tuple:
        gen = TrafficGenerator(ROLLING, self.rate_rps, self.window_s,
                               seed=self.traffic_seed(i), n_tiles=SERVE_TILES,
                               tile_update_rate=self.tile_update_rate)
        return (gen.generate(inputs=[self.base]),)

    def setup(self) -> None:
        self.ds = self._dataset()
        self.base = next(self.ds.batches(1)).inputs[0]
        self.model = build_model(self.config, self.seed)
        self.service = DownscalingService(
            self.model, n_replicas=2,
            policy=BatchPolicy(max_batch=8, max_wait_s=0.02),
            cache=TileCache(64),
            target_normalizer=self.ds.target_normalizer,
            n_tiles=SERVE_TILES, halo=HALO, coarse_shape=COARSE,
            tile_serving=True, compile=True)
        self.reference = build_inference_runner(
            self.model, n_tiles=SERVE_TILES, halo=HALO, coarse_shape=COARSE)
        self.pregenerate()
        self.serve(self.traffic(-1))   # warm-up: compile capture

    def serve(self, window: tuple) -> tuple:
        return (self.service.run(*window),)

    def reference_output(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            pred = self.reference(Tensor(x[None])).data[0]
        return self.ds.target_normalizer.denormalize(pred)

    def after_op(self, i: int) -> int:
        super().after_op(i)
        # (c) checked windows: every ok response is bitwise equal to the
        # tiled reference runner + denormalize on the same input
        if i % CHECK_EVERY:
            return 0
        refs: dict[int, np.ndarray] = {}
        bad = 0
        for r in self.last[0].responses:
            if r.status != "ok":
                continue
            sample = r.request.sample
            if sample not in refs:
                refs[sample] = self.reference_output(r.request.input)
            bad += r.output is None or not np.array_equal(r.output,
                                                          refs[sample])
        return bad


class ServeExecCold(_ServeExec):
    """Ten tile updates per request: a re-noised core reaches every
    neighbour's halo, so ~9 in 10 requests recompute all four tiles.
    (At one update per request the cost per request is 0 or 4 tiles with
    equal odds — maximal variance, and a seed-dependent median.)"""

    name = SC
    trace_ops = (16, 16)
    rate_rps, tile_update_rate, window_s = 40.0, 400.0, 0.4
    pregenerated = 2   # ~3 MB of distinct states per window


class ServeExecWarm(_ServeExec):
    """One tile update every other window: the median window recomputes
    nothing, so ``op_ms_p50`` is the serve path alone."""

    name = SW
    trace_ops = (25, 25)
    rate_rps, tile_update_rate, window_s = 400.0, 0.05, 1.0


class ServeSim(_Serve):
    name = SS
    policy = BatchPolicy(max_batch=8, max_wait_s=0.02)

    def whole_service(self) -> DownscalingService:
        return DownscalingService(
            n_replicas=4, policy=self.policy, cache=TileCache(8),
            autoscale=AutoscalePolicy(min_replicas=1), max_queue_depth=256)

    def tiled_service(self) -> DownscalingService:
        return DownscalingService(
            n_replicas=2, policy=self.policy, cache=TileCache(64),
            n_tiles=SERVE_TILES, halo=HALO, coarse_shape=COARSE,
            tile_serving=True)

    def traffic(self, i: int) -> tuple:
        seed = self.traffic_seed(i)
        burst = TrafficGenerator("burst", 60.0, 20.0, seed=seed, n_inputs=16)
        rolling = TrafficGenerator(ROLLING, 250.0, 12.0, seed=seed,
                                   n_tiles=SERVE_TILES, tile_update_rate=250.0)
        return burst.generate(), rolling.generate()

    def setup(self) -> None:
        self.pregenerate()
        self.serve(self.traffic(-1))   # warm-up

    def serve(self, window: tuple) -> tuple:
        """Each window runs on a fresh service, so its result depends on
        its requests alone (check (d) relies on this)."""
        burst, rolling = window
        return (self.whole_service().run(burst),
                self.tiled_service().run(rolling))

    def after_op(self, i: int) -> int:
        if i == 0:
            self.first_summaries = [r.summary() for r in self.last]
        return super().after_op(i)

    def check(self) -> list[str]:
        # (d) a window re-run on fresh services reproduces its summary()
        if ([r.summary() for r in self.serve(self.traffic(0))]
                != self.first_summaries):
            return ["serve_sim: window 0 re-run changed its summary()"]
        return []


def run_ops(w: Workload, start: int, min_ops: int, budget_s: float = 0.0,
            op=None, rec=None) -> list[tuple[float, int]]:
    """Drive ``w`` from op ``start``: at least ``min_ops`` ops, then on
    until the summed op time reaches ``budget_s``.  Only the op itself is
    timed; ``prepare``, ``after_op`` and the speed sample run outside the
    clock.  Returns ``[(op seconds, samples), ...]``; attempted and failed
    samples and the speed samples accumulate on ``w``."""
    op = op or w.op
    times: list[tuple[float, int]] = []
    spent = 0.0
    i = start
    while i < start + min_ops or spent < budget_s:
        w.prepare(i)
        w.calibration.append(calibrate())
        if rec is None:
            t0 = time.perf_counter()
            samples, bad = op(i)
            dt = time.perf_counter() - t0
        else:
            rec.op_id = i
            with rec.span("op") as root:
                samples, bad = op(i)
            dt = root["end"] - root["start"]
        w.attempted += samples
        w.failed += bad + w.after_op(i)
        times.append((dt, samples))
        spent += dt
        i += 1
    return times


def op_ms(w: Workload, times) -> list[float]:
    """The op population in ms: per step, or per request for serve."""
    return [dt * 1e3 / (n if w.per_request else 1) for dt, n in times]


WORKLOAD_CLASSES = {w.name: w for w in (TrainSingle, TrainComposite8,
                                        ServeExecCold, ServeExecWarm,
                                        ServeSim)}
