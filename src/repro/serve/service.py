"""The production downscaling service: queue, batcher, cache, replicas.

:class:`DownscalingService` turns the bare ``predict_dataset`` loop into
a *system*: requests arrive on a simulated clock and split into *work
units* — one per request, or one per halo tile under ``tile_serving``.
An LRU cache short-circuits units already computed (keyed by content
hash + plan epoch), a dynamic batcher coalesces the misses under a
max-batch/max-wait policy, and N model replicas — each owning a
contiguous slice of the virtual cluster — serve batches in parallel.
One discrete-event loop (:meth:`DownscalingService.run`) schedules
both modes; what differs between them (keys, in-flight coalescing,
execute + finish, metric vocabulary) sits behind a private unit policy
(``_WholeUnits`` / ``_TileUnits``, DESIGN.md §11).  *Time* is modeled —
one :class:`~repro.serve.pricing.ServiceTimeModel` prices every batch,
a whole request being the one-tile case — while *outputs* are real.

**Determinism contract.**  Served outputs are bit-identical to a direct
:func:`repro.train.predict_dataset` pass over the same inputs,
regardless of how units were batched, cached, or placed on replicas:

* a dispatched batch executes stacked, ``_EXEC_WIDTH`` units to one
  forward, while ``predict_dataset`` and :class:`TiledDownscaler` — the
  reference — run every unit alone on purpose: every kernel gives a
  sample the same bits in a batch as alone (DESIGN.md §12 clause (c)),
  so the width of a forward has zero numeric footprint and its payoff,
  amortized dispatch overhead, is measured as well as modeled;
* the cache stores frozen copies keyed by content hash, so a hit
  returns exactly the bytes a miss would have computed;
* a tile-served field is assembled and denormalized once per set of
  core *objects* and memoised frozen (``_TileUnits.finish``), so a
  tile-served ``output`` is read-only and may be shared by responses;
* replicas share one set of weights, so placement cannot matter.

The equivalence suites assert that over the scenario × replica × cache
grid; ``tests/serve/test_scheduler_golden.py`` pins the scheduler itself
(responses, spans, metrics, monitor stream) by digest.

Instrumentation is first-class ``repro.obs``: latency and queue-wait
histograms, queue depth at every arrival, cache hit-rate, per-replica
utilization — plus trace spans (a ``serve/replica`` root per replica, a
``serve/batch`` child per dispatch, ``serve/tile`` grandchildren under
tile serving) in the same Chrome format as training traces, whose
coverage reproduces the utilization gauges exactly (gated by the
metrics-contract tests).
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from operator import is_

import numpy as np

from ..distributed.comm import VirtualCluster
from ..obs.metrics import Histogram, MetricsRegistry
from ..obs.tracer import Span
from ..tensor import Tensor, no_grad
from ..train.inference import build_inference_runner
from .cache import TileCache, content_key
from .pricing import DEFAULT_SERVICE_TIME, ServiceTimeModel, service_time_model
from .tiling import TilePlan
from .traffic import Request

__all__ = ["AutoscalePolicy", "BatchPolicy", "Response", "ServeResult",
           "DownscalingService", "HIT_LATENCY_S"]

#: modeled latency of answering a request whose every unit hit the cache
HIT_LATENCY_S = 1.0e-4


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching policy: dispatch at ``max_batch`` requests or
    once the oldest queued request has waited ``max_wait_s``, whichever
    comes first (and an idle replica exists)."""

    max_batch: int = 8
    max_wait_s: float = 0.05

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_s < 0.0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth replica autoscaling over a fixed maximum fleet.

    The service starts with ``min_replicas`` active.  When an arrival
    leaves more than ``scale_up_depth`` pending requests *per active
    replica*, one standby replica is activated — it becomes usable
    ``spinup_s`` later, the modeled downtime of remapping the shared
    weights onto the new replica's ranks (the same canonical-state move
    a training reshard performs).  Once the queue drains, idle surplus
    replicas are deactivated down to ``min_replicas``.  ``cooldown_s``
    rate-limits consecutive scaling actions so a single burst edge
    cannot thrash the fleet.
    """

    min_replicas: int = 1
    scale_up_depth: int = 8
    cooldown_s: float = 0.25
    spinup_s: float = 5.0e-3

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.scale_up_depth < 1:
            raise ValueError("scale_up_depth must be >= 1")
        if self.cooldown_s < 0.0 or self.spinup_s < 0.0:
            raise ValueError("cooldown_s and spinup_s must be >= 0")


@dataclass
class Response:
    """One served request with its full timing record.

    A cached ``output`` — a whole-request hit, or any tile-served field
    (memoised per state) — is read-only and may be the same object as
    another response's: copy before writing.
    """

    request: Request
    dispatch_s: float
    complete_s: float
    replica: int | None      # None for cache hits (never reached a replica)
    batch_size: int          # coalesced batch size (1 for cache hits)
    cache_hit: bool
    output: np.ndarray | None
    # "ok" | "shed" (turned away by a full queue) | "rejected" (an input
    # that failed admission validation; see DownscalingService)
    status: str = "ok"
    # tile-granular serving only (0 on the whole-request path):
    tiles: int = 0           # tiles the request was split into
    tiles_hit: int = 0       # tiles answered from the tile cache at arrival
    tiles_computed: int = 0  # tiles resolved by a batch completion

    @property
    def latency_s(self) -> float:
        return self.complete_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.dispatch_s - self.request.arrival_s


@dataclass
class ServeResult:
    """Everything one service run produced: responses, spans, metrics."""

    responses: list[Response]
    spans: list[Span]
    metrics: MetricsRegistry
    duration_s: float
    n_replicas: int
    gpus_per_replica: int
    utilization: dict[int, float] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-ready headline numbers of the run."""
        m = self.metrics
        lat = m.histograms.get("serve/latency_s")
        wait = m.histograms.get("serve/queue_wait_s")
        depth = m.histograms.get("serve/queue_depth")
        bsize = m.histograms.get("serve/batch_size")
        n = len(self.responses)
        out = {
            "requests": n,
            "duration_s": self.duration_s,
            "throughput_rps": n / self.duration_s if self.duration_s else 0.0,
            "latency_p50_s": lat.percentile(50) if lat else 0.0,
            "latency_p99_s": lat.percentile(99) if lat else 0.0,
            "latency_mean_s": lat.mean if lat else 0.0,
            "latency_max_s": lat.max if lat and lat.count else 0.0,
            "queue_wait_p99_s": wait.percentile(99) if wait else 0.0,
            "queue_depth_max": depth.max if depth and depth.count else 0.0,
            "queue_depth_p99": depth.percentile(99) if depth else 0.0,
            "batches": m.counters.get("serve/batches", 0.0),
            "batch_size_mean": bsize.mean if bsize else 0.0,
            "cache_hits": m.counters.get("serve/cache/hits", 0.0),
            "cache_misses": m.counters.get("serve/cache/misses", 0.0),
            "cache_evictions": m.counters.get("serve/cache/evictions", 0.0),
            "cache_hit_rate": m.gauges.get("serve/cache/hit_rate", 0.0),
            "n_replicas": self.n_replicas,
            "gpus_per_replica": self.gpus_per_replica,
            "utilization_mean": (sum(self.utilization.values())
                                 / len(self.utilization)
                                 if self.utilization else 0.0),
            "utilization": {str(r): u for r, u in self.utilization.items()},
            "shed": m.counters.get("serve/shed", 0.0),
            "scale_ups": m.counters.get("serve/scale_up", 0.0),
            "scale_downs": m.counters.get("serve/scale_down", 0.0),
            "replica_seconds": m.gauges.get(
                "serve/replica_seconds",
                self.n_replicas * self.duration_s),
        }
        tile_lookups = (m.counters.get("serve/tile/hits", 0.0)
                        + m.counters.get("serve/tile/misses", 0.0))
        if tile_lookups:
            occ = m.histograms.get("serve/tile/batch_occupancy")
            out.update({
                "tile_hits": m.counters.get("serve/tile/hits", 0.0),
                "tile_misses": m.counters.get("serve/tile/misses", 0.0),
                "tile_coalesced": m.counters.get("serve/tile/coalesced", 0.0),
                "tile_hit_rate": m.gauges.get("serve/tile/hit_rate", 0.0),
                "tile_batch_occupancy_mean": occ.mean if occ else 0.0,
            })
        return out

    def export_chrome(self, path) -> None:
        from ..obs.export import write_chrome_trace
        write_chrome_trace(path, self.spans)


# event ordering at equal timestamps: completions populate the cache
# before same-instant arrivals probe it, and both precede deadline checks
_COMPLETE, _ARRIVAL, _DEADLINE = 0, 1, 2

_MISS_SENTINEL = object()

# Units stacked into one forward.  Pairs amortize the fixed cost of a
# forward (≈ 100 thunks of dispatch under compiled replay); past that,
# width buys nothing at the e2e serve tile shape (B, 23, 18, 34).
# Measured after kernel epoch 3, 60 ``serve_exec_cold`` windows, raw
# samples/s per run: width 2 — 121.7 / 118.2 / 118.0 / 114.2; width 4 —
# 113.9 / 121.8 / 126.0 / 105.6; width 8 — 115.8 / 115.8.  Since the
# liveness-planned arena (ROADMAP item 3) a plan holds 1.24 / 2.47 /
# 4.93 MiB at widths 2 / 4 / 8 (4.91 / 9.81 / 19.6 MiB before it).
_EXEC_WIDTH = 2


@dataclass(slots=True)
class _Job:
    """One queued or in-flight unit compute."""

    key: str
    unit: int
    sig: tuple
    arrival_s: float
    input: np.ndarray | None
    waiters: list[tuple[int, int]]   # (rid, unit) pairs this job resolves


@dataclass(slots=True)
class _Ticket:
    """An admitted request waiting on its missed units."""

    req: Request
    results: list | None             # per-unit results; None latency-only
    remaining: int = 0
    hits: int = 0
    computed: int = 0
    dispatch_s: float | None = None


def _forwards(batch: list[_Job]) -> list[list[int]]:
    """The batch's positions, split into its forwards: consecutive
    slices of ``_EXEC_WIDTH`` over the jobs of each input shape.  Tiles
    of one signature share a shape; whole requests need not (a stack
    needs one), so the shapes of a mixed batch run side by side."""
    by_shape: dict[tuple, list[int]] = {}
    for k, job in enumerate(batch):
        by_shape.setdefault(job.input.shape, []).append(k)
    return [ks[i:i + _EXEC_WIDTH] for ks in by_shape.values()
            for i in range(0, len(ks), _EXEC_WIDTH)]


class _WholeUnits:
    """Unit policy of whole-request serving: the request is its one unit."""

    #: counter of units that joined an in-flight duplicate; None: each
    #: duplicate runs its own forward (the metrics contract pins
    #: ``batch_size.total == misses``)
    coalesced = None
    hits, misses = "serve/cache/hits", "serve/cache/misses"
    counts_uncached = False          # no cache, no lookup counters
    miss_feed = None

    def __init__(self, svc: "DownscalingService"):
        self.svc = svc

    def split(self, req: Request) -> tuple[list[str], list[tuple]]:
        """The request's units: their cache keys, their batching
        signatures."""
        content = (content_key(req.input) if req.input is not None
                   else f"sample:{req.sample}")
        return [f"{content}/e:{self.svc.plan_epoch}"], [()]

    def execute(self, jobs: list[_Job]) -> list[np.ndarray]:
        """One forward over the jobs' stacked inputs: the
        ``predict_dataset`` pipeline, each row denormalized on its own."""
        with no_grad():
            preds = self.svc._runner(
                Tensor(np.stack([job.input for job in jobs]))).data
        return [self.svc._denormalize(pred) for pred in preds]

    def finish(self, results: list) -> np.ndarray:
        return results[0]

    def response_fields(self, hits: int, computed: int) -> dict:
        return {}

    def batch_args(self, batch: list[_Job], sig: tuple) -> dict:
        return {"rids": [job.waiters[0][0] for job in batch]}

    def trace_batch(self, batch, rank, start, dur, metrics, spans) -> None:
        pass

    def close_out(self, metrics: MetricsRegistry) -> None:
        pass


class _TileUnits:
    """Unit policy of tile serving: one unit per halo tile of the plan."""

    coalesced = "serve/tile/coalesced"   # identical tiles share a forward
    hits, misses = "serve/tile/hits", "serve/tile/misses"
    counts_uncached = True
    miss_feed = "serve/tile_miss_rate"

    def __init__(self, svc: "DownscalingService"):
        self.svc = svc
        self.plan = svc.tile_plan
        # LRU: ids of a request's cores -> (the cores, their finished field)
        self._fields: OrderedDict[tuple, tuple] = OrderedDict()

    def split(self, req: Request) -> tuple[list[str], list[tuple]]:
        plan, epoch = self.plan, self.svc.plan_epoch
        tiles = range(plan.n_tiles)
        return ([plan.tile_key(i, input=req.input, versions=req.tile_versions,
                               sample=req.sample, epoch=epoch) for i in tiles],
                [plan.signature(i) for i in tiles])

    def execute(self, jobs: list[_Job]) -> list[np.ndarray]:
        """One forward over the jobs' tiles, each exactly the slice
        :class:`TiledDownscaler` runs alone: stack the halo-extended
        regions, run the *inner* model once (the compiled per-shape
        program when ``compile=True``), crop each tile's core from its
        row.  Returns the frozen normalized cores the cache stores."""
        plan = self.plan
        regions = np.stack([plan.slice_halo(job.input, job.unit)
                            for job in jobs])
        with no_grad():
            out = self.svc._runner.model(Tensor(regions)).data
        return [plan.crop_core(out[k:k + 1], job.unit)
                for k, job in enumerate(jobs)]

    def finish(self, cores: list) -> np.ndarray:
        """Reassemble cached/computed cores into the served output:
        place normalized cores where ``TilePlan.stitch`` does, then
        denormalize the assembled field — value for value what a
        whole-request forward does, so the bytes match it regardless
        of which tiles were hits.  The result is frozen, and memoised
        on the *identity* of the cores — as many fields as the tile cache
        holds complete tile sets — so a state is assembled and
        denormalized once, not once per request.  Sound because

        * ``crop_core`` returns owned frozen copies and ``TileCache.put``
          stores frozen arrays as-is, so core identity implies byte
          identity (an entry holds its cores: an ``id`` is not recycled);
        * the field is a pure function of the cores, the plan geometry
          and the normalizer fixed at construction;
        * ``bump_plan_epoch`` and eviction both surface
          as *new* core objects, so a stale field cannot be served.

        Without a cache every core is a fresh object: nothing is kept.
        """
        cache, fields = self.svc.cache, self._fields
        key = tuple(map(id, cores))
        held = fields.get(key)
        if held is not None and all(map(is_, held[0], cores)):
            fields.move_to_end(key)
            return held[1]
        out = self.svc._denormalize(self.plan.assemble(cores))
        out.flags.writeable = False
        fields[key] = (cores, out)
        room = cache.capacity // self.plan.n_tiles if cache is not None else 0
        while len(fields) > room:
            fields.popitem(last=False)
        return out

    def response_fields(self, hits: int, computed: int) -> dict:
        return {"tiles": self.plan.n_tiles, "tiles_hit": hits,
                "tiles_computed": computed}

    def batch_args(self, batch: list[_Job], sig: tuple) -> dict:
        return {"tiles": [job.unit for job in batch], "signature": list(sig)}

    def trace_batch(self, batch, rank, start, dur, metrics, spans) -> None:
        metrics.observe("serve/tile/batch_occupancy",
                        len(batch) / self.svc.policy.max_batch)
        # child spans: the dispatch overhead leads, then the tiles run
        # back to back inside the batch window
        tile_s = max(0.0, dur - self.svc.service_time.dispatch_s) / len(batch)
        t0 = start + (dur - tile_s * len(batch))
        for k, job in enumerate(batch):
            spans.append(Span(
                name="serve/tile", cat="serve", rank=rank,
                start_s=t0 + k * tile_s, dur_s=tile_s, depth=2,
                args={"tile": job.unit, "waiters": len(job.waiters),
                      "modeled": True}))

    def close_out(self, metrics: MetricsRegistry) -> None:
        th = metrics.counters.get("serve/tile/hits", 0.0)
        tm = metrics.counters.get("serve/tile/misses", 0.0)
        metrics.gauge("serve/tile/hit_rate",
                      th / (th + tm) if th + tm else 0.0)


class DownscalingService:
    """Queue + batcher + cache + replicas over a virtual cluster.

    A response's ``status`` is ``"ok"``, ``"shed"`` (see
    ``max_queue_depth``) or ``"rejected"``: a request whose input is not
    a finite float32 ``(C, h, w)`` array with the model's
    ``in_channels`` — and, when the service tiles (``n_tiles > 1`` with a
    ``coarse_shape``), that grid — is answered at arrival with no
    output, counted on ``serve/requests`` and ``serve/rejected``, kept
    out of the latency histograms, and never probed, queued, batched or
    cached.  Each input object is checked once per run.

    Parameters
    ----------
    model:
        The downscaler to execute (any ``(1, C, h, w) -> (1, C', H, W)``
        module).  ``None`` runs the scheduler latency-only — same queue
        dynamics, no outputs — which is how
        :func:`repro.serve.sizing.serve_report` prices replica counts
        without paying for compute.
    n_replicas:
        Model replicas; the cluster's ranks are split into contiguous
        equal slices, one per replica (replica sharding).
    policy:
        Dynamic-batching policy (:class:`BatchPolicy`).
    cache:
        A :class:`TileCache`, or ``None`` to disable caching.
    cluster:
        The :class:`VirtualCluster` to shard replicas across; defaults
        to ``n_replicas * gpus_per_replica`` ranks.
    target_normalizer:
        Maps model outputs back to physical units, exactly as
        ``predict_dataset`` does (pass the dataset's).
    n_tiles / halo / factor / coarse_shape:
        Tiled-inference configuration, validated up front through
        :func:`repro.train.build_inference_runner`.  A model served in
        tiles needs ``coarse_shape``: every request is admitted on it.
    tile_serving:
        Make the *tile* the unit of serving: requests are split into
        halo tiles at admission, the cache is keyed per tile (content
        hash over the halo-extended region + crop geometry + plan
        epoch), and only missed tiles are recomputed — coalesced
        across requests into shared per-signature batches.  Requires
        ``n_tiles >= 2`` and ``coarse_shape``.  Outputs stay bitwise
        identical to the whole-request path (both reassemble by one
        geometry, :class:`~repro.core.tiles.TilePlan`).
    plan_epoch:
        Starting epoch folded into every cache key (whole-request and
        tile); :meth:`bump_plan_epoch` (call it after a reshard / weight
        swap) invalidates all resident entries without touching the
        cache.
    service_time:
        The :class:`~repro.serve.pricing.ServiceTimeModel` pricing each
        dispatched batch; it must price every signature the service
        batches — ``()`` for whole requests, each of the plan's tile
        signatures under ``tile_serving``.  Defaults to the generic
        :data:`~repro.serve.pricing.DEFAULT_SERVICE_TIME`, split per
        tile by area under ``tile_serving``; build one for a model
        config with :func:`~repro.serve.pricing.service_time_model`.
    max_queue_depth:
        Admission control: a request that would add a job while this
        many are already pending is *shed* — answered immediately with
        ``status="shed"`` and no output, counted on ``serve/shed``,
        decided before any cache counter moves — so the queue (and tail
        latency) stays bounded under overload.  ``None`` (default)
        admits everything.
    autoscale:
        An :class:`AutoscalePolicy` enabling queue-depth replica
        autoscaling; ``n_replicas`` is then the *maximum* fleet and the
        run starts with ``autoscale.min_replicas`` active.
    """

    def __init__(self, model=None, *, n_replicas: int = 1,
                 gpus_per_replica: int = 1,
                 policy: BatchPolicy | None = None,
                 cache: TileCache | None = None,
                 cluster: VirtualCluster | None = None,
                 target_normalizer=None, n_tiles: int = 1, halo: int = 0,
                 factor: int | None = None,
                 coarse_shape: tuple[int, int] | None = None,
                 tile_serving: bool = False, plan_epoch: int = 0,
                 service_time: ServiceTimeModel | None = None,
                 compile: bool = False,
                 max_queue_depth: int | None = None,
                 autoscale: AutoscalePolicy | None = None):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        if model is not None and n_tiles > 1 and coarse_shape is None:
            raise ValueError(
                "a model served in tiles needs coarse_shape=(h, w)")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if autoscale is not None and autoscale.min_replicas > n_replicas:
            raise ValueError(
                f"autoscale min_replicas {autoscale.min_replicas} > fleet "
                f"of {n_replicas}")
        self.max_queue_depth = max_queue_depth
        self.autoscale = autoscale
        self.policy = policy or BatchPolicy()
        self.cache = cache
        self.cluster = cluster or VirtualCluster(n_replicas * gpus_per_replica)
        if self.cluster.world_size % n_replicas:
            raise ValueError(
                f"world {self.cluster.world_size} not divisible into "
                f"{n_replicas} replicas")
        self.n_replicas = n_replicas
        self.gpus_per_replica = self.cluster.world_size // n_replicas
        self.model = model
        self._runner = None
        if model is not None:
            model.eval()
            self._runner = build_inference_runner(
                model, n_tiles=n_tiles, halo=halo, factor=factor,
                coarse_shape=coarse_shape, compile=compile)
        self._target_normalizer = target_normalizer
        self.plan_epoch = int(plan_epoch)
        # the grid every request is admitted on, whenever the service tiles
        self.tile_plan: TilePlan | None = None
        if n_tiles > 1 and coarse_shape is not None:
            # latency-only runs have no model; the factor only scales
            # the crop geometry inside keys, so any constant works
            plan_factor = (factor if factor is not None
                           else getattr(model, "factor", None) or 1)
            self.tile_plan = TilePlan.build(coarse_shape, n_tiles, halo,
                                            int(plan_factor))
        sigs = {()}
        if tile_serving:
            if n_tiles < 2:
                raise ValueError("tile_serving needs n_tiles >= 2")
            if coarse_shape is None:
                raise ValueError("tile_serving needs coarse_shape=(h, w)")
            sigs = self.tile_plan.signatures()
            if service_time is None:
                service_time = service_time_model(
                    n_tiles=n_tiles, halo=halo,
                    coarse_shape=self.tile_plan.coarse_shape)
        self.service_time = (DEFAULT_SERVICE_TIME if service_time is None
                             else service_time)
        unpriced = sigs - self.service_time.unit_s.keys()
        if unpriced:
            raise ValueError(
                f"service_time prices no signature {sorted(unpriced)}")

        self._units = _TileUnits(self) if tile_serving else _WholeUnits(self)

    def _denormalize(self, pred: np.ndarray) -> np.ndarray:
        """Model output to physical units, as ``predict_dataset`` does."""
        if self._target_normalizer is None:
            return pred
        return self._target_normalizer.denormalize(pred)

    def _admissible(self, x: np.ndarray | None) -> bool:
        """Admission check of a request's input: a finite float32
        ``(C, h, w)`` array with the model's channel count and, when the
        service tiles, the plan's coarse grid.  ``None`` — a latency-only
        request — passes."""
        if x is None:
            return True
        if not (isinstance(x, np.ndarray) and x.ndim == 3
                and x.dtype == np.float32):
            return False
        channels = getattr(self.model, "in_channels", None)
        if channels is not None and x.shape[0] != channels:
            return False
        if (self.tile_plan is not None
                and x.shape[1:] != self.tile_plan.coarse_shape):
            return False
        return bool(np.isfinite(x).all())

    def replica_ranks(self, replica: int) -> list[int]:
        g = self.gpus_per_replica
        return list(range(replica * g, (replica + 1) * g))

    def home_rank(self, replica: int) -> int:
        return replica * self.gpus_per_replica

    def bump_plan_epoch(self) -> int:
        """Invalidate every cache key — call after a reshard/weight swap.

        The epoch participates in every unit key, whole-request and
        tile alike, so bumping it orphans all resident entries (they age
        out of the LRU) without clearing the cache or blocking traffic.
        """
        self.plan_epoch += 1
        return self.plan_epoch

    # ------------------------------------------------------------------ #
    # the discrete-event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: list[Request], monitor=None) -> ServeResult:
        """Serve every request; returns responses + spans + metrics.

        Deterministic: the same request list on the same service
        configuration produces the identical result, event for event.

        Each admitted request splits into work units (one, or one per
        tile), probed in the cache with one batched lookup.  A request
        whose units all hit responds at once; otherwise its missed units
        become jobs — deduplicated by key across requests where the unit
        policy coalesces — batched per signature, oldest first, and the
        request responds when its last unit resolves.

        ``monitor`` (a :class:`repro.obs.monitor.Monitor`) receives the
        health stream on the simulated clock: per-request latency
        (``serve/latency_s``), queue depth, a shed indicator and (tile
        serving) the tile miss rate at every arrival, and ``scale_up``/
        ``scale_down`` events annotating the autoscaler's decisions — so
        SLO-burn/queue/shed rules evaluate at deterministic timestamps
        and replay bitwise.
        """
        units = self._units
        cache = self.cache
        executed = self._runner is not None
        max_batch, max_wait_s = self.policy.max_batch, self.policy.max_wait_s
        metrics = MetricsRegistry()
        # the three per-request histograms, bound once; close-out files
        # each under its name if observed, as ``metrics.observe`` would
        latency_h, wait_h, depth_h = Histogram(), Histogram(), Histogram()
        # this run's probe counts start here: the cache may be reused
        probed = (cache.hits, cache.misses) if cache is not None else None
        spans: list[Span] = []
        responses: dict[int, Response] = {}
        pending: list[_Job] = []            # FIFO queue of missed units
        open_jobs: dict[str, _Job] = {}     # key -> job, queued or in flight
        tickets: dict[int, _Ticket] = {}    # rid -> request awaiting units
        # id(input) -> (input, its keys, its signatures), or (input, None,
        # None) for an input admission rejects.  run() is synchronous and
        # holds inputs by reference from arrival to dispatch, so each
        # distinct array is validated and keyed once per run; an entry
        # keeps its array alive, so its id cannot be reused.  A local:
        # between two runs the caller may mutate an array, and the next
        # run must see it.
        split_memo: dict[int, tuple] = {}
        busy_s = [0.0] * self.n_replicas
        # replica frontiers: plain floats so the idle check compares
        # bit-exactly against completion-event timestamps
        free = [0.0] * self.n_replicas
        # autoscaling state: which replicas are active, when each active
        # window opened (for replica-seconds accounting), last scale time
        start_active = (self.autoscale.min_replicas
                        if self.autoscale is not None else self.n_replicas)
        active = [r < start_active for r in range(self.n_replicas)]
        window_open: dict[int, float] = {r: 0.0 for r in range(start_active)}
        replica_seconds = [0.0] * self.n_replicas
        last_scale = float("-inf")

        # arrivals stream in sorted order; the heap holds only the events
        # the run itself schedules (completions and deadlines)
        arrivals = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        for req in arrivals:
            if req.rid in responses:
                raise ValueError(f"duplicate request id {req.rid}")
            responses[req.rid] = None  # reserve; filled on completion
        n_arrivals, next_arrival = len(arrivals), 0
        heap: list[tuple[float, int, int, object]] = []
        seq = 0

        def push(t: float, kind: int, payload) -> None:
            nonlocal seq
            heapq.heappush(heap, (t, kind, seq, payload))
            seq += 1

        def maybe_scale_up(now: float) -> None:
            au = self.autoscale
            if au is None:
                return
            nonlocal last_scale
            n_act = sum(active)
            if (n_act < self.n_replicas
                    and len(pending) >= au.scale_up_depth * n_act
                    and now - last_scale >= au.cooldown_s):
                r = active.index(False)
                active[r] = True
                # the new replica is usable after the modeled downtime of
                # remapping the shared weights onto its ranks
                free[r] = max(free[r], now + au.spinup_s)
                window_open[r] = now
                last_scale = now
                metrics.inc("serve/scale_up")
                if monitor is not None:
                    monitor.event("scale_up", t=now, replica=r,
                                  queue_depth=len(pending),
                                  active=sum(active))
                spans.append(Span(
                    name="serve/scale_up", cat="serve",
                    rank=self.home_rank(r), start_s=now, dur_s=au.spinup_s,
                    depth=1, args={"replica": r, "queue_depth": len(pending),
                                   "modeled": True}))
                push(now + au.spinup_s, _DEADLINE, None)

        def maybe_scale_down(now: float) -> None:
            au = self.autoscale
            if au is None or pending:
                return
            nonlocal last_scale
            if sum(active) <= au.min_replicas or now - last_scale < au.cooldown_s:
                return
            for r in reversed(range(self.n_replicas)):
                if active[r] and free[r] <= now:
                    active[r] = False
                    replica_seconds[r] += now - window_open.pop(r)
                    last_scale = now
                    metrics.inc("serve/scale_down")
                    if monitor is not None:
                        monitor.event("scale_down", t=now, replica=r,
                                      active=sum(active))
                    break

        def try_dispatch(now: float) -> None:
            while pending:
                for replica in range(self.n_replicas):
                    if active[replica] and free[replica] <= now:
                        break
                else:
                    return
                # the batch leads with the oldest job's signature: units
                # in one batch share an input shape, so one compiled plan
                # serves the whole forward (whole requests share a single
                # signature, making this the FIFO prefix)
                sig = pending[0].sig
                picked = list(islice(
                    (k for k, job in enumerate(pending) if job.sig == sig),
                    max_batch))
                # the deadline event was scheduled at exactly
                # arrival + max_wait_s, so this comparison is exact
                due = pending[0].arrival_s + max_wait_s <= now
                if not (len(picked) == max_batch or due):
                    return
                batch = [pending[k] for k in picked]
                for k in reversed(picked):
                    del pending[k]
                dur = self.service_time(len(batch), sig)
                end = now + dur
                free[replica] = end
                busy_s[replica] += dur
                metrics.inc("serve/batches")
                metrics.inc(f"serve/replica/{replica}/batches")
                metrics.observe("serve/batch_size", len(batch))
                rank = self.home_rank(replica)
                spans.append(Span(
                    name="serve/batch", cat="serve", rank=rank, start_s=now,
                    dur_s=dur, depth=1,
                    args={"replica": replica, "batch_size": len(batch),
                          **units.batch_args(batch, sig), "modeled": True}))
                units.trace_batch(batch, rank, now, dur, metrics, spans)
                outputs = [None] * len(batch)
                if executed:
                    for ks in _forwards(batch):
                        for k, out in zip(ks, units.execute(
                                [batch[k] for k in ks])):
                            outputs[k] = out
                push(end, _COMPLETE, (replica, batch, now, outputs))

        def respond(req: Request, results: list | None, hits: int,
                    computed: int, dispatch_s: float, complete_s: float,
                    replica: int | None, batch_size: int) -> None:
            responses[req.rid] = Response(
                request=req, dispatch_s=dispatch_s, complete_s=complete_s,
                replica=replica, batch_size=batch_size,
                cache_hit=computed == 0,
                output=None if results is None else units.finish(results),
                **units.response_fields(hits, computed))
            metrics.inc("serve/requests")
            latency_h.observe(complete_s - req.arrival_s)
            wait_h.observe(dispatch_s - req.arrival_s)
            if monitor is not None:
                monitor.record("serve/latency_s", complete_s - req.arrival_s,
                               t=complete_s)

        duration = 0.0
        while True:
            # merge the arrival stream into the heap's order: at equal
            # timestamps completion < arrival < deadline
            if heap and (next_arrival == n_arrivals or heap[0][:2] < (
                    arrivals[next_arrival].arrival_s, _ARRIVAL)):
                now, kind, _, payload = heapq.heappop(heap)
            elif next_arrival < n_arrivals:
                req = arrivals[next_arrival]
                next_arrival += 1
                now, kind = req.arrival_s, _ARRIVAL
            else:
                break
            duration = max(duration, now)
            if kind == _COMPLETE:
                replica, batch, start, outputs = payload
                for job, result in zip(batch, outputs):
                    if cache is not None:
                        evicted_before = cache.evictions
                        cache.put(job.key, result)
                        metrics.inc("serve/cache/evictions",
                                    cache.evictions - evicted_before)
                    open_jobs.pop(job.key, None)
                    for rid, unit in job.waiters:
                        ticket = tickets[rid]
                        ticket.remaining -= 1
                        ticket.computed += 1
                        if ticket.results is not None:
                            ticket.results[unit] = result
                        if ticket.dispatch_s is None:
                            ticket.dispatch_s = start
                        if ticket.remaining == 0:
                            # a coalesced unit may have been dispatched
                            # before this request arrived — queue wait
                            # is never negative
                            respond(ticket.req, ticket.results, ticket.hits,
                                    ticket.computed,
                                    max(ticket.dispatch_s,
                                        ticket.req.arrival_s),
                                    now, replica, len(batch))
                            del tickets[rid]
            elif kind == _ARRIVAL:
                x = req.input
                held = split_memo.get(id(x))
                if held is not None and held[0] is x:
                    _, keys, sigs = held
                else:
                    keys, sigs = (units.split(req) if self._admissible(x)
                                  else (None, None))
                    if x is not None:
                        split_memo[id(x)] = (x, keys, sigs)
                if keys is None:
                    # rejected before anything else: it never probes the
                    # cache and never becomes a job, so it is never cached,
                    # batched or stacked beside a healthy request
                    refused = "rejected"
                # a full queue sheds any request that would add a job;
                # the membership pre-check touches no cache counters, so
                # the shed decision cannot pollute hit/miss accounting
                elif (self.max_queue_depth is not None
                        and len(pending) >= self.max_queue_depth
                        and any(k not in open_jobs
                                and (cache is None or k not in cache)
                                for k in keys)):
                    refused = "shed"
                else:
                    refused = None
                if refused is not None:
                    # refused requests stay out of the latency histograms
                    # so they can't masquerade as fast service
                    metrics.inc(f"serve/{refused}")
                    metrics.inc("serve/requests")
                    responses[req.rid] = Response(
                        request=req, dispatch_s=now, complete_s=now,
                        replica=None, batch_size=0, cache_hit=False,
                        output=None, status=refused,
                        **units.response_fields(0, 0))
                else:
                    # one probe for all the request's units; a missed
                    # unit's slot keeps the sentinel until its job resolves
                    hits = 0
                    if cache is not None:
                        before = cache.hits
                        values = cache.get_many(keys, _MISS_SENTINEL)
                        hits = cache.hits - before
                    else:
                        values = [_MISS_SENTINEL] * len(keys)
                    if hits:
                        metrics.inc(units.hits, hits)
                    missed = len(keys) - hits
                    if not missed:
                        # every unit hit: respond from the probe's values
                        end = now + HIT_LATENCY_S
                        duration = max(duration, end)
                        respond(req, values if executed else None, hits, 0,
                                now, end, None, 1)
                    else:
                        if cache is not None or units.counts_uncached:
                            metrics.inc(units.misses, missed)
                        tickets[req.rid] = _Ticket(
                            req, values if executed else None,
                            remaining=missed, hits=hits)
                        queued = len(pending)
                        for unit, value in enumerate(values):
                            if value is not _MISS_SENTINEL:
                                continue
                            key = keys[unit]
                            job = open_jobs.get(key)
                            if job is not None:
                                # identical unit already queued or in
                                # flight (another request, or a duplicate-
                                # content tile of this one): wait on it
                                job.waiters.append((req.rid, unit))
                                metrics.inc(units.coalesced)
                            else:
                                job = _Job(key, unit, sigs[unit], now, x,
                                           [(req.rid, unit)])
                                if units.coalesced is not None:
                                    open_jobs[key] = job
                                pending.append(job)
                        if len(pending) > queued:
                            push(req.arrival_s + max_wait_s, _DEADLINE, None)
                        maybe_scale_up(now)
                    if monitor is not None and units.miss_feed is not None:
                        monitor.record(units.miss_feed, missed / len(keys),
                                       t=now)
                depth_h.observe(len(pending))
                if monitor is not None:
                    monitor.record("serve/queue_depth", len(pending), t=now)
                    monitor.record("serve/shed_event",
                                   1.0 if refused == "shed" else 0.0, t=now)
            # _DEADLINE events carry no state; they exist to wake the
            # batcher at the max-wait boundary
            try_dispatch(now)
            maybe_scale_down(now)
            if pending and not heap and next_arrival == n_arrivals:
                # all arrivals and completions processed but jobs remain
                # queued: wake at the earliest dispatch opportunity
                wake = min(min(free[r] for r in range(self.n_replicas)
                               if active[r]),
                           pending[0].arrival_s + max_wait_s)
                push(max(wake, now), _DEADLINE, None)

        # ---------------- close out: roots, gauges ---------------- #
        for r, opened in window_open.items():
            replica_seconds[r] += duration - opened
        metrics.gauge("serve/replica_seconds", sum(replica_seconds))
        utilization: dict[int, float] = {}
        for r in range(self.n_replicas):
            util = busy_s[r] / duration if duration else 0.0
            utilization[r] = util
            metrics.inc(f"serve/replica/{r}/busy_s", busy_s[r])
            metrics.gauge(f"serve/replica/{r}/utilization", util)
            spans.append(Span(
                name="serve/replica", cat="serve", rank=self.home_rank(r),
                start_s=0.0, dur_s=duration, depth=0,
                args={"replica": r, "ranks": self.replica_ranks(r),
                      "utilization": util,
                      "active_s": replica_seconds[r], "modeled": True}))
        for name, hist in (("serve/latency_s", latency_h),
                           ("serve/queue_wait_s", wait_h),
                           ("serve/queue_depth", depth_h)):
            if hist.count:
                metrics.histograms[name] = hist
        if cache is not None:
            # this run's probes, not the cache's lifetime
            hits, misses = cache.hits - probed[0], cache.misses - probed[1]
            metrics.gauge("serve/cache/hit_rate",
                          hits / (hits + misses) if hits + misses else 0.0)
            metrics.gauge("serve/cache/size", len(cache))
        units.close_out(metrics)
        metrics.gauge("serve/duration_s", duration)
        if duration:
            metrics.gauge("serve/throughput_rps", len(responses) / duration)
        ordered = [responses[rid] for rid in sorted(responses)]
        if any(resp is None for resp in ordered):
            raise RuntimeError("scheduler dropped a request")  # unreachable
        return ServeResult(responses=ordered, spans=spans, metrics=metrics,
                           duration_s=duration, n_replicas=self.n_replicas,
                           gpus_per_replica=self.gpus_per_replica,
                           utilization=utilization)
