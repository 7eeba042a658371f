"""Communication/compute overlap: async collectives, backward-driven
bucketed reduction, and the two-stream modeled timeline.

The load-bearing guarantees:

* bucketed async reduction is **bit-identical** to the eager barrier
  path for DDP, FSDP, and the composite stack at world=8 — same losses,
  same post-step parameters, same traffic;
* the two-stream schedule on the Fig. 5 plan models ≥ 15% step-time
  reduction with exact accounting consistency (its table pinned by the
  ``overlap_fig5`` golden), while the barrier schedule and
  ``plan_comm_costs`` stay byte-identical;
* the tracer prices async collectives as overlapped vs exposed, and the
  Chrome export renders compute and comm as separate tracks per rank.
"""

import numpy as np
import pytest

from repro.core import PAPER_CONFIGS, ModelConfig, Reslim
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    VirtualCluster,
    GradBucketer,
    aligned_ring_chunks,
    modeled_step_timeline,
    overlap_report,
    plan_comm_costs,
)
from repro.nn import FlatParamBuffer, Linear, Sequential
from repro.obs import SimClock, Tracer
from repro.obs.export import chrome_trace
from repro.tensor import Tensor

from tests.golden import assert_golden

WORLD = 8
ORACLE = ModelConfig("oracle-tiny", embed_dim=16, depth=1, num_heads=8)


def _mse(pred, target):
    diff = pred - target
    return (diff * diff).mean()


def _model(seed):
    return Reslim(ORACLE, in_channels=2, out_channels=1, factor=2,
                  max_tokens=256, rng=np.random.default_rng(seed))


# --------------------------------------------------------------------- #
# aligned ring chunks
# --------------------------------------------------------------------- #
class TestAlignedRingChunks:
    def test_full_range_matches_global_partition(self):
        chunks = aligned_ring_chunks(0, 103, 103, 5)
        ref = np.array_split(np.arange(103), 5)
        assert len(chunks) == 5
        for got, want in zip(chunks, ref):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lo,hi", [(0, 10), (7, 31), (30, 30), (95, 103)])
    def test_subrange_is_global_intersection(self, lo, hi):
        total, p = 103, 4
        chunks = aligned_ring_chunks(lo, hi, total, p)
        ref = np.array_split(np.arange(total), p)
        covered = []
        for got, want in zip(chunks, ref):
            absolute = got + lo
            assert set(absolute).issubset(set(want))
            covered.extend(absolute)
        np.testing.assert_array_equal(np.sort(covered), np.arange(lo, hi))

    def test_empty_chunks_are_allowed(self):
        # a bucket entirely inside one global chunk: others come back empty
        chunks = aligned_ring_chunks(2, 5, 100, 4)
        assert sum(c.size for c in chunks) == 3
        assert sum(1 for c in chunks if c.size == 0) == 3

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match="outside buffer"):
            aligned_ring_chunks(5, 120, 100, 4)

    def test_bucketed_all_reduce_bit_identical_to_whole_buffer(self):
        """The point of the alignment: per-bucket ring all-reduces with
        aligned chunks reproduce the whole-buffer call bit for bit."""
        rng = np.random.default_rng(0)
        n, p = 1031, 4
        bufs = [rng.standard_normal(n).astype(np.float32) for _ in range(p)]
        group = VirtualCluster(p).world_group()
        whole = group.all_reduce([b.copy() for b in bufs], op="mean")
        pieces = [np.empty(n, dtype=np.float32) for _ in range(p)]
        for lo, hi in [(0, 400), (400, 1000), (1000, 1031)]:
            chunks = aligned_ring_chunks(lo, hi, n, p)
            part = VirtualCluster(p).world_group().all_reduce(
                [b[lo:hi].copy() for b in bufs], op="mean", chunks=chunks)
            for dst, flat in zip(pieces, part):
                dst[lo:hi] = flat
        for got, want in zip(pieces, whole):
            np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------- #
# GradBucketer
# --------------------------------------------------------------------- #
class TestGradBucketer:
    def _buffer(self):
        model = Sequential(Linear(6, 8, rng=np.random.default_rng(0)),
                           Linear(8, 4, rng=np.random.default_rng(1)))
        return model, FlatParamBuffer(model.parameters())

    def test_buckets_tile_the_buffer_contiguously(self):
        _, buf = self._buffer()
        bucketer = GradBucketer(buf, bucket_bytes=64)
        spans = sorted((b.lo, b.hi) for b in bucketer.buckets)
        assert spans[0][0] == 0 and spans[-1][1] == buf.size
        for (_, hi), (lo, _) in zip(spans[:-1], spans[1:]):
            assert hi == lo
        assert len(bucketer.buckets) > 1
        # tail-first: bucket 0 holds the last-registered parameters
        assert bucketer.buckets[0].hi == buf.size

    def test_backward_fires_each_bucket_exactly_once(self):
        model, buf = self._buffer()
        bucketer = GradBucketer(buf, bucket_bytes=64)
        fired = []
        buf.zero_grad()
        bucketer.arm(lambda b: fired.append(b.index))
        try:
            x = Tensor(np.random.default_rng(2)
                       .standard_normal((3, 6)).astype(np.float32))
            loss = (model(x) * model(x)).mean()
            loss.backward()
            bucketer.flush()
        finally:
            bucketer.disarm()
        assert sorted(fired) == [b.index for b in bucketer.buckets]
        assert len(fired) == len(set(fired))
        for p in buf.params:
            assert p._ready_hook is None  # disarm removed every hook

    def test_flush_covers_params_outside_the_graph(self):
        model, buf = self._buffer()
        bucketer = GradBucketer(buf, bucket_bytes=1 << 20)  # one big bucket
        fired = []
        buf.zero_grad()
        bucketer.arm(lambda b: fired.append(b.index))
        try:
            bucketer.flush()  # no backward ran at all
        finally:
            bucketer.disarm()
        assert fired == [0]


# --------------------------------------------------------------------- #
# eager vs overlap bit-identity at world=8 (the acceptance bar)
# --------------------------------------------------------------------- #
def _build(overlap, batch, side, **levels):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((batch, 2, side, side)).astype(np.float32)
    y = rng.standard_normal((batch, 1, 2 * side, 2 * side)).astype(np.float32)
    strat = CompositeStrategy(CompositePlan(VirtualCluster(WORLD), **levels),
                              _mse, halo=2, factor=2,
                              overlap=overlap, bucket_bytes=1 << 12)
    strat.setup(lambda u: _model(3 + u))
    return strat, (x, y)


def _run_ddp(overlap):
    return _build(overlap, WORLD, 8, ddp=WORLD)


def _run_fsdp(overlap):
    return _build(overlap, 4, 8, fsdp=WORLD)


def _run_composite(overlap):
    return _build(overlap, 2, 16, fsdp=2, tiles=2, ddp=2)


class TestEagerVsOverlapBitIdentity:
    @pytest.mark.parametrize("build", [_run_ddp, _run_fsdp, _run_composite],
                             ids=["ddp", "fsdp", "composite"])
    def test_losses_and_post_step_params_bit_identical(self, build):
        def step(overlap):
            strat, (x, y) = build(overlap)
            losses = strat.forward_backward(x, y)
            strat.reduce_gradients()
            strat.apply_sgd(0.05)
            params = [strat.unit_params(i) for i in range(len(strat.units()))]
            bytes_total = sum(
                v for k, v in strat.comm_summary().items()
                if k.endswith("_level_bytes"))
            return losses, params, bytes_total

        eager_losses, eager_params, eager_bytes = step(False)
        ov_losses, ov_params, ov_bytes = step(True)
        assert ov_losses == eager_losses
        for got, want in zip(ov_params, eager_params):
            np.testing.assert_array_equal(got, want)
        # same traffic, different schedule — the composite path may pad
        # each bucket (not just the whole buffer) to a multiple of the
        # FSDP ways, so allow that sliver of extra bytes and nothing more
        assert eager_bytes <= ov_bytes <= eager_bytes + 1024

    @pytest.mark.parametrize("build", [_run_ddp, _run_fsdp, _run_composite],
                             ids=["ddp", "fsdp", "composite"])
    def test_overlap_goes_through_async_launches(self, build):
        strat, (x, y) = build(True)
        strat.forward_backward(x, y)
        strat.reduce_gradients()
        launches = strat.comm_summary()["async_launches"]
        assert sum(n for per in launches.values() for n in per.values()) > 0


class TestCommStatsAsyncAccounting:
    def test_reset_clears_async_launches(self):
        group = VirtualCluster(4).world_group()
        bufs = [np.ones(32, dtype=np.float32) for _ in range(4)]
        group.all_reduce_async(bufs, op="mean").wait()
        assert group.stats.async_launches.get("all_reduce") == 1
        group.stats.reset()
        assert group.stats.async_launches == {}
        assert group.stats.calls == {}

    def test_wait_is_idempotent(self):
        group = VirtualCluster(2).world_group()
        bufs = [np.ones(8, dtype=np.float32) * r for r in range(2)]
        work = group.all_reduce_async(bufs, op="mean")
        first = work.wait()
        assert work.wait() is first


# --------------------------------------------------------------------- #
# tracer: comm-stream pricing
# --------------------------------------------------------------------- #
def _tracer():
    wall = [0.0]
    return Tracer(clock=SimClock(wall=lambda: wall[0]), trace_engine_ops=False)


class TestTracerCommStream:
    def test_async_spans_run_on_the_comm_stream(self):
        group = VirtualCluster(4).world_group()
        bufs = [np.ones(256, dtype=np.float32) for _ in range(4)]
        tr = _tracer()
        with tr:
            work = group.all_reduce_async(bufs, op="mean")
            # compute clocks did NOT advance at launch
            assert tr.clock.offset(0) == 0.0
            work.wait()
        spans = [s for s in tr.spans if s.name == "comm/all_reduce"]
        assert len(spans) == 4
        assert all(s.stream == "comm" for s in spans)
        expected = group.collective_time("all_reduce", bufs[0].nbytes)
        # nothing overlapped: the whole collective is exposed at the wait
        assert tr.clock.offset(0) == pytest.approx(expected)
        assert tr.metrics.counters["comm/exposed_time_s"] == pytest.approx(expected)
        assert tr.metrics.counters.get("comm/overlapped_time_s", 0.0) == 0.0

    def test_compute_between_launch_and_wait_is_overlapped(self):
        group = VirtualCluster(4).world_group()
        bufs = [np.ones(1 << 16, dtype=np.float32) for _ in range(4)]
        tr = _tracer()
        total = group.collective_time("all_reduce", bufs[0].nbytes)
        hidden = total / 2
        with tr:
            work = group.all_reduce_async(bufs, op="mean")
            for r in range(4):
                tr.clock.advance(r, hidden)  # backward compute in flight
            work.wait()
        assert tr.metrics.counters["comm/exposed_time_s"] == pytest.approx(
            total - hidden)
        assert tr.metrics.counters["comm/overlapped_time_s"] == pytest.approx(
            hidden)
        # the wait leaves every member at the collective's end time
        assert tr.clock.offset(0) == pytest.approx(total)

    def test_two_track_chrome_export(self):
        group = VirtualCluster(2).world_group()
        bufs = [np.ones(64, dtype=np.float32) for _ in range(2)]
        tr = _tracer()
        with tr:
            with tr.span("compute/backward", rank=0):
                tr.clock.advance(0, 1e-3)
            group.all_reduce_async(bufs, op="mean").wait()
        doc = chrome_trace(tr.spans)
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        tids = {e["tid"] for e in events}
        assert 0 in tids and 1 in tids  # rank 0 compute + comm tracks
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "rank 0 compute" in names
        assert "rank 0 comm" in names


# --------------------------------------------------------------------- #
# two-stream modeled timeline
# --------------------------------------------------------------------- #
FIG5_PLAN = lambda: CompositePlan(VirtualCluster(32), tp=8, fsdp=2,  # noqa: E731
                                  tiles=2, ddp=1)


class TestOverlapTimeline:
    def test_fig5_speedup_at_least_15_percent(self):
        report = overlap_report(FIG5_PLAN(), PAPER_CONFIGS["1B"])
        assert report["speedup"] >= 1.15
        assert report["overlapped_fraction"] > 0.0
        assert report["step_time_overlap"] <= report["step_time_barrier"]

    def test_fig5_report_table_golden(self):
        report = overlap_report(FIG5_PLAN(), PAPER_CONFIGS["1B"], n_buckets=8)
        lines = [
            "Communication/compute overlap: Fig. 5 composite plan, 1B on 32 GPUs",
            f"tp=8 x fsdp=2 x tiles=2 x ddp=1, {report['n_buckets']} "
            f"gradient buckets",
            "-" * 64,
            f"barrier step:        {report['step_time_barrier'] * 1e3:9.2f} ms",
            f"overlapped step:     {report['step_time_overlap'] * 1e3:9.2f} ms",
            f"modeled speedup:     {report['speedup']:9.2f} x",
            f"compute stream:      {report['compute_stream_time'] * 1e3:9.2f} ms",
            f"exposed comm:        {report['exposed_comm_time'] * 1e3:9.2f} ms",
            f"hidden under compute:{report['overlapped_fraction'] * 100:8.1f} %",
        ]
        assert_golden("overlap_fig5", "\n".join(lines) + "\n", rtol=0.25)

    def test_accounting_consistency_is_exact(self):
        report = overlap_report(FIG5_PLAN(), PAPER_CONFIGS["1B"])
        assert (report["compute_stream_time"] + report["exposed_comm_time"]
                == report["step_time_overlap"])

    def test_overlap_timeline_has_two_streams_per_rank(self):
        spans = modeled_step_timeline(FIG5_PLAN(), PAPER_CONFIGS["1B"],
                                      overlap=True)
        by_rank_streams = {}
        for s in spans:
            by_rank_streams.setdefault(s.rank, set()).add(s.stream)
        assert set(by_rank_streams) == set(range(32))
        for streams in by_rank_streams.values():
            assert streams == {"main", "comm"}

    def test_comm_stream_spans_carry_bucket_dependencies(self):
        spans = modeled_step_timeline(FIG5_PLAN(), PAPER_CONFIGS["1B"],
                                      overlap=True, n_buckets=4)
        buckets = sorted({s.args.get("bucket") for s in spans
                          if s.stream == "comm" and "bucket" in s.args})
        assert buckets == [0, 1, 2, 3]
        # bucket k+1's reduce on a level starts no earlier than bucket k's
        per_level = {}
        for s in spans:
            if s.stream == "comm" and "bucket" in s.args and s.rank == 0:
                per_level.setdefault(s.args["op"], []).append(
                    (s.args["bucket"], s.start_s))
        for entries in per_level.values():
            entries.sort()
            starts = [start for _, start in entries]
            assert starts == sorted(starts)

    def test_barrier_schedule_unchanged_by_overlap_support(self):
        plan, cfg = FIG5_PLAN(), PAPER_CONFIGS["1B"]
        default = modeled_step_timeline(plan, cfg)
        explicit = modeled_step_timeline(FIG5_PLAN(), cfg, overlap=False)
        assert len(default) == len(explicit)
        for a, b in zip(default, explicit):
            assert (a.name, a.rank, a.start_s, a.dur_s, a.stream) == \
                   (b.name, b.rank, b.start_s, b.dur_s, b.stream)
        assert all(s.stream == "main" for s in default)

    def test_plan_comm_costs_rows_not_mutated_by_overlap(self):
        plan, cfg = FIG5_PLAN(), PAPER_CONFIGS["1B"]
        before = plan_comm_costs(plan, cfg)
        modeled_step_timeline(plan, cfg, overlap=True)
        after = plan_comm_costs(plan, cfg)
        assert before == after

    def test_world16_composite_plan_also_overlaps(self):
        plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
        report = overlap_report(plan, PAPER_CONFIGS["1B"])
        assert report["speedup"] > 1.0
        assert report["overlapped_fraction"] > 0.0
