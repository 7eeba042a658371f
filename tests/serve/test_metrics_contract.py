"""The serving metrics contract: every number the service reports must
be re-derivable from its own responses and trace spans.

The obs layer is only trustworthy if its three outputs — responses,
metrics, spans — tell one consistent story.  These tests recompute each
headline metric (p50/p99 latency, queue depth, hit rate, utilization)
from first principles and demand agreement, and reuse the repo's
``span_coverage`` gate pattern: batch-span coverage of each replica's
root span must equal the reported utilization (≥95% agreement is the
training-trace bar; here the structures are exact, so the bar is ~1 ulp).
"""

import numpy as np
import pytest

from repro.obs import span_coverage
from repro.serve import (
    BatchPolicy,
    DownscalingService,
    TileCache,
    TrafficGenerator,
)

N_REPLICAS = 3


def _percentile_like_histogram(values, q):
    """Reference implementation of ``Histogram.percentile``."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[idx]


def _burst():
    """Burst traffic over 12 inputs and a service with cache + 3 replicas."""
    gen = TrafficGenerator("burst", 40.0, 6.0, seed=9, n_inputs=12,
                           popularity=1.2)
    return gen.generate(), DownscalingService(
        n_replicas=N_REPLICAS, gpus_per_replica=2,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.03),
        cache=TileCache(6))


@pytest.fixture(scope="module")
def run():
    """One latency-only burst run, shared by all contract checks (the
    run is deterministic, so sharing is safe)."""
    requests, service = _burst()
    return service, requests, service.run(requests)


class TestLatencyHistograms:
    def test_counts_cover_every_request(self, run):
        _, requests, result = run
        lat = result.metrics.histograms["serve/latency_s"]
        wait = result.metrics.histograms["serve/queue_wait_s"]
        assert lat.count == wait.count == len(requests) == len(result.responses)

    def test_percentiles_match_response_derived_values(self, run):
        _, _, result = run
        latencies = [r.latency_s for r in result.responses]
        waits = [r.queue_wait_s for r in result.responses]
        lat = result.metrics.histograms["serve/latency_s"]
        wait = result.metrics.histograms["serve/queue_wait_s"]
        for q in (50, 99):
            assert lat.percentile(q) == _percentile_like_histogram(latencies, q)
        assert wait.percentile(99) == _percentile_like_histogram(waits, 99)
        assert lat.mean == pytest.approx(np.mean(latencies))
        assert lat.max == max(latencies)

    def test_summary_echoes_the_histograms(self, run):
        _, _, result = run
        s = result.summary()
        lat = result.metrics.histograms["serve/latency_s"]
        assert s["latency_p50_s"] == lat.percentile(50)
        assert s["latency_p99_s"] == lat.percentile(99)
        assert s["requests"] == lat.count
        assert s["throughput_rps"] == pytest.approx(
            len(result.responses) / result.duration_s)


class TestQueueDepth:
    def test_sampled_once_per_arrival_and_bounded(self, run):
        _, requests, result = run
        depth = result.metrics.histograms["serve/queue_depth"]
        assert depth.count == len(requests)
        assert depth.min >= 0
        assert depth.max <= len(requests)
        assert result.summary()["queue_depth_max"] == depth.max

    def test_burst_pushes_the_queue_deeper_than_steady(self):
        def depth_max(scenario):
            gen = TrafficGenerator(scenario, 40.0, 6.0, seed=9, n_inputs=12)
            service = DownscalingService(
                n_replicas=1, policy=BatchPolicy(max_batch=4, max_wait_s=0.03))
            return service.run(gen.generate()).summary()["queue_depth_max"]

        assert depth_max("burst") > depth_max("steady")


class TestCacheMetrics:
    def test_counters_match_cache_and_responses(self, run):
        service, _, result = run
        c = result.metrics.counters
        hits = [r for r in result.responses if r.cache_hit]
        misses = [r for r in result.responses if not r.cache_hit]
        assert hits, "burst traffic over 12 inputs must produce hits"
        assert c["serve/cache/hits"] == service.cache.hits == len(hits)
        assert c["serve/cache/misses"] == service.cache.misses == len(misses)
        assert c["serve/cache/evictions"] == service.cache.evictions
        assert service.cache.evictions > 0, (
            "capacity 6 < 12 inputs must evict")

    def test_hit_rate_gauge_is_hits_over_lookups(self):
        """The gauge is this run's rate, also when the service — and so
        its cache — served a run before (the cache's lifetime counters
        then differ from the run's)."""
        requests, service = _burst()
        for _ in range(2):
            result = service.run(requests)
            c = result.metrics.counters
            rate = result.metrics.gauges["serve/cache/hit_rate"]
            assert rate == c["serve/cache/hits"] / (
                c["serve/cache/hits"] + c["serve/cache/misses"])
            assert result.summary()["cache_hit_rate"] == rate
        assert service.cache.hit_rate != rate

    def test_hits_cost_hit_latency_only(self, run):
        service, _, result = run
        for r in result.responses:
            if r.cache_hit:
                assert r.replica is None and r.batch_size == 1
                assert r.latency_s == pytest.approx(service.hit_latency_s)


class TestSpanContract:
    def test_span_coverage_reproduces_utilization_gauges(self, run):
        """The ≥95%-coverage gate pattern from the training traces —
        serving spans are exact by construction, so demand agreement to
        float tolerance on every replica."""
        service, _, result = run
        for r in range(N_REPLICAS):
            cov = span_coverage(result.spans, "serve/replica",
                                rank=service.home_rank(r))
            util = result.metrics.gauges[f"serve/replica/{r}/utilization"]
            assert cov == pytest.approx(util, rel=1e-9)
            assert util == pytest.approx(result.utilization[r])
            assert cov >= 0.95 * util

    def test_batch_spans_sum_to_busy_time(self, run):
        service, _, result = run
        for r in range(N_REPLICAS):
            rank = service.home_rank(r)
            dur = sum(s.dur_s for s in result.spans
                      if s.name == "serve/batch" and s.rank == rank)
            busy = result.metrics.counters[f"serve/replica/{r}/busy_s"]
            assert dur == pytest.approx(busy, rel=1e-12)

    def test_batch_spans_never_overlap_on_a_replica(self, run):
        service, _, result = run
        for r in range(N_REPLICAS):
            rank = service.home_rank(r)
            windows = sorted((s.start_s, s.end_s) for s in result.spans
                             if s.name == "serve/batch" and s.rank == rank)
            for (_, end), (start, _) in zip(windows, windows[1:]):
                assert start >= end

    def test_one_root_span_per_replica_covering_the_run(self, run):
        service, _, result = run
        roots = [s for s in result.spans if s.name == "serve/replica"]
        assert len(roots) == N_REPLICAS
        assert {s.rank for s in roots} == {service.home_rank(r)
                                           for r in range(N_REPLICAS)}
        for s in roots:
            assert s.depth == 0
            assert s.start_s == 0.0
            assert s.dur_s == result.duration_s

    def test_batch_counter_matches_spans_and_sizes_cover_misses(self, run):
        _, _, result = run
        batch_spans = [s for s in result.spans if s.name == "serve/batch"]
        assert result.metrics.counters["serve/batches"] == len(batch_spans)
        sizes = result.metrics.histograms["serve/batch_size"]
        assert sizes.count == len(batch_spans)
        misses = sum(1 for r in result.responses if not r.cache_hit)
        assert sizes.total == misses
        rids = sorted(rid for s in batch_spans for rid in s.args["rids"])
        assert rids == sorted(r.request.rid for r in result.responses
                              if not r.cache_hit)

    def test_every_span_is_marked_modeled(self, run):
        _, _, result = run
        assert result.spans, "a serve run must emit spans"
        assert all(s.args.get("modeled") for s in result.spans)
