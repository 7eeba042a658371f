"""Admission control and queue-driven autoscaling in the serving loop.

Both features are scheduling-only: they decide *whether* and *where* a
request runs, never what a model computes, so every assertion here is
about queue bounds, response statuses, and replica-second accounting.
"""

import pytest

from repro.serve import (
    AutoscalePolicy,
    BatchPolicy,
    DownscalingService,
    Request,
    ServiceTimeModel,
    TileCache,
    TrafficGenerator,
)


def _burst(n=80, spacing_s=0.001):
    """A hard burst: n requests arriving far faster than one replica drains."""
    return [Request(rid=i, arrival_s=i * spacing_s, sample=i % 8)
            for i in range(n)]


def _service(**kw):
    kw.setdefault("policy", BatchPolicy(max_batch=4, max_wait_s=0.002))
    kw.setdefault("service_time", ServiceTimeModel(0.02, {(): 0.0}))
    return DownscalingService(**kw)


class TestAdmissionControl:
    def test_queue_depth_is_bounded_and_overflow_sheds(self):
        service = _service(n_replicas=1, max_queue_depth=10)
        result = service.run(_burst())
        summary = result.summary()
        assert summary["queue_depth_max"] <= 10
        assert summary["shed"] > 0
        shed = [r for r in result.responses if r.status == "shed"]
        served = [r for r in result.responses if r.status == "ok"]
        assert len(shed) == summary["shed"]
        assert len(shed) + len(served) == len(result.responses) == 80
        for r in shed:
            assert r.replica is None and r.batch_size == 0

    def test_shed_responses_stay_out_of_latency_histograms(self):
        service = _service(n_replicas=1, max_queue_depth=5)
        result = service.run(_burst())
        served = sum(1 for r in result.responses if r.status == "ok")
        assert result.metrics.histograms["serve/latency_s"].count == served

    def test_shed_requests_never_probe_the_cache(self):
        """Shedding is decided before the cache is probed, so overload
        cannot drag the hit rate down with phantom misses."""
        cache = TileCache(4)
        service = _service(n_replicas=1, max_queue_depth=5, cache=cache)
        result = service.run(_burst())
        served = [r for r in result.responses if r.status == "ok"]
        assert len(served) < len(result.responses), "fixture must shed"
        assert cache.hits + cache.misses == len(served)
        counters = result.metrics.counters
        assert (counters["serve/cache/hits"] + counters["serve/cache/misses"]
                == len(served))

    def test_unbounded_queue_sheds_nothing(self):
        service = _service(n_replicas=1)
        result = service.run(_burst())
        assert result.summary()["shed"] == 0
        assert all(r.status == "ok" for r in result.responses)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            _service(n_replicas=1, max_queue_depth=0)


class TestAutoscaler:
    POLICY = AutoscalePolicy(min_replicas=1, scale_up_depth=4,
                             cooldown_s=0.01, spinup_s=0.002)

    def test_burst_triggers_scale_up_then_idle_scale_down(self):
        service = _service(n_replicas=4, autoscale=self.POLICY)
        summary = service.run(_burst()).summary()
        assert summary["scale_ups"] > 0
        assert summary["scale_downs"] > 0
        assert summary["shed"] == 0

    def test_autoscaled_fleet_spends_fewer_replica_seconds(self):
        """Same burst, same p99: the scaled fleet bills less capacity
        and still meets the 500 ms p99 SLO."""
        static = _service(n_replicas=4).run(_burst()).summary()
        scaled = _service(n_replicas=4, autoscale=self.POLICY) \
            .run(_burst()).summary()
        assert scaled["replica_seconds"] < static["replica_seconds"]
        assert scaled["latency_p99_s"] <= static["latency_p99_s"] * 1.5
        assert scaled["latency_p99_s"] <= 0.5

    def test_static_fleet_reports_full_replica_seconds(self):
        result = _service(n_replicas=2).run(_burst())
        summary = result.summary()
        assert summary["replica_seconds"] == pytest.approx(
            2 * summary["duration_s"])

    def test_min_replicas_respected(self):
        policy = AutoscalePolicy(min_replicas=2, scale_up_depth=4,
                                 cooldown_s=0.01, spinup_s=0.002)
        with pytest.raises(ValueError, match="min_replicas"):
            _service(n_replicas=1, autoscale=policy)

    def test_determinism(self):
        gen = TrafficGenerator("burst", 60.0, 3.0, seed=5, n_inputs=8)
        requests = gen.generate()
        runs = [
            _service(n_replicas=3, autoscale=self.POLICY).run(requests).summary()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(scale_up_depth=0)
