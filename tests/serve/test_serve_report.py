"""Tests for the perf_model serving extensions: per-sample inference
pricing, the replica-count-vs-SLO report, and every traffic scenario
served at the fleet that report recommends."""

import pytest

from repro.core import PAPER_CONFIGS
from repro.distributed import (
    inference_time_per_sample,
    serve_report,
    service_time_model,
)
from repro.distributed.perf_model import DEFAULT_SERVICE_TIME, ServiceTimeModel
from repro.serve import (
    SCENARIOS,
    BatchPolicy,
    DownscalingService,
    TileCache,
    TrafficGenerator,
)

from tests.golden import assert_golden


class TestServiceTimeModel:
    def test_affine_in_batch_size(self):
        m = ServiceTimeModel(dispatch_s=2e-3, per_sample_s=1e-2)
        assert m(1) == pytest.approx(1.2e-2)
        assert m(4) == pytest.approx(2e-3 + 4e-2)
        # amortization: per-request cost falls with batch size
        assert m(8) / 8 < m(1)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            DEFAULT_SERVICE_TIME(0)

    def test_inference_time_scales_with_model_and_gpus(self):
        small = inference_time_per_sample(PAPER_CONFIGS["126M"])
        big = inference_time_per_sample(PAPER_CONFIGS["1B"])
        assert big > small > 0.0
        sharded = inference_time_per_sample(PAPER_CONFIGS["1B"],
                                            gpus_per_replica=8)
        assert sharded == pytest.approx(big / 8)

    def test_service_time_model_uses_roofline_per_sample(self):
        cfg = PAPER_CONFIGS["126M"]
        m = service_time_model(cfg, gpus_per_replica=4)
        per_sample = inference_time_per_sample(cfg, gpus_per_replica=4)
        assert m.per_sample_s == pytest.approx(per_sample)
        assert m(2) == pytest.approx(m.dispatch_s + 2 * per_sample)


class TestServeReport:
    @pytest.fixture(scope="class")
    def report(self):
        return serve_report(PAPER_CONFIGS["1B"], scenario="burst",
                            rate_rps=40.0, duration_s=20.0, slo_p99_s=0.5,
                            max_replicas=6, gpus_per_replica=8, seed=0)

    def test_rows_cover_every_candidate_count(self, report):
        assert [r["replicas"] for r in report["rows"]] == [1, 2, 3, 4, 5, 6]
        for row in report["rows"]:
            assert row["gpus"] == row["replicas"] * 8
            assert row["p50_s"] <= row["p99_s"]
            assert 0.0 <= row["utilization_mean"] <= 1.0
            assert row["meets_slo"] == (row["p99_s"] <= 0.5)

    def test_recommends_smallest_count_meeting_slo(self, report):
        rec = report["recommended_replicas"]
        assert rec is not None
        meeting = [r["replicas"] for r in report["rows"] if r["meets_slo"]]
        assert rec == min(meeting)
        # everything below the recommendation misses the SLO
        for row in report["rows"]:
            if row["replicas"] < rec:
                assert not row["meets_slo"]

    def test_p99_improves_monotonically_until_saturation_lifts(self, report):
        p99 = [r["p99_s"] for r in report["rows"]]
        assert p99[0] == max(p99)  # one replica is the worst case

    def test_deterministic(self, report):
        again = serve_report(PAPER_CONFIGS["1B"], scenario="burst",
                             rate_rps=40.0, duration_s=20.0, slo_p99_s=0.5,
                             max_replicas=6, gpus_per_replica=8, seed=0)
        assert again == report

    def test_impossible_slo_recommends_nothing(self):
        report = serve_report(PAPER_CONFIGS["1B"], scenario="burst",
                              rate_rps=40.0, duration_s=5.0, slo_p99_s=1e-9,
                              max_replicas=2, gpus_per_replica=8)
        assert report["recommended_replicas"] is None
        assert not any(r["meets_slo"] for r in report["rows"])

    def test_explicit_replica_counts(self):
        report = serve_report(PAPER_CONFIGS["126M"], scenario="steady",
                              rate_rps=20.0, duration_s=5.0,
                              replica_counts=[2, 4], gpus_per_replica=4)
        assert [r["replicas"] for r in report["rows"]] == [2, 4]


class TestScenarioSweep:
    """Every traffic scenario, latency-only, at the fleet ``serve_report``
    recommends for burst: burst meets the SLO there, and a cache smaller
    than the input population both hits and evicts in every scenario.
    The rendered table is pinned by the ``serve_scenarios`` golden."""

    RATE_RPS, DURATION_S, SLO_P99_S, GPUS = 40.0, 20.0, 0.5, 8
    N_INPUTS, CACHE_CAPACITY = 24, 8
    POLICY = BatchPolicy(max_batch=8, max_wait_s=0.05)

    @pytest.fixture(scope="class")
    def sweep(self):
        pricing = serve_report(
            PAPER_CONFIGS["1B"], scenario="burst", rate_rps=self.RATE_RPS,
            duration_s=self.DURATION_S, slo_p99_s=self.SLO_P99_S,
            max_replicas=8, gpus_per_replica=self.GPUS,
            max_batch=self.POLICY.max_batch,
            max_wait_s=self.POLICY.max_wait_s, seed=0)
        assert pricing["recommended_replicas"] is not None
        rows = {}
        for scenario in SCENARIOS:
            gen = TrafficGenerator(scenario, self.RATE_RPS, self.DURATION_S,
                                   seed=0, n_inputs=self.N_INPUTS,
                                   popularity=1.2)
            service = DownscalingService(
                n_replicas=pricing["recommended_replicas"],
                gpus_per_replica=self.GPUS, policy=self.POLICY,
                cache=TileCache(self.CACHE_CAPACITY),
                config=PAPER_CONFIGS["1B"])
            rows[scenario] = service.run(gen.generate()).summary()
        return pricing, rows

    def test_burst_meets_slo_at_recommended_fleet(self, sweep):
        _, rows = sweep
        assert rows["burst"]["latency_p99_s"] <= self.SLO_P99_S
        assert (rows["burst"]["queue_depth_max"]
                >= rows["steady"]["queue_depth_max"])

    def test_cache_hits_and_evicts_in_every_scenario(self, sweep):
        _, rows = sweep
        for scenario, s in rows.items():
            assert s["requests"] > 0, scenario
            assert s["cache_hit_rate"] > 0.0, scenario
            assert s["cache_evictions"] > 0, scenario
            assert 0.0 < s["utilization_mean"] <= 1.0, scenario

    def test_table_golden(self, sweep):
        pricing, rows = sweep
        lines = [
            f"Downscaling service: 1B model, {self.RATE_RPS:g} rps for "
            f"{self.DURATION_S:g}s, SLO p99 <= {self.SLO_P99_S * 1e3:g} ms",
            f"sizing: {pricing['recommended_replicas']} replicas x "
            f"{self.GPUS} GPUs recommended "
            f"(burst, per-sample {pricing['per_sample_s'] * 1e3:.1f} ms)",
            f"cache: {self.CACHE_CAPACITY} entries over {self.N_INPUTS} "
            f"distinct inputs",
            "-" * 72,
            f"{'scenario':>9s} {'reqs':>6s} {'p50 ms':>8s} {'p99 ms':>8s} "
            f"{'rps':>7s} {'depth':>6s} {'bmean':>6s} {'hit%':>6s} "
            f"{'util%':>6s}",
        ]
        for scenario in SCENARIOS:
            s = rows[scenario]
            lines.append(
                f"{scenario:>9s} {s['requests']:>6d} "
                f"{s['latency_p50_s'] * 1e3:>8.2f} "
                f"{s['latency_p99_s'] * 1e3:>8.2f} "
                f"{s['throughput_rps']:>7.1f} {s['queue_depth_max']:>6.0f} "
                f"{s['batch_size_mean']:>6.2f} "
                f"{s['cache_hit_rate'] * 100:>6.1f} "
                f"{s['utilization_mean'] * 100:>6.1f}")
        assert_golden("serve_scenarios", "\n".join(lines) + "\n", rtol=0.25)
