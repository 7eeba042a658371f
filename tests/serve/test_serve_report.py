"""Tests for serve pricing and sizing: the one service-time model (a
whole request is the one-tile case), the replica-count-vs-SLO report,
and every traffic scenario served at the fleet that report recommends."""

import pytest

from repro.core import PAPER_CONFIGS
from repro.serve import (
    DEFAULT_SERVICE_TIME,
    SCENARIOS,
    BatchPolicy,
    DownscalingService,
    ServiceTimeModel,
    TileCache,
    TrafficGenerator,
    serve_report,
    service_time_model,
)

from tests.golden import assert_golden

# roofline seconds per unit, captured before the whole-request and tile
# models were merged into one, so any moved priced float fails here:
# (config, gpus per replica) -> whole request, and 1B tiles on 8 GPUs at
# halo 2 over a (32, 64) grid -> {signature: seconds}
WHOLE_S = {
    ("126M", 1): 0.021017598039338555,
    ("126M", 8): 0.0026271997549173194,
    ("1B", 1): 0.11128649344779808,
    ("1B", 8): 0.01391081168097476,
}
TILE_S = {
    4: {(18, 34): 0.005908188932741515},
    8: {(18, 18): 0.004522356296083551, (18, 20): 0.004691581181201044},
    16: {(10, 18): 0.0038568973112271545, (10, 20): 0.003948227549173194,
         (12, 18): 0.004021545974099217, (12, 20): 0.004131947335770236},
}


class TestServiceTimeModel:
    def test_affine_in_batch_size(self):
        m = ServiceTimeModel(dispatch_s=2e-3, unit_s={(): 1e-2})
        assert m(1) == pytest.approx(1.2e-2)
        assert m(4) == pytest.approx(2e-3 + 4e-2)
        # amortization: per-request cost falls with batch size
        assert m(8) / 8 < m(1)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            DEFAULT_SERVICE_TIME(0)

    @pytest.mark.parametrize("dispatch_s,unit_s", [
        (-1e-3, {(): 1e-2}), (2e-3, {(): -1e-2}), (2e-3, {})])
    def test_rejects_negative_or_no_times_when_built(self, dispatch_s, unit_s):
        with pytest.raises(ValueError):
            ServiceTimeModel(dispatch_s, unit_s)

    def test_service_rejects_a_model_missing_a_signature(self):
        whole_only = ServiceTimeModel(2e-3, {(): 1e-2})
        with pytest.raises(ValueError, match="prices no signature"):
            DownscalingService(n_tiles=4, halo=2, coarse_shape=(8, 16),
                               tile_serving=True, service_time=whole_only)
        with pytest.raises(ValueError, match="prices no signature"):
            DownscalingService(
                service_time=ServiceTimeModel(2e-3, {(6, 10): 1.0}))

    def test_defaults_are_pinned(self):
        assert DEFAULT_SERVICE_TIME == ServiceTimeModel(2e-3, {(): 2e-2})
        tiled = DownscalingService(n_tiles=4, halo=2, coarse_shape=(8, 16),
                                   tile_serving=True).service_time
        assert tiled == ServiceTimeModel(2e-3, {(6, 10): 0.009375})

    def test_inference_time_scales_with_model_and_gpus(self):
        small = service_time_model(PAPER_CONFIGS["126M"]).unit_s[()]
        big = service_time_model(PAPER_CONFIGS["1B"]).unit_s[()]
        assert big > small > 0.0
        sharded = service_time_model(PAPER_CONFIGS["1B"],
                                     gpus_per_replica=8).unit_s[()]
        assert sharded == pytest.approx(big / 8)

    def test_service_time_model_uses_roofline_per_sample(self):
        for (name, gpus), per_sample in WHOLE_S.items():
            m = service_time_model(PAPER_CONFIGS[name], gpus_per_replica=gpus)
            assert m.unit_s == {(): per_sample}, (name, gpus)
            assert m(2) == m.dispatch_s + 2 * per_sample

    @pytest.mark.parametrize("n_tiles", sorted(TILE_S))
    def test_tile_roofline_is_pinned_per_signature(self, n_tiles):
        m = service_time_model(PAPER_CONFIGS["1B"], n_tiles=n_tiles, halo=2,
                               coarse_shape=(32, 64), gpus_per_replica=8)
        assert m.unit_s == TILE_S[n_tiles]
        # a tile pays the short-sequence penalty but covers less grid
        assert all(t < WHOLE_S["1B", 8] for t in m.unit_s.values())


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

    def test_empty_replica_counts_are_rejected(self):
        """``[]`` is not "unset": only ``None`` sizes ``1..max_replicas``."""
        with pytest.raises(ValueError, match="replica_counts"):
            serve_report(PAPER_CONFIGS["126M"], scenario="steady",
                         rate_rps=20.0, duration_s=5.0, replica_counts=[])


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
                service_time=service_time_model(PAPER_CONFIGS["1B"],
                                                gpus_per_replica=self.GPUS))
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
