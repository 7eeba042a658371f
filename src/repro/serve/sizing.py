"""Replica-count sizing against a latency SLO."""

from __future__ import annotations

from ..core.config import ModelConfig
from ..core.tiles import TilePlan
from ..distributed.comm import VirtualCluster
from ..distributed.topology import FRONTIER, FrontierTopology
from .pricing import cache_aware_service_time, service_time_model
from .service import BatchPolicy, DownscalingService
from .traffic import TrafficGenerator

__all__ = ["serve_report"]


def serve_report(config: ModelConfig, *, scenario: str = "burst",
                 rate_rps: float = 50.0, duration_s: float = 60.0,
                 slo_p99_s: float = 0.5, max_replicas: int = 8,
                 gpus_per_replica: int = 8, max_batch: int = 8,
                 max_wait_s: float = 0.05, tokens_per_sample: int = 4096,
                 seed: int = 0, replica_counts: list[int] | None = None,
                 n_tiles: int = 1, halo: int = 0,
                 coarse_shape: tuple[int, int] | None = None,
                 hit_rates: tuple[float, ...] = (0.0, 0.5, 0.9),
                 topology: FrontierTopology = FRONTIER) -> dict:
    """Price replica counts against a p99 latency SLO.

    For each candidate replica count the traffic scenario is played
    through the *actual* serving scheduler (latency-only — no model
    executes), so the report and a real service run on the same
    configuration agree number-for-number.  Returns one row per count
    (p50/p99 latency, throughput, mean utilization, SLO verdict) plus
    ``recommended_replicas``: the smallest count whose simulated p99
    meets the SLO, or ``None`` if none does — the "how many GPUs does
    this traffic cost" answer the capacity plan needs.

    With ``n_tiles > 1`` (and ``coarse_shape`` for the tile geometry)
    the report adds ``hit_rate_sensitivity``: the same sizing pass
    repeated under the cache-hit-aware tile service-time model at each
    assumed per-tile hit rate — one row per rate, each with its own
    recommended fleet.  A rolling-forecast deployment reads its steady
    state off the high-hit-rate row and its cold-start / cache-collapse
    exposure off the 0%-row; the spread between them is the capacity the
    tile cache is worth.
    """
    if slo_p99_s <= 0:
        raise ValueError("slo_p99_s must be positive")
    counts = (list(range(1, max_replicas + 1)) if replica_counts is None
              else list(replica_counts))
    if not counts or min(counts) < 1:
        raise ValueError("replica_counts must be positive")
    price = dict(tokens_per_sample=tokens_per_sample,
                 gpus_per_replica=gpus_per_replica, topology=topology)
    st = service_time_model(config, **price)
    gen = TrafficGenerator(scenario, rate_rps, duration_s, seed=seed)

    def size_fleet(service_time) -> tuple[list[dict], int | None]:
        rows: list[dict] = []
        recommended = None
        for n in sorted(counts):
            service = DownscalingService(
                n_replicas=n,
                policy=BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
                cluster=VirtualCluster(n * gpus_per_replica, topology),
                service_time=service_time)
            summary = service.run(gen.generate()).summary()
            meets = summary["latency_p99_s"] <= slo_p99_s
            rows.append({
                "replicas": n,
                "gpus": n * gpus_per_replica,
                "p50_s": summary["latency_p50_s"],
                "p99_s": summary["latency_p99_s"],
                "throughput_rps": summary["throughput_rps"],
                "utilization_mean": summary["utilization_mean"],
                "meets_slo": meets,
            })
            if meets and recommended is None:
                recommended = n
        return rows, recommended

    rows, recommended = size_fleet(st)
    report = {
        "scenario": scenario,
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "slo_p99_s": slo_p99_s,
        "gpus_per_replica": gpus_per_replica,
        "per_sample_s": st.unit_s[()],
        "dispatch_s": st.dispatch_s,
        "rows": rows,
        "recommended_replicas": recommended,
    }
    if n_tiles > 1:
        if coarse_shape is None:
            raise ValueError("tiled serve_report needs coarse_shape=(h, w)")
        tm = service_time_model(config, n_tiles=n_tiles, halo=halo,
                                coarse_shape=coarse_shape, **price)
        plan = TilePlan.build(coarse_shape, n_tiles, halo, 1)
        sigs = [plan.signature(i) for i in range(n_tiles)]
        sensitivity = []
        for hr in hit_rates:
            hr_rows, hr_rec = size_fleet(
                cache_aware_service_time(tm, sigs, hr))
            at_rec = next((r for r in hr_rows if r["replicas"] == hr_rec),
                          None)
            sensitivity.append({
                "hit_rate": hr,
                "recommended_replicas": hr_rec,
                "p99_at_recommended_s":
                    at_rec["p99_s"] if at_rec else None,
                "rows": hr_rows,
            })
        report["tiles"] = {
            "n_tiles": n_tiles, "halo": halo,
            "coarse_shape": list(coarse_shape),
            "per_tile_s":
                cache_aware_service_time(tm, sigs, 0.0).unit_s[()] / n_tiles,
            "dispatch_s": tm.dispatch_s}
        report["hit_rate_sensitivity"] = sensitivity
    return report
