"""Tile-granular serving: per-tile keys, cross-request batching, bitwise
reassembly.

The tentpole contract mirrors ``test_service_equivalence`` one level
down: splitting requests into halo tiles, caching per tile, and
coalescing misses across requests are pure *scheduling* decisions — the
served bytes must match a tiled ``predict_dataset`` pass with the same
geometry no matter which tiles hit, which coalesced, and how many
replicas ran.  On top of that sit the key-derivation invariants (halo
content, crop geometry, and plan epoch all participate), the
rolling-forecast scenario and its throughput win over whole-request
caching, the monitor rule pack, and the cache-hit-aware fleet sizing in
``serve_report``.
"""

import numpy as np
import pytest

from repro.core import PAPER_CONFIGS, ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.serve import (
    DEFAULT_SERVICE_TIME,
    ROLLING,
    BatchPolicy,
    DownscalingService,
    ServiceTimeModel,
    TileCache,
    TilePlan,
    TrafficGenerator,
    cache_aware_service_time,
    serve_report,
    service_time_model,
)
from repro.tensor import Tensor, no_grad
from repro.testing import warm_head
from repro.train import build_inference_runner, predict_dataset

from tests.golden import assert_golden

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)

# coarse (8, 16) under 4 tiles (2x2 of 4x8) with halo 2 keeps every
# halo-extended shape even — compatible with Reslim's patch size of 2
N_TILES, HALO, COARSE = 4, 2, (8, 16)


@pytest.fixture(scope="module")
def workload():
    """Tiny model + dataset + inputs + the *tiled* reference predictions.

    The reference is ``predict_dataset`` with the same tile geometry the
    service uses: tiling confines attention per tile, so the serving
    contract is bitwise equality against the tiled forward, exactly as
    ``global_inference(n_tiles=..., halo=...)`` computes it.
    """
    spec = DatasetSpec(name="tileserve", fine_grid=Grid(32, 64), factor=4,
                       years=(2000, 2001), samples_per_year=2, seed=3,
                       output_channels=(17, 18, 19))
    ds = DownscalingDataset(spec, years=(2000, 2001))
    ds.fit_normalizer()
    model = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=256,
                             rng=np.random.default_rng(0)))
    inputs = np.concatenate([b.inputs for b in ds.batches(1)])
    # one sample, hence one tile, per forward: the service stacks tiles
    # in pairs, so every comparison against this crosses widths
    reference, _ = predict_dataset(model, ds, batch_size=1, n_tiles=N_TILES,
                                   halo=HALO)
    return model, ds, [inputs[i] for i in range(len(inputs))], reference


def _tiled_service(workload, *, n_replicas=1, cache_on=True, **kw):
    model, ds, _, _ = workload
    return DownscalingService(
        model, n_replicas=n_replicas,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
        cache=TileCache(64) if cache_on else None,
        target_normalizer=ds.target_normalizer,
        n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE,
        tile_serving=True, **kw)


def _reference(workload, x):
    """The public bitwise reference for one input: the tiled runner
    ``predict_dataset`` builds, then the dataset's denormalize."""
    model, ds, _, _ = workload
    runner = build_inference_runner(model, n_tiles=N_TILES, halo=HALO,
                                    coarse_shape=COARSE)
    with no_grad():
        pred = runner(Tensor(x[None])).data[0]
    return ds.target_normalizer.denormalize(pred)


def _burst(workload, seed=0, rate=60.0, duration=1.0):
    _, _, inputs, _ = workload
    gen = TrafficGenerator("burst", rate_rps=rate, duration_s=duration,
                           seed=seed, n_inputs=len(inputs))
    reqs = gen.generate(inputs=inputs)
    assert reqs, "fixture traffic must be non-empty"
    return reqs


# --------------------------------------------------------------------- #
# key derivation
# --------------------------------------------------------------------- #
class TestTileKeys:
    def _plan(self):
        return TilePlan.build(COARSE, N_TILES, HALO, factor=4)

    def test_halo_content_participates(self):
        """Perturbing a pixel inside a tile's *halo* (outside its core)
        must change that tile's key — the tile's output depends on it."""
        plan = self._plan()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, *COARSE)).astype(np.float32)
        k0 = plan.tile_key(0, input=x)
        y = x.copy()
        s = plan.specs[0]
        # a pixel in tile 1's core that tile 0's halo covers
        assert s.hx1 > s.x1
        y[0, s.y0, s.x1] += 1.0
        assert plan.tile_key(0, input=y) != k0

    def test_distant_content_does_not_participate(self):
        """Content outside the halo-extended region leaves the key
        unchanged — the rolling-forecast hit case."""
        plan = self._plan()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, *COARSE)).astype(np.float32)
        k0 = plan.tile_key(0, input=x)
        y = x.copy()
        y[0, COARSE[0] - 1, COARSE[1] - 1] += 1.0   # far corner, tile 3
        assert plan.tile_key(0, input=y) == k0
        assert plan.tile_key(3, input=y) != plan.tile_key(3, input=x)

    def test_epoch_and_geometry_participate(self):
        plan = self._plan()
        x = np.zeros((3, *COARSE), dtype=np.float32)
        k = plan.tile_key(0, input=x, epoch=0)
        assert plan.tile_key(0, input=x, epoch=1) != k
        # two tiles with byte-equal halo regions (the all-zero field)
        # must not collide when their crop geometry differs
        keys = {plan.tile_key(i, input=x) for i in range(N_TILES)}
        assert len(keys) == len({s.crop(plan.factor) for s in plan.specs})

    def test_version_keys(self):
        plan = self._plan()
        v = (0, 1, 2, 3)
        k = plan.tile_key(1, versions=v)
        assert plan.tile_key(1, versions=(0, 9, 2, 3)) != k
        assert plan.tile_key(1, versions=v, epoch=1) != k
        with pytest.raises(ValueError):
            plan.tile_key(0, versions=(1, 2))

    def test_crop_core_is_frozen(self):
        plan = self._plan()
        s = plan.specs[0]
        out = np.ones((1, 3, s.halo_shape[0] * 4, s.halo_shape[1] * 4),
                      dtype=np.float32)
        core = plan.crop_core(out, 0)
        assert not core.flags.writeable
        assert core.shape[-2:] == (s.core_shape[0] * 4, s.core_shape[1] * 4)


# --------------------------------------------------------------------- #
# the bitwise serving contract
# --------------------------------------------------------------------- #
class TestTiledBitwiseServing:
    @pytest.mark.parametrize("n_replicas", [1, 2, 4])
    @pytest.mark.parametrize("cache_on", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_grid(self, workload, n_replicas, cache_on):
        _, _, _, reference = workload
        reqs = _burst(workload)
        svc = _tiled_service(workload, n_replicas=n_replicas,
                             cache_on=cache_on)
        result = svc.run(reqs)
        assert len(result.responses) == len(reqs)
        for resp in result.responses:
            want = reference[resp.request.sample]
            assert resp.output is not None
            assert resp.output.dtype == want.dtype
            assert np.array_equal(resp.output, want), (
                f"tiled serving diverged for sample {resp.request.sample} "
                f"(replicas={n_replicas}, cache={cache_on}, "
                f"hits={resp.tiles_hit}/{resp.tiles})")
        s = result.summary()
        if cache_on:
            assert s["tile_hit_rate"] > 0.5
        else:
            # identical tiles across requests still share one forward
            assert s["tile_coalesced"] > 0

    def test_cache_hits_match_cold_run(self, workload):
        """Determinism satellite: a warm cache answers every tile from
        storage, and the reassembled bytes equal the cold run's."""
        reqs = _burst(workload, seed=7, duration=0.5)
        svc = _tiled_service(workload)
        cold = {r.request.rid: r.output for r in svc.run(reqs).responses}
        warm = svc.run(reqs)        # same service → warm tile cache
        for resp in warm.responses:
            assert resp.tiles_hit == resp.tiles == N_TILES
            assert resp.cache_hit and resp.replica is None
            assert resp.output.tobytes() == cold[resp.request.rid].tobytes()

    def test_one_state_is_finished_once_and_served_frozen(self, workload):
        """Requests on one state carry the same four cached cores, so
        they are answered with the *same* finished field — assembled
        and denormalized once — and nobody can write through it."""
        from repro.serve import Request

        _, _, inputs, reference = workload
        reqs = [Request(rid=i, arrival_s=0.5 * i, sample=0, input=inputs[0])
                for i in range(3)]
        svc = _tiled_service(workload)
        computed, hit, again = svc.run(reqs).responses
        assert computed.tiles_computed == hit.tiles_hit == N_TILES
        assert computed.output is hit.output is again.output
        assert not hit.output.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            hit.output[0, 0, 0] = np.nan
        rerun = svc.run(reqs[:1]).responses[0]      # and across run()s
        assert rerun.output is hit.output
        assert np.array_equal(rerun.output, reference[0])

    def test_partial_overlap_recomputes_only_changed_tiles(self, workload):
        """The headline win: a request differing in one tile's region
        pays for the tiles that saw the change, not the whole grid."""
        from repro.serve import Request

        _, ds, inputs, _ = workload
        base = inputs[0]
        changed = base.copy()
        changed[:, -1, -1] += 1.0   # far corner: inside only tile 3 + halos
        reqs = [Request(rid=0, arrival_s=0.0, sample=0, input=base),
                Request(rid=1, arrival_s=0.5, sample=1, input=changed)]
        svc = _tiled_service(workload)
        result = svc.run(reqs)
        by_rid = {r.request.rid: r for r in result.responses}
        assert by_rid[0].tiles_computed == N_TILES
        # the corner perturbation is outside every other tile's halo
        assert by_rid[1].tiles_hit == N_TILES - 1
        assert by_rid[1].tiles_computed == 1
        # and the outputs are still exact
        ref = _reference(workload, changed)
        assert np.array_equal(by_rid[1].output, ref)

    def test_plan_epoch_bump_invalidates(self, workload):
        reqs = _burst(workload, seed=3, duration=0.5)
        svc = _tiled_service(workload)
        svc.run(reqs)
        first = min(reqs, key=lambda r: r.arrival_s)
        # warm cache: replaying the first arrival alone is all hits
        warm = {r.request.rid: r for r in svc.run([first]).responses}
        assert warm[first.rid].tiles_hit == N_TILES
        svc.bump_plan_epoch()
        # every resident key carries the old epoch — cold again
        cold = {r.request.rid: r for r in svc.run([first]).responses}
        assert cold[first.rid].tiles_hit == 0
        assert cold[first.rid].tiles_computed == N_TILES

    def test_shed_keeps_tile_counters_clean(self, workload):
        reqs = _burst(workload, seed=5, rate=200.0, duration=0.5)
        svc = _tiled_service(workload, max_queue_depth=1)
        result = svc.run(reqs)
        shed = [r for r in result.responses if r.status == "shed"]
        assert shed, "overload fixture must shed"
        for r in shed:
            assert r.output is None and r.tiles == N_TILES
        s = result.summary()
        # shed requests never probe the cache: lookups come only from
        # admitted requests
        assert s["tile_hits"] + s["tile_misses"] == sum(
            r.tiles for r in result.responses if r.status == "ok")

    def test_tile_spans_and_metrics(self, workload):
        reqs = _burst(workload, seed=2, duration=0.5)
        svc = _tiled_service(workload, cache_on=False)
        result = svc.run(reqs)
        batch_spans = [sp for sp in result.spans if sp.name == "serve/batch"]
        tile_spans = [sp for sp in result.spans if sp.name == "serve/tile"]
        assert batch_spans and tile_spans
        assert all(sp.depth == 2 for sp in tile_spans)
        assert sum(sp.args["batch_size"] for sp in batch_spans) \
            == len(tile_spans)
        occ = result.metrics.histograms["serve/tile/batch_occupancy"]
        assert occ.count == len(batch_spans)
        assert 0.0 < occ.mean <= 1.0

    def test_construction_validation(self, workload):
        model, ds, _, _ = workload
        with pytest.raises(ValueError, match="n_tiles >= 2"):
            DownscalingService(model, n_tiles=1, tile_serving=True,
                               coarse_shape=COARSE)
        with pytest.raises(ValueError, match="coarse_shape"):
            DownscalingService(model, n_tiles=4, halo=2, tile_serving=True)

    def test_rejects_a_model_missing_a_tile_signature(self):
        """A whole-request model cannot price tiles; it must be refused,
        not silently swapped for the default."""
        with pytest.raises(ValueError, match="prices no signature"):
            DownscalingService(n_tiles=4, halo=2, coarse_shape=COARSE,
                               tile_serving=True,
                               service_time=ServiceTimeModel(0.0, {(): 1.0}))


# --------------------------------------------------------------------- #
# rolling-forecast traffic
# --------------------------------------------------------------------- #
class TestRollingForecast:
    def test_seeded_and_deduplicated(self):
        a = TrafficGenerator(ROLLING, rate_rps=30.0, duration_s=2.0, seed=1,
                             n_tiles=4, tile_update_rate=3.0)
        b = TrafficGenerator(ROLLING, rate_rps=30.0, duration_s=2.0, seed=1,
                             n_tiles=4, tile_update_rate=3.0)
        ra, rb = a.generate(), b.generate()
        assert [r.arrival_s for r in ra] == [r.arrival_s for r in rb]
        assert a.state_versions == b.state_versions
        # states are deduplicated: one per distinct version vector, and
        # every request points at one
        assert len(a.state_versions) == len(set(a.state_versions))
        assert {r.sample for r in ra} == set(range(len(a.state_versions)))
        for r in ra:
            assert r.tile_versions == a.state_versions[r.sample]

    def test_versions_advance_monotonically(self):
        gen = TrafficGenerator(ROLLING, rate_rps=40.0, duration_s=2.0,
                               seed=4, n_tiles=8, tile_update_rate=5.0)
        reqs = gen.generate()
        prev = None
        for r in sorted(reqs, key=lambda r: r.arrival_s):
            if prev is not None:
                assert all(v >= p for v, p in zip(r.tile_versions, prev))
            prev = r.tile_versions
        assert prev != reqs[0].tile_versions or gen.tile_update_rate == 0.0

    def test_executed_rolling_is_bitwise(self, workload):
        """Rolling traffic through the executed tiled service matches a
        per-state tiled forward, while most tiles hit the cache."""
        model, ds, inputs, _ = workload
        gen = TrafficGenerator(ROLLING, rate_rps=30.0, duration_s=1.5,
                               seed=1, n_tiles=N_TILES, tile_update_rate=3.0)
        reqs = gen.generate(inputs=[inputs[0]])
        svc = _tiled_service(workload, n_replicas=2)
        refs = [_reference(workload, st) for st in gen.states]
        result = svc.run(reqs)
        for resp in result.responses:
            assert np.array_equal(resp.output, refs[resp.request.sample])
        s = result.summary()
        assert s["tile_hit_rate"] > 0.3     # slow evolution → mostly hits

    def test_latency_only_rolling_uses_version_keys(self):
        gen = TrafficGenerator(ROLLING, rate_rps=30.0, duration_s=2.0,
                               seed=1, n_tiles=4, tile_update_rate=3.0)
        reqs = gen.generate()
        svc = DownscalingService(
            n_replicas=2, policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
            cache=TileCache(64), n_tiles=4, halo=2, coarse_shape=COARSE,
            tile_serving=True)
        result = svc.run(reqs)
        s = result.summary()
        assert s["tile_hits"] > 0
        assert all(r.output is None and r.status == "ok"
                   for r in result.responses)


# --------------------------------------------------------------------- #
# cache-hit-aware fleet sizing
# --------------------------------------------------------------------- #
class TestHitRateAwarePerfModel:
    def test_tile_service_time_partitions_request_time(self):
        tm = service_time_model(coarse_shape=(8, 16), n_tiles=8, halo=1)
        plan = TilePlan.build((8, 16), 8, 1, 1)
        # per-tile work sums back to slightly more than the whole-request
        # work — the halo-overlap overhead, and nothing else
        whole = DEFAULT_SERVICE_TIME.unit_s[()]
        total = sum(tm.unit_s[plan.signature(i)] for i in range(8))
        assert whole < total < 2 * whole
        # interior-column tiles carry halos on both sides — they cost
        # more than the clamped corner tiles
        assert {(5, 5), (5, 6)} == set(tm.unit_s) == plan.signatures()
        assert tm.unit_s[(5, 5)] < tm.unit_s[(5, 6)]
        # batching pays dispatch once
        assert tm(4, (5, 5)) == tm.dispatch_s + 4 * tm.unit_s[(5, 5)]

    def test_cache_aware_interpolates(self):
        tm = service_time_model(coarse_shape=(8, 16), n_tiles=4, halo=2)
        sigs = [(6, 10)] * 4
        cold = cache_aware_service_time(tm, sigs, 0.0).unit_s[()]
        warm = cache_aware_service_time(tm, sigs, 0.9).unit_s[()]
        hot = cache_aware_service_time(tm, sigs, 1.0).unit_s[()]
        assert cold > warm > hot == 0.0
        with pytest.raises(ValueError):
            cache_aware_service_time(tm, sigs, 1.5)

    @pytest.mark.parametrize("n_tiles,grid", [
        (4, (32, 64)), (6, (12, 18)), (9, (12, 12))])
    def test_cold_request_is_the_sum_over_its_tiles(self, n_tiles, grid):
        """At 6 and 9 tiles the signatures occur unequally often (6: four
        corners and two middles), so ``n_tiles`` × the mean over distinct
        signatures over-prices the cold request (by 2.1 and 5.4 % at 1B);
        the sum over the plan's tiles is the price."""
        tm = service_time_model(PAPER_CONFIGS["1B"], n_tiles=n_tiles, halo=2,
                                coarse_shape=grid)
        plan = TilePlan.build(grid, n_tiles, 2, 1)
        sigs = [plan.signature(i) for i in range(n_tiles)]
        cold = cache_aware_service_time(tm, sigs, 0.0)
        assert cold.unit_s[()] == pytest.approx(
            sum(tm.unit_s[sig] for sig in sigs), rel=1e-12)
        assert cold.dispatch_s == tm.dispatch_s

    def test_serve_report_hit_rate_sensitivity(self):
        report = serve_report(TINY, rate_rps=40.0, slo_p99_s=0.5,
                              duration_s=4.0, gpus_per_replica=1,
                              n_tiles=4, halo=2, coarse_shape=(8, 16),
                              hit_rates=(0.0, 0.5, 0.9))
        assert report["tiles"]["n_tiles"] == 4
        rows = report["hit_rate_sensitivity"]
        assert [r["hit_rate"] for r in rows] == [0.0, 0.5, 0.9]
        recs = [r["recommended_replicas"] for r in rows]
        assert all(r is not None for r in recs)
        # a warmer cache never needs a bigger fleet
        assert recs == sorted(recs, reverse=True)


# --------------------------------------------------------------------- #
# the headline: tile cache vs whole-request cache on rolling traffic
# --------------------------------------------------------------------- #
class TestRollingVsWholeRequest:
    """A 1B model on two 8-GPU replicas, latency-only: rolling-forecast
    traffic changes about one tile per request, so whole-request caching
    misses every new state while tile serving recomputes only changed
    tiles.  At equal replicas the tile path must sustain >= 1.5x the
    throughput at a lower p99; the table is pinned by the
    ``tileserve_rolling`` golden."""

    RATE_RPS, DURATION_S, N_REPLICAS, GPUS = 250.0, 20.0, 2, 8
    GRID = (32, 64)
    POLICY = BatchPolicy(max_batch=8, max_wait_s=0.02)

    def _run(self, **tiling):
        gen = TrafficGenerator(ROLLING, self.RATE_RPS, self.DURATION_S,
                               seed=0, n_tiles=N_TILES,
                               tile_update_rate=self.RATE_RPS)
        svc = DownscalingService(
            n_replicas=self.N_REPLICAS, gpus_per_replica=self.GPUS,
            policy=self.POLICY, cache=TileCache(64),
            service_time=service_time_model(PAPER_CONFIGS["1B"],
                                            gpus_per_replica=self.GPUS,
                                            **tiling),
            tile_serving=bool(tiling), **tiling)
        return svc.run(gen.generate()).summary()

    @pytest.fixture(scope="class")
    def rolling(self):
        whole = self._run()
        tile = self._run(n_tiles=N_TILES, halo=HALO, coarse_shape=self.GRID)
        sizing = serve_report(
            PAPER_CONFIGS["1B"], scenario="burst", rate_rps=40.0,
            duration_s=10.0, slo_p99_s=0.5, max_replicas=8,
            gpus_per_replica=self.GPUS, max_batch=self.POLICY.max_batch,
            max_wait_s=self.POLICY.max_wait_s, seed=0, n_tiles=N_TILES,
            halo=HALO, coarse_shape=self.GRID, hit_rates=(0.0, 0.5, 0.9))
        # a probe that did not cost a fresh forward: a cache hit, or a
        # coalesced wait on an identical tile already in flight
        lookups = tile["tile_hits"] + tile["tile_misses"]
        recomputed = tile["tile_misses"] - tile["tile_coalesced"]
        return {
            "whole": whole, "tile": tile,
            "throughput_ratio": tile["throughput_rps"] / whole["throughput_rps"],
            "p99_ratio": tile["latency_p99_s"] / whole["latency_p99_s"],
            "recompute_share": recomputed / lookups,
            "sizing": [r["recommended_replicas"]
                       for r in sizing["hit_rate_sensitivity"]],
        }

    def test_tile_cache_beats_whole_request_cache(self, rolling):
        assert rolling["throughput_ratio"] >= 1.5
        assert rolling["p99_ratio"] < 1.0
        assert rolling["recompute_share"] < 0.5

    def test_hit_rate_sizing_is_monotone(self, rolling):
        recs = rolling["sizing"]
        assert all(r is not None for r in recs)
        assert recs == sorted(recs, reverse=True)

    def test_table_golden(self, rolling):
        lines = [
            f"Tile-granular serving: 1B model, rolling forecast at "
            f"{self.RATE_RPS:g} rps for {self.DURATION_S:g}s, "
            f"{self.N_REPLICAS} replicas x {self.GPUS} GPUs each",
            f"grid {self.GRID[0]}x{self.GRID[1]} in {N_TILES} tiles, "
            f"halo {HALO}, ~1.0 tile updates per request",
            "-" * 72,
            f"{'path':>14s} {'reqs':>6s} {'p50 ms':>9s} {'p99 ms':>10s} "
            f"{'rps':>7s} {'hit%':>6s} {'depth':>6s}",
        ]
        for name, s in (("whole-request", rolling["whole"]),
                        ("tile-granular", rolling["tile"])):
            hit = s.get("tile_hit_rate", s["cache_hit_rate"])
            lines.append(
                f"{name:>14s} {s['requests']:>6d} "
                f"{s['latency_p50_s'] * 1e3:>9.2f} "
                f"{s['latency_p99_s'] * 1e3:>10.2f} "
                f"{s['throughput_rps']:>7.1f} {hit * 100:>6.1f} "
                f"{s['queue_depth_max']:>6.0f}")
        sizing = rolling["sizing"]
        lines += [
            f"throughput ratio {rolling['throughput_ratio']:.2f}x "
            f"(gate >= 1.5x), p99 ratio {rolling['p99_ratio']:.3f}x "
            f"(gate < 1), {rolling['recompute_share'] * 100:.1f}% of tiles "
            f"recomputed",
            f"sizing: cold {sizing[0]} -> warm {sizing[-1]} replicas across "
            f"hit rates [0.0, 0.5, 0.9]",
        ]
        assert_golden("tileserve_rolling", "\n".join(lines) + "\n", rtol=0.25)


# --------------------------------------------------------------------- #
# geometry validation satellite
# --------------------------------------------------------------------- #
class TestRunnerGeometryValidation:
    def test_rejects_halo_swallowing_neighbours(self, workload):
        model, _, _, _ = workload
        with pytest.raises(ValueError,
                           match="does not fit the tile extent"):
            build_inference_runner(model, n_tiles=4, halo=4,
                                   coarse_shape=(8, 16))

    def test_service_surfaces_the_same_error(self, workload):
        model, _, _, _ = workload
        with pytest.raises(ValueError,
                           match="does not fit the tile extent"):
            DownscalingService(model, n_tiles=4, halo=4,
                               coarse_shape=(8, 16), tile_serving=True)
