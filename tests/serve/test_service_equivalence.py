"""The serving determinism contract: served outputs are bit-identical to
a direct ``predict_dataset`` pass, regardless of batching, caching, or
replica placement.

This is the tentpole guarantee of :mod:`repro.serve` — dynamic batching
and the tile cache are pure *scheduling* decisions with zero numeric
footprint.  The grid here covers every scenario × replica count × cache
mode; a separate test pins the engine batch-invariance the contract
rests on.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.serve import (
    BatchPolicy,
    DownscalingService,
    Request,
    SCENARIOS,
    TileCache,
    TrafficGenerator,
)
from repro.tensor import Tensor, no_grad
from repro.testing import warm_head
from repro.train import predict_dataset

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


@pytest.fixture(scope="module")
def workload():
    """A fixed tiny model + dataset + per-sample inputs + reference preds."""
    spec = DatasetSpec(name="serve-eq", fine_grid=Grid(16, 32), factor=4,
                       years=(2000, 2001), samples_per_year=2, seed=3,
                       output_channels=(17, 18, 19))
    ds = DownscalingDataset(spec, years=(2000, 2001))
    ds.fit_normalizer()
    model = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                             rng=np.random.default_rng(0)))
    # per-sample normalized inputs, in dataset order — exactly what
    # predict_dataset feeds the runner
    inputs = np.concatenate([b.inputs for b in ds.batches(1)])
    reference, _ = predict_dataset(model, ds)           # default batch_size=2
    return model, ds, [inputs[i] for i in range(len(inputs))], reference


def _serve(workload, *, scenario, n_replicas, cache_on, seed=0):
    model, ds, inputs, _ = workload
    gen = TrafficGenerator(scenario, rate_rps=60.0, duration_s=1.5, seed=seed,
                           n_inputs=len(inputs), popularity=1.2)
    requests = gen.generate(inputs=inputs)
    assert requests, "fixture traffic must be non-empty"
    service = DownscalingService(
        model, n_replicas=n_replicas,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
        cache=TileCache(8) if cache_on else None,
        target_normalizer=ds.target_normalizer)
    return requests, service.run(requests)


class TestBitIdenticalServing:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("n_replicas", [1, 2, 4])
    @pytest.mark.parametrize("cache_on", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_grid(self, workload, scenario, n_replicas, cache_on):
        _, _, _, reference = workload
        requests, result = _serve(workload, scenario=scenario,
                                  n_replicas=n_replicas, cache_on=cache_on)
        assert len(result.responses) == len(requests)
        for resp in result.responses:
            want = reference[resp.request.sample]
            assert resp.output is not None
            assert resp.output.dtype == want.dtype
            assert np.array_equal(resp.output, want), (
                f"served output for sample {resp.request.sample} diverged "
                f"(scenario={scenario}, replicas={n_replicas}, "
                f"cache={'on' if cache_on else 'off'}, "
                f"hit={resp.cache_hit})")

    @pytest.mark.parametrize("cache_on", [False, True],
                             ids=["cache-off", "cache-on"])
    def test_whole_and_tile_serving_return_the_same_bytes(self, cache_on):
        """One scheduler, two unit policies: the same tiled geometry
        served whole-request and tile by tile is byte-equal (and equal
        to the tiled ``predict_dataset`` both are pinned against)."""
        spec = DatasetSpec(name="serve-eq-tiled", fine_grid=Grid(32, 64),
                           factor=4, years=(2000, 2001), samples_per_year=2,
                           seed=3, output_channels=(17, 18, 19))
        ds = DownscalingDataset(spec, years=(2000, 2001))
        ds.fit_normalizer()
        model = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=256,
                                 rng=np.random.default_rng(0)))
        geometry = dict(n_tiles=4, halo=2, coarse_shape=(8, 16))
        inputs = list(np.concatenate([b.inputs for b in ds.batches(1)]))
        reference, _ = predict_dataset(model, ds, n_tiles=4, halo=2)
        requests = TrafficGenerator(
            "burst", rate_rps=60.0, duration_s=1.0, seed=0,
            n_inputs=len(inputs)).generate(inputs=inputs)

        def serve(tile_serving):
            service = DownscalingService(
                model, n_replicas=2,
                policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
                cache=TileCache(32) if cache_on else None,
                target_normalizer=ds.target_normalizer,
                tile_serving=tile_serving, **geometry)
            return service.run(requests).responses

        for whole, tiled in zip(serve(False), serve(True)):
            assert whole.request.rid == tiled.request.rid
            assert whole.output.tobytes() == tiled.output.tobytes()
            assert np.array_equal(whole.output,
                                  reference[whole.request.sample])

    def test_bump_plan_epoch_invalidates_whole_request_entries(self, workload):
        """After a weight swap + epoch bump no stale entry may answer:
        zero hits, and outputs equal a fresh ``predict_dataset``."""
        _, ds, inputs, _ = workload
        model = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                                 rng=np.random.default_rng(0)))
        requests = [Request(rid=i, arrival_s=0.01 * i, sample=i, input=x)
                    for i, x in enumerate(inputs)]
        service = DownscalingService(model, cache=TileCache(8),
                                     target_normalizer=ds.target_normalizer)
        service.run(requests)
        assert all(r.cache_hit for r in service.run(requests).responses)
        for p in model.parameters():
            p.data *= 1.5
        service.bump_plan_epoch()
        result = service.run(requests)
        fresh, _ = predict_dataset(model, ds)
        assert not any(r.cache_hit for r in result.responses)
        for r in result.responses:
            assert np.array_equal(r.output, fresh[r.request.sample])

    def test_matches_batch_size_one_reference_too(self, workload):
        """predict_dataset itself is batch-size invariant, so the serving
        contract holds against *any* reference batching."""
        model, ds, _, reference = workload
        ref_b1, _ = predict_dataset(model, ds, batch_size=1)
        np.testing.assert_array_equal(reference, ref_b1)

    def test_cache_hits_return_the_same_bytes_as_misses(self, workload):
        _, result = _serve(workload, scenario="burst", n_replicas=2,
                           cache_on=True)
        hits = [r for r in result.responses if r.cache_hit]
        misses = {r.request.sample: r for r in result.responses
                  if not r.cache_hit}
        assert hits, "burst traffic with a cache should produce hits"
        for h in hits:
            assert np.array_equal(h.output, misses[h.request.sample].output)

    def test_coalesced_batches_actually_form(self, workload):
        """The grid above is only meaningful if batching really happens."""
        _, result = _serve(workload, scenario="burst", n_replicas=1,
                           cache_on=False)
        sizes = [r.batch_size for r in result.responses]
        assert max(sizes) > 1


class TestEngineBatchInvariance:
    def test_forward_is_bitwise_batch_invariant(self, workload):
        """The engine property the whole contract rests on: stacking
        samples into one forward produces the same bytes as one-at-a-time."""
        model, _, inputs, _ = workload
        x = np.stack(inputs)
        with no_grad():
            together = model(Tensor(x)).data
            alone = np.concatenate([model(Tensor(xi[None])).data
                                    for xi in inputs])
        assert together.dtype == alone.dtype
        assert np.array_equal(together, alone)


class TestSchedulerDeterminism:
    def test_identical_rerun(self, workload):
        """Same requests + same config → identical responses, spans, and
        summary, event for event (frozen clock, no wall time)."""
        a_req, a = _serve(workload, scenario="diurnal", n_replicas=2,
                          cache_on=True)
        b_req, b = _serve(workload, scenario="diurnal", n_replicas=2,
                          cache_on=True)
        assert [(r.rid, r.arrival_s) for r in a_req] == \
               [(r.rid, r.arrival_s) for r in b_req]
        for ra, rb in zip(a.responses, b.responses):
            assert (ra.request.rid, ra.dispatch_s, ra.complete_s, ra.replica,
                    ra.batch_size, ra.cache_hit) == \
                   (rb.request.rid, rb.dispatch_s, rb.complete_s, rb.replica,
                    rb.batch_size, rb.cache_hit)
        assert a.summary() == b.summary()
        assert [(s.name, s.rank, s.start_s, s.dur_s) for s in a.spans] == \
               [(s.name, s.rank, s.start_s, s.dur_s) for s in b.spans]

    def test_latency_only_mode_produces_no_outputs(self, workload):
        gen = TrafficGenerator("steady", 50.0, 1.0, seed=1, n_inputs=4)
        service = DownscalingService(n_replicas=2)
        result = service.run(gen.generate())
        assert all(r.output is None for r in result.responses)
        assert result.summary()["requests"] == len(result.responses)

    def test_duplicate_request_ids_rejected(self, workload):
        gen = TrafficGenerator("steady", 50.0, 0.5, seed=1, n_inputs=4)
        requests = gen.generate()
        with pytest.raises(ValueError, match="duplicate"):
            DownscalingService().run(requests + [requests[0]])


class TestServiceValidation:
    def test_bad_replica_split(self):
        from repro.distributed import VirtualCluster
        with pytest.raises(ValueError, match="not divisible"):
            DownscalingService(n_replicas=3, cluster=VirtualCluster(4))

    def test_replica_rank_slices_are_contiguous_and_disjoint(self):
        service = DownscalingService(n_replicas=3, gpus_per_replica=2)
        ranks = [service.replica_ranks(r) for r in range(3)]
        assert ranks == [[0, 1], [2, 3], [4, 5]]
        assert [service.home_rank(r) for r in range(3)] == [0, 2, 4]

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DownscalingService(n_replicas=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-0.1)
