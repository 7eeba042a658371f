"""Soundness boundary of the finished-field memo (``_TileUnits.finish``).

A tile-served field is assembled and denormalized once per distinct set
of core *objects* and handed, frozen, to every request that carries
them.  The sharing itself and the frozen result are pinned beside the
contracts they extend (``test_tileserve.py``,
``test_batched_execution.py``); here is what the memo must never do:

* change a served byte or a scheduler observable — under eviction
  mid-sequence, ``bump_plan_epoch()`` and a cache emptied mid-run and a
  second ``run()``, every output equals the width-1 reference and every
  ``summary()`` equals that of the parent's ``finish`` (no memo) on the
  same traffic;
* outgrow the tile cache — never more fields than the cache holds
  complete tile sets, none without a cache;
* keep an evicted state alive.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelConfig, Reslim
from repro.data import ChannelNormalizer
from repro.serve import BatchPolicy, DownscalingService, Request, TileCache
from repro.tensor import Tensor, no_grad
from repro.testing import warm_head
from repro.train import build_inference_runner

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
N_TILES, HALO, COARSE = 4, 2, (8, 16)
TILING = dict(n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE)
NORMALIZER = ChannelNormalizer(np.array([1.0, -2.0]), np.array([2.0, 0.5]))
#: the corner pixel of each tile's core: outside every other tile's halo
CORNERS = ((0, 0), (0, -1), (-1, 0), (-1, -1))


@pytest.fixture(scope="module")
def model():
    m = warm_head(Reslim(TINY, 5, 2, factor=2, max_tokens=128,
                         rng=np.random.default_rng(0)))
    m.eval()
    return m


@pytest.fixture(scope="module")
def states(model):
    """A field whose tiles update one at a time — state ``k + 1`` is
    state ``k`` with one corner re-drawn, so consecutive states share
    three of their four cores — and each state's width-1 reference."""
    rng = np.random.default_rng(11)
    pool = [rng.standard_normal((5, *COARSE)).astype(np.float32)]
    for k in range(5):
        x = pool[-1].copy()
        x[(slice(None), *CORNERS[k % N_TILES])] += 1.0 + rng.random()
        pool.append(x)
    runner = build_inference_runner(model, **TILING)
    with no_grad():
        refs = [NORMALIZER.denormalize(runner(Tensor(x[None])).data[0])
                for x in pool]
    return pool, refs


def _service(model, capacity, *, compile=False, max_batch=4):
    return DownscalingService(
        model, n_replicas=2,
        policy=BatchPolicy(max_batch=max_batch, max_wait_s=0.02),
        cache=TileCache(capacity) if capacity else None,
        target_normalizer=NORMALIZER, compile=compile, tile_serving=True,
        **TILING)


def _without_memo(service):
    """The parent's ``finish``: assemble and denormalize per request."""
    units = service._units
    units.finish = lambda cores: service._denormalize(
        units.plan.assemble(cores))
    return service


class _Poke:
    """A monitor stand-in that acts on the service *during* ``run()``:
    the loop records the queue depth at every arrival."""

    def __init__(self, action, at):
        self.action, self.at, self.arrivals = action, at, 0

    def record(self, name, value, t=None):
        if name == "serve/queue_depth":
            if self.arrivals == self.at:
                self.action()
            self.arrivals += 1


@st.composite
def _traffic(draw):
    n = draw(st.integers(2, 12))
    picks = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.003, 0.03, 0.2]),
                         min_size=n, max_size=n))
    return (picks, np.cumsum(gaps).tolist(),
            draw(st.integers(1, n - 1)),              # where run 2 starts
            draw(st.sampled_from(["none", "bump", "clear"])),
            draw(st.integers(0, n - 1)))              # the arrival it lands on


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(traffic=_traffic(), capacity=st.integers(1, 3 * N_TILES),
       max_batch=st.integers(1, 5))
def test_memoised_fields_are_the_parents_bytes_and_observables(
        model, states, compile, traffic, capacity, max_batch):
    pool, refs = states
    picks, arrivals, cut, action, at = traffic
    requests = [Request(rid=i, arrival_s=t, sample=p, input=pool[p])
                for i, (p, t) in enumerate(zip(picks, arrivals))]

    def serve(service):
        poke = {"none": lambda: None, "bump": service.bump_plan_epoch,
                "clear": service.cache._entries.clear}[action]
        # the action lands inside whichever run() holds arrival ``at``
        runs = [service.run(requests[:cut], monitor=_Poke(poke, at)),
                service.run(requests[cut:], monitor=_Poke(poke, at - cut))]
        return runs, len(service._units._fields)

    memoised, plain = (_service(model, capacity, compile=compile,
                                max_batch=max_batch) for _ in range(2))
    (served, held), (parent, _) = serve(memoised), serve(_without_memo(plain))
    assert held <= capacity // N_TILES
    for got, want in zip(served, parent):
        assert got.summary() == want.summary()
        assert got.metrics.counters == want.metrics.counters
        for r, p in zip(got.responses, want.responses):
            assert r.status == p.status == "ok"
            assert not r.output.flags.writeable
            assert r.output.tobytes() == p.output.tobytes()
            assert r.output.tobytes() == refs[r.request.sample].tobytes()


#: ``ServeResult.summary()`` of the run below, recorded at 5138c0f (the
#: parent of the memo: every response assembled and denormalized)
ROLLING_SUMMARY = {
    "requests": 60, "duration_s": 0.5901,
    "throughput_rps": 101.67768174885613,
    "latency_p50_s": 0.00010000000000000286,
    "latency_p99_s": 0.03137500000000004,
    "latency_mean_s": 0.007151666666666669, "latency_max_s": 0.0395,
    "queue_wait_p99_s": 0.020000000000000018, "queue_depth_max": 4.0,
    "queue_depth_p99": 1.0, "batches": 6.0, "batch_size_mean": 1.5,
    "cache_hits": 0.0, "cache_misses": 0.0, "cache_evictions": 4.0,
    "cache_hit_rate": 0.85, "n_replicas": 2, "gpus_per_replica": 1,
    "utilization_mean": 0.08165988815455007,
    "utilization": {"0": 0.16331977630910013, "1": 0.0}, "shed": 0.0,
    "scale_ups": 0.0, "scale_downs": 0.0, "replica_seconds": 1.1802,
    "tile_hits": 204.0, "tile_misses": 36.0, "tile_coalesced": 27.0,
    "tile_hit_rate": 0.85, "tile_batch_occupancy_mean": 0.375,
}


def _rolling(pool):
    """Ten requests per state, the states in order."""
    return [Request(rid=i, arrival_s=0.01 * i, sample=i // 10,
                    input=pool[i // 10]) for i in range(10 * len(pool))]


@pytest.mark.parametrize("capacity, fields", [(0, 0), (3, 0), (4, 1), (5, 1),
                                              (8, 2), (64, 6)])
def test_the_memo_holds_the_complete_fields_the_cache_can(
        model, states, capacity, fields):
    pool, refs = states
    service = _service(model, capacity)
    result = service.run(_rolling(pool))
    assert len(service._units._fields) == fields
    outputs = {id(r.output) for r in result.responses}
    # one field per state once the memo holds any; one per request if not
    assert len(outputs) == (len(pool) if fields else len(result.responses))
    for r in result.responses:
        assert r.output.tobytes() == refs[r.request.sample].tobytes()
    if capacity == 5:   # a core evicted at every change of state
        assert result.summary() == ROLLING_SUMMARY


def test_an_evicted_entry_releases_its_cores_and_its_field(model, states):
    """Room for one field: serving an unrelated state evicts the first
    state's cores from the cache and its entry from the memo, and
    nothing else keeps either alive."""
    pool, _ = states
    service = _service(model, N_TILES)
    first = service.run([Request(rid=0, arrival_s=0.0, sample=0,
                                 input=pool[0])])
    (cores, field), = service._units._fields.values()
    assert field is first.responses[0].output
    watched = [weakref.ref(a) for a in (*cores, field)]
    del first, cores, field
    gc.collect()
    assert all(ref() is not None for ref in watched)    # the memo's hold
    service.run([Request(rid=0, arrival_s=0.0, sample=1, input=-pool[0])])
    gc.collect()
    assert len(service._units._fields) == 1
    assert all(ref() is None for ref in watched)
