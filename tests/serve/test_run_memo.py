"""Soundness boundary of ``DownscalingService.run``'s per-run key memo.

Inside one ``run()`` a request's work list (its cache keys and batching
signatures) is computed once per distinct input *object*: the loop is
synchronous and holds inputs by reference from arrival to dispatch, so
an array's keys are a function of its identity for the length of the
call.  These tests pin what that may and may not change:

* sharing one array across requests is indistinguishable from giving
  each request its own equal copy — nothing observable depends on
  identity;
* nothing keyed by identity survives the call — an array mutated in
  place between two runs is re-keyed by the second;
* keys are still content keys — distinct objects with equal bytes meet
  on one key;
* and the point of it: ``content_key`` runs once per unit per distinct
  object per run, not once per request.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import ChannelNormalizer
from repro.serve import BatchPolicy, DownscalingService, Request, TileCache
from repro.testing import warm_head

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
N_TILES, HALO, COARSE = 4, 2, (8, 16)
MODES = ["whole", "tiled"]
#: which distinct input each request carries: repeats back to back, after
#: another input, and at the same arrival instant
PICKS = (0, 0, 1, 0, 2, 2, 1, 0, 0, 2, 1, 1)


@pytest.fixture(scope="module")
def model():
    m = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=256,
                         rng=np.random.default_rng(0)))
    m.eval()
    return m


def _service(model, mode, cache_on=True):
    tiled = (dict(n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE,
                  tile_serving=True) if mode == "tiled" else {})
    return DownscalingService(
        model, n_replicas=2, policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
        cache=TileCache(64) if cache_on else None,
        target_normalizer=ChannelNormalizer(np.array([1.0, -2.0, 0.5]),
                                            np.array([2.0, 0.5, 3.0])),
        **tiled)


def _arrays(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((23, *COARSE)).astype(np.float32)
            for _ in range(n)]


def _requests(arrays, *, copy):
    """One request per ``PICKS`` entry, every third pair simultaneous."""
    return [Request(rid=i, arrival_s=0.01 * (i - i % 3 // 2), sample=p,
                    input=arrays[p].copy() if copy else arrays[p])
            for i, p in enumerate(PICKS)]


def _observables(result):
    """Everything a run exposes, inputs compared by content only."""
    responses = []
    for r in result.responses:
        row = {k: v for k, v in vars(r).items()
               if k not in ("request", "output")}
        row["request"] = {k: v for k, v in asdict(r.request).items()
                          if k != "input"}
        row["input"] = r.request.input.tobytes()
        row["output"] = None if r.output is None else (
            r.output.dtype.str, r.output.shape, r.output.tobytes())
        responses.append(row)
    return (responses, [vars(s) for s in result.spans],
            result.metrics.as_dict(), result.duration_s, result.utilization)


@pytest.mark.parametrize("cache_on", [True, False],
                         ids=["cache-on", "cache-off"])
@pytest.mark.parametrize("mode", MODES)
def test_shared_objects_serve_like_equal_copies(model, mode, cache_on):
    arrays = _arrays()
    shared, copies = _service(model, mode, cache_on), _service(model, mode,
                                                               cache_on)
    first = shared.run(_requests(arrays, copy=False))
    assert _observables(first) == _observables(
        copies.run(_requests(arrays, copy=True)))
    assert all(r.status == "ok" and r.output is not None
               for r in first.responses)
    # a reshard between runs: the second run keys under the new epoch
    # (every resident entry is orphaned), identically on both services
    assert shared.bump_plan_epoch() == copies.bump_plan_epoch() == 1
    second = shared.run(_requests(arrays, copy=False))
    assert _observables(second) == _observables(
        copies.run(_requests(arrays, copy=True)))
    if cache_on:
        prefix = "serve/tile" if mode == "tiled" else "serve/cache"
        assert (second.metrics.counters[f"{prefix}/misses"]
                == first.metrics.counters[f"{prefix}/misses"] > 0)
    for a, b in zip(first.responses, second.responses):
        assert a.output.tobytes() == b.output.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_in_place_mutation_between_runs_is_seen(model, mode):
    """No cross-run memo: same object, same ``id``, new bytes."""
    svc = _service(model, mode)
    attrs = set(vars(svc)), set(vars(svc._units))
    x = _arrays(1)[0]
    before = svc.run([Request(rid=0, arrival_s=0.0, sample=0, input=x)])
    assert (set(vars(svc)), set(vars(svc._units))) == attrs  # nothing kept
    again = svc.run([Request(rid=0, arrival_s=0.0, sample=0, input=x)])
    assert again.responses[0].cache_hit
    x[:, -1, -1] += 1.0           # far corner: one tile's core, no halo
    after = svc.run([Request(rid=0, arrival_s=0.0, sample=0, input=x)])
    resp = after.responses[0]
    assert not resp.cache_hit
    if mode == "tiled":
        assert (resp.tiles_hit, resp.tiles_computed) == (N_TILES - 1, 1)
    fresh = _service(model, mode).run(
        [Request(rid=0, arrival_s=0.0, sample=0, input=x.copy())])
    assert resp.output.tobytes() == fresh.responses[0].output.tobytes()
    assert resp.output.tobytes() != before.responses[0].output.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_equal_bytes_in_distinct_objects_share_a_key(model, mode):
    """Content keying is unchanged: the memo is looked up by identity,
    but what it holds are content keys."""
    x = _arrays(1)[0]
    result = _service(model, mode).run([
        Request(rid=0, arrival_s=0.0, sample=0, input=x),
        Request(rid=1, arrival_s=0.5, sample=1, input=x.copy())])
    late = result.responses[1]
    assert late.cache_hit and late.replica is None
    assert late.output.tobytes() == result.responses[0].output.tobytes()
    if mode == "tiled":
        # and in flight: simultaneous equal copies coalesce tile for tile
        result = _service(model, mode, cache_on=False).run([
            Request(rid=0, arrival_s=0.0, sample=0, input=x),
            Request(rid=1, arrival_s=0.0, sample=1, input=x.copy())])
        assert result.metrics.counters["serve/tile/coalesced"] == N_TILES


@pytest.mark.parametrize("cache_on", [True, False],
                         ids=["cache-on", "cache-off"])
@pytest.mark.parametrize("mode", MODES)
def test_each_input_object_is_keyed_once_per_run(model, mode, cache_on,
                                                 monkeypatch):
    """The regression guard for the gain: hashing scales with distinct
    input objects, not with requests."""
    from repro.serve import cache, service, tiling

    calls = []

    def counting(array):
        calls.append(array.shape)
        return cache.content_key(array)

    monkeypatch.setattr(service, "content_key", counting)
    monkeypatch.setattr(tiling, "content_key", counting)
    arrays = _arrays()
    units = N_TILES if mode == "tiled" else 1
    svc = _service(model, mode, cache_on)
    svc.run(_requests(arrays, copy=False))
    assert len(calls) == len(arrays) * units
    # per run, not per service; and per object, not per content
    svc.run(_requests(arrays, copy=False))
    assert len(calls) == 2 * len(arrays) * units
    svc.run(_requests(arrays, copy=True))
    assert len(calls) == (2 * len(arrays) + len(PICKS)) * units
