"""Admission validation: one hostile request cannot break a run.

``DownscalingService.run`` checks each input once per object per run —
a finite float32 ``(C, h, w)`` array with the model's channel count and,
when the service tiles, the plan's coarse grid.  A request that fails is
answered at arrival with ``status="rejected"``: counted on
``serve/requests`` and ``serve/rejected``, outside the latency
histograms, and never probed, queued, batched or cached — so a healthy
request arriving at the same instant is served exactly as if it were
alone, stacked with no one.
"""

import numpy as np
import pytest

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
CHANNELS = 5


@pytest.fixture(scope="module")
def model():
    m = warm_head(Reslim(TINY, CHANNELS, 2, factor=2, max_tokens=128,
                         rng=np.random.default_rng(0)))
    m.eval()
    return m


def _healthy(seed=0):
    return np.random.default_rng(seed).standard_normal(
        (CHANNELS, *COARSE)).astype(np.float32)


def _hostile(kind):
    x = _healthy(seed=1)
    if kind == "nan":
        x[2, 3, 4] = np.nan
    elif kind == "inf":
        x[0, 0, 0] = -np.inf
    elif kind == "float64":
        x = x.astype(np.float64)
    elif kind == "channels":
        x = np.concatenate([x, x[:1]])
    elif kind == "grid":
        x = x[:, :6]
    elif kind == "batched":
        x = x[None]
    return x


#: service arguments per mode: whole requests, whole requests through a
#: tiled runner, tile serving
MODES = {"whole": {}, "whole_tiled": TILING,
         "tiled": dict(TILING, tile_serving=True)}


def _service(model, mode, max_batch=2):
    # max_batch 2 at width 2: a queued hostile unit would share the
    # healthy one's batch and forward
    return DownscalingService(
        model, n_replicas=1,
        policy=BatchPolicy(max_batch=max_batch, max_wait_s=0.02),
        cache=TileCache(64), target_normalizer=NORMALIZER, **MODES[mode])


def _reference(model, mode, x):
    runner = build_inference_runner(model,
                                    **(TILING if mode != "whole" else {}))
    with no_grad():
        return NORMALIZER.denormalize(runner(Tensor(x[None])).data[0])


#: kinds rejected in every mode; a wrong grid only when the service
#: tiles (an untiled whole request may have any grid the model accepts)
BASIC = ["nan", "inf", "float64", "channels", "batched"]
KINDS = {"whole": BASIC, "whole_tiled": BASIC + ["grid"],
         "tiled": BASIC + ["grid"]}


@pytest.mark.parametrize("mode,kind", [(m, k) for m, kinds in KINDS.items()
                                       for k in kinds])
def test_a_hostile_request_is_rejected_beside_a_healthy_one(model, mode,
                                                            kind):
    healthy = _healthy()
    service = _service(model, mode)
    result = service.run([
        Request(rid=0, arrival_s=0.0, sample=0, input=_hostile(kind)),
        Request(rid=1, arrival_s=0.0, sample=1, input=healthy)])
    bad, good = result.responses
    assert (bad.status, bad.output, bad.cache_hit, bad.replica,
            bad.batch_size, bad.latency_s) == (
                "rejected", None, False, None, 0, 0.0)
    assert good.status == "ok"
    assert good.output.tobytes() == _reference(model, mode,
                                               healthy).tobytes()
    m = result.metrics
    assert m.counters["serve/rejected"] == 1.0
    assert m.counters["serve/requests"] == 2.0
    assert m.histograms["serve/latency_s"].count == 1
    assert m.histograms["serve/queue_depth"].count == 2
    # never probed, never cached: the only lookups and entries are the
    # healthy request's units
    units = N_TILES if mode == "tiled" else 1
    assert service.cache.hits + service.cache.misses == units
    assert len(service.cache) == service.cache.insertions == units
    # ... and never batched: the healthy request is served as if alone
    alone = _service(model, mode).run(
        [Request(rid=1, arrival_s=0.0, sample=1, input=healthy)])
    (solo,) = alone.responses
    assert ({k: v for k, v in vars(good).items() if k != "output"}
            == {k: v for k, v in vars(solo).items() if k != "output"})
    assert [vars(s) for s in result.spans] == [vars(s) for s in alone.spans]


@pytest.mark.parametrize("mode", ["whole", "tiled"])
def test_each_input_object_is_validated_once_per_run(model, mode,
                                                     monkeypatch):
    service = _service(model, mode, max_batch=8)
    checked = []
    admissible = service._admissible
    monkeypatch.setattr(service, "_admissible",
                        lambda x: checked.append(x) or admissible(x))
    healthy, hostile = _healthy(), _hostile("nan")
    picks = [healthy, hostile, hostile, healthy, hostile.copy()]
    requests = [Request(rid=i, arrival_s=0.01 * i, sample=i, input=x)
                for i, x in enumerate(picks)]
    result = service.run(requests)
    assert [r.status for r in result.responses] == [
        "ok", "rejected", "rejected", "ok", "rejected"]
    assert len(checked) == 3          # three distinct objects
    service.run(requests)             # per run, not per service
    assert len(checked) == 6


def test_latency_only_requests_need_no_input():
    result = DownscalingService().run(
        [Request(rid=0, arrival_s=0.0, sample=0)])
    assert result.responses[0].status == "ok"
    assert "serve/rejected" not in result.metrics.counters


def test_a_model_served_in_tiles_needs_its_grid(model):
    """Without ``coarse_shape`` there is no plan to admit on, and one
    request on a grid the tiling cannot split would raise inside ``run``."""
    with pytest.raises(ValueError, match="coarse_shape"):
        DownscalingService(model, n_tiles=N_TILES, halo=HALO)
