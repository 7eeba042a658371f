"""A dispatched batch runs as a batch — and the bytes cannot tell.

``DownscalingService.run`` feeds each dispatched batch through the model
in stacked forwards of ``service._EXEC_WIDTH`` units, while every
reference (``build_inference_runner``, ``TiledDownscaler``,
``predict_dataset``) runs a unit alone.  These tests pin both halves:

* the batch is *real* — forwards are counted, none wider than the
  constant, ``ceil(B / width)`` per batch of ``B`` same-shape units;
* the bytes are *not* — for random batch compositions, on both unit
  policies, compiled and eager, served output == the service at width 1
  == the width-1 reference, bitwise; mixed input shapes in one batch
  keep working; rows of one stacked output do not alias, and a
  tile-served field is frozen even where nothing copied it;
* and the comparison has teeth — a deliberately batch-variant model
  makes served != reference, which is what the equivalence grid and the
  e2e in-run check (c) now rely on to catch a batch-variant kernel.
"""

from math import ceil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ModelConfig, Reslim
from repro.data import ChannelNormalizer
from repro.nn import Module
from repro.serve import (ROLLING, BatchPolicy, DownscalingService, Request,
                         TileCache, TrafficGenerator)
from repro.serve import service as service_module
from repro.tensor import (Tensor, graph_counters, no_grad,
                          reset_graph_counters)
from repro.testing import warm_head
from repro.train import build_inference_runner

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
N_TILES, HALO, COARSE = 4, 2, (8, 16)
TILED = dict(n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE,
             tile_serving=True)
POLICIES = ["whole", "tiled"]
NORMALIZER = ChannelNormalizer(np.array([1.0, -2.0]), np.array([2.0, 0.5]))


@pytest.fixture(scope="module")
def model():
    m = warm_head(Reslim(TINY, 5, 2, factor=2, max_tokens=128,
                         rng=np.random.default_rng(0)))
    m.eval()
    return m


def _service(model, policy, *, compile=False, max_batch=4, cache_on=True,
             normalizer=NORMALIZER, n_replicas=2):
    return DownscalingService(
        model, n_replicas=n_replicas,
        policy=BatchPolicy(max_batch=max_batch, max_wait_s=0.02),
        cache=TileCache(64) if cache_on else None,
        target_normalizer=normalizer, compile=compile,
        **(TILED if policy == "tiled" else {}))


def _reference(model, policy, x, normalizer=NORMALIZER):
    """The width-1 oracle: the public runner on one input, denormalized."""
    runner = build_inference_runner(
        model, **({k: v for k, v in TILED.items() if k != "tile_serving"}
                  if policy == "tiled" else {}))
    with no_grad():
        pred = runner(Tensor(x[None])).data[0]
    return pred if normalizer is None else normalizer.denormalize(pred)


def _arrays(n, seed=0, shape=(5, *COARSE)):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


def _batch_sizes(result):
    return [s.args["batch_size"] for s in result.spans
            if s.name == "serve/batch"]


class _Counting(Module):
    """Records the width of every forward that reaches the model."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.factor = inner.factor
        self.widths: list[int] = []

    def forward(self, x):
        self.widths.append(x.shape[0])
        return self.inner(x)


class _BatchVariant(Module):
    """A model whose output depends on how many samples share its
    forward — what a batch-variant kernel would look like from outside."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.factor = inner.factor

    def forward(self, x):
        return self.inner(x) + 1e-3 * (x.shape[0] - 1)


# --------------------------------------------------------------------- #
# (a) the batch is real
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_batch_of_b_units_runs_as_ceil_b_over_width_forwards(
        model, policy, compile):
    """Distinct inputs, no cache: every unit is a job, batches of 5 (and
    a remainder), so each runs as pairs plus one single."""
    counting = _Counting(model)
    service = _service(counting, policy, compile=compile, max_batch=5,
                       cache_on=False, n_replicas=1)
    requests = [Request(rid=i, arrival_s=0.001 * i, sample=i, input=x)
                for i, x in enumerate(_arrays(7))]
    reset_graph_counters()
    result = service.run(requests)
    sizes = _batch_sizes(result)
    assert any(b % 2 for b in sizes) and max(sizes) == 5
    width = service_module._EXEC_WIDTH
    want = sum(ceil(b / width) for b in sizes)
    if compile:
        # replays never re-enter the python forward: the engine's own
        # counters count them, the wrapper sees each plan's capture
        c = graph_counters()
        assert c["captures"] + c["replays"] == want
        assert sorted(set(counting.widths)) == [1, width]
    else:
        assert len(counting.widths) == want
        assert sum(counting.widths) == sum(sizes)
    assert max(counting.widths) <= width
    for r in result.responses:
        assert r.output.tobytes() == _reference(
            model, policy, r.request.input).tobytes()


# --------------------------------------------------------------------- #
# (b) ... and the bytes are not: random batch compositions
# --------------------------------------------------------------------- #
@st.composite
def _traffic(draw):
    """Requests drawn from a small pool, so duplicates coalesce (tiles)
    or hit the cache; clustered arrivals and a drawn ``max_batch`` give
    odd and even batches with tile indices mixed across requests."""
    n = draw(st.integers(1, 9))
    picks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.003, 0.03]),
                         min_size=n, max_size=n))
    return picks, np.cumsum(gaps).tolist(), draw(st.integers(1, 7))


# inputs 2 and 3 differ from input 0 in one corner only: three of their
# four tiles are byte-equal to input 0's and share its jobs
def _pool():
    pool = _arrays(2, seed=1)
    for corner in ((0, 0), (-1, -1)):
        x = pool[0].copy()
        x[:, corner[0], corner[1]] += 1.0
        pool.append(x)
    return pool


@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(traffic=_traffic(), cache_on=st.booleans())
def test_batched_rows_equal_per_unit_execution_and_the_reference(
        model, policy, compile, traffic, cache_on):
    picks, arrivals, max_batch = traffic
    pool = _pool()
    requests = [Request(rid=i, arrival_s=t, sample=p, input=pool[p])
                for i, (p, t) in enumerate(zip(picks, arrivals))]

    def serve(width):
        with mock.patch.object(service_module, "_EXEC_WIDTH", width):
            return _service(model, policy, compile=compile,
                            max_batch=max_batch,
                            cache_on=cache_on).run(requests)

    batched, per_unit = serve(service_module._EXEC_WIDTH), serve(1)
    assert batched.summary() == per_unit.summary()
    want = {p: _reference(model, policy, pool[p]) for p in set(picks)}
    for got, alone in zip(batched.responses, per_unit.responses):
        assert got.output.tobytes() == alone.output.tobytes()
        assert got.output.tobytes() == want[got.request.sample].tobytes()


# --------------------------------------------------------------------- #
# mixed input shapes inside one dispatched batch
# --------------------------------------------------------------------- #
#: ``ServeResult.summary()`` of the run below, recorded at 06e25e0 (the
#: parent of stacked execution, one forward per unit)
MIXED_SUMMARY = {
    "requests": 18, "duration_s": 0.382,
    "throughput_rps": 47.12041884816754,
    "latency_p50_s": 0.21400000000000002, "latency_p99_s": 0.318,
    "latency_mean_s": 0.20133333333333334, "latency_max_s": 0.318,
    "queue_wait_p99_s": 0.276, "queue_depth_max": 14.0,
    "queue_depth_p99": 14.0, "batches": 5.0, "batch_size_mean": 3.6,
    "cache_hits": 0.0, "cache_misses": 18.0, "cache_evictions": 10.0,
    "cache_hit_rate": 0.0, "n_replicas": 1, "gpus_per_replica": 1,
    "utilization_mean": 0.9685863874345549,
    "utilization": {"0": 0.9685863874345549}, "shed": 0.0,
    "scale_ups": 0.0, "scale_downs": 0.0, "replica_seconds": 0.382,
}


def test_mixed_input_shapes_in_one_batch_keep_working(model):
    """Whole requests share one signature whatever their grid, so the
    scheduler batches (5, 16, 16) next to (5, 8, 16).  Which jobs it
    batches is the parent's, to the digit; only the forwards inside a
    batch are formed per shape."""
    shapes = ((5, 16, 16), (5, 8, 16))
    picks = [0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 1]
    rng = np.random.default_rng(7)
    requests = [Request(rid=i, arrival_s=0.004 * i, sample=i,
                        input=rng.standard_normal(shapes[p])
                        .astype(np.float32))
                for i, p in enumerate(picks)]
    counting = _Counting(model)
    result = DownscalingService(
        counting, n_replicas=1,
        policy=BatchPolicy(max_batch=4, max_wait_s=0.02),
        cache=TileCache(8), target_normalizer=NORMALIZER).run(requests)
    assert _batch_sizes(result) == [4, 4, 4, 4, 2]
    mixed = [{requests[rid].input.shape for rid in s.args["rids"]}
             for s in result.spans if s.name == "serve/batch"]
    assert all(len(shapes_in_batch) == 2 for shapes_in_batch in mixed)
    assert result.summary() == MIXED_SUMMARY
    # four batches of 3 + 1 units per shape (a pair and two singles),
    # then 1 + 1
    assert sorted(counting.widths) == [1] * 10 + [2] * 4
    for r in result.responses:
        assert r.output.tobytes() == _reference(
            model, "whole", r.request.input).tobytes()


# --------------------------------------------------------------------- #
# (c) rows of one stacked output do not alias
# --------------------------------------------------------------------- #
def test_pair_mates_do_not_alias_each_other_or_the_cache(model):
    """Without a target normalizer nothing copies a whole-request row:
    the two responses of a pair are views into one forward's output.
    Writing through one must reach neither the other nor the cache."""
    service = _service(model, "whole", normalizer=None, max_batch=2,
                       n_replicas=1)
    xs = _arrays(2, seed=3)

    def run():
        return service.run([Request(rid=i, arrival_s=0.0, sample=i, input=x)
                            for i, x in enumerate(xs)]).responses

    first, second = run()
    assert not first.cache_hit and first.batch_size == 2
    assert first.output.base is second.output.base is not None
    want = [_reference(model, "whole", x, None) for x in xs]
    first.output[...] = np.nan
    assert second.output.tobytes() == want[1].tobytes()
    for hit, ref in zip(run(), want):
        assert hit.cache_hit
        assert hit.output.tobytes() == ref.tobytes()


def test_a_tile_served_field_is_frozen_without_a_normalizer(model):
    """Without a target normalizer nothing copies the assembled field:
    the memoised array *is* what ``assemble`` filled.  It is frozen all
    the same, so a write through an earlier response is refused and the
    later hits on that state still read the reference bytes."""
    service = _service(model, "tiled", normalizer=None, n_replicas=1)
    x = _arrays(1, seed=4)[0]
    want = _reference(model, "tiled", x, None)

    def run():
        return service.run([Request(rid=0, arrival_s=0.0, sample=0,
                                    input=x)]).responses[0]

    first = run()
    assert first.output.flags.owndata and not first.output.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first.output[...] = np.nan
    hit = run()
    assert hit.cache_hit and hit.output is first.output
    assert hit.output.tobytes() == want.tobytes()


# --------------------------------------------------------------------- #
# (d) teeth: a batch-variant model is caught
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("compile", [False, True], ids=["eager", "compiled"])
@pytest.mark.parametrize("policy", POLICIES)
def test_a_batch_variant_model_makes_served_differ_from_reference(
        model, policy, compile):
    """Served runs width 2, the reference width 1: a model whose bits
    depend on the width cannot pass the comparison the equivalence grid
    and the e2e in-run check make.  At width 1 the same probe passes, so
    it is the width and nothing else that the comparison sees."""
    probe = _BatchVariant(model)
    requests = [Request(rid=i, arrival_s=0.0, sample=i, input=x)
                for i, x in enumerate(_arrays(4, seed=5))]

    def mismatches():
        responses = _service(probe, policy, compile=compile,
                             cache_on=False).run(requests).responses
        return sum(r.output.tobytes() != _reference(
            probe, policy, r.request.input).tobytes() for r in responses)

    assert mismatches() == len(requests)
    with mock.patch.object(service_module, "_EXEC_WIDTH", 1):
        assert mismatches() == 0


# --------------------------------------------------------------------- #
# one plan per (signature, width), captured once
# --------------------------------------------------------------------- #
def test_sixteen_tiles_capture_once_per_signature_and_width(model):
    """A 4 x 4 tiling has four signatures (corner, two edge kinds,
    interior), each run at widths 2 and 1: eight plans.  They are
    captured in the first rolling window and none in the second — the
    plan cache holds the working set and evicts one plan at a time."""
    coarse, n_tiles = (16, 32), 16
    service = DownscalingService(
        model, n_replicas=2, policy=BatchPolicy(max_batch=5, max_wait_s=0.02),
        cache=TileCache(256), target_normalizer=NORMALIZER, n_tiles=n_tiles,
        halo=HALO, coarse_shape=coarse, tile_serving=True, compile=True)
    assert len(service.tile_plan.signatures()) == 4
    base = _arrays(1, seed=9, shape=(5, *coarse))

    def window(seed):
        requests = TrafficGenerator(
            ROLLING, rate_rps=40.0, duration_s=0.4, seed=seed,
            n_tiles=n_tiles, tile_update_rate=200.0).generate(inputs=base)
        reset_graph_counters()
        result = service.run(requests)
        plans = set()
        for s in result.spans:
            if s.name == "serve/batch":
                b, sig = s.args["batch_size"], tuple(s.args["signature"])
                plans |= {(sig, w) for w in ((2,) * (b > 1) + (1,) * (b % 2))}
        return plans, graph_counters()["captures"]

    first, captured = window(1)
    assert len(first) == 8 and captured == 8
    second, recaptured = window(2)
    assert second and second <= first
    assert recaptured == 0
    assert graph_counters()["replays"] > 0
