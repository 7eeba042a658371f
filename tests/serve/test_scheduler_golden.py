"""Golden pin of the serving scheduler: every observable of a seeded
run grid, digest for digest.

The equivalence suites prove *what* is served; this file pins *how* —
the exact event-by-event behaviour of ``DownscalingService.run`` — so
the scheduler can be restructured with proof that nothing moved.  For a
seeded grid {whole, tiled} × scenario × replicas {1, 2, 4} × cache
{on, off} × autoscale {off, on} × ``max_queue_depth`` {None, small}
(latency-only, plus one small executed cell per mode) it records a
SHA-256 over every ``Response`` field, every span, the metrics dump,
the monitor record/event stream and the served output bytes, floats
encoded with ``float.hex()`` so the comparison is bitwise.

The whole-request cache counters are kept in clear text beside the
digests (``cache_counters``) so a change that is meant to move only
them — and nothing else — is readable straight from the JSON diff.
The executed cells also store ``repro.tensor.KERNEL_EPOCH``: their
output digests are absolute bytes, so a kernel change must re-record
them, and the test says so instead of un-pinning itself.  They store a
``blas_probe`` as well: a different probe marks another BLAS build, whose
output bytes may differ, while a reference that moves under an equal
probe is a kernel change made without a ``KERNEL_EPOCH`` bump, and fails.

Re-record with ``REPRO_UPDATE_GOLDEN=1`` (see ``repro.testing.golden``).
"""

import hashlib
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.serve import (
    ROLLING,
    AutoscalePolicy,
    BatchPolicy,
    DownscalingService,
    TileCache,
    TrafficGenerator,
    content_key,
)
from repro.tensor import KERNEL_EPOCH, Tensor, no_grad
from repro.testing import warm_head
from repro.testing.golden import update_requested
from repro.train import build_inference_runner

GOLDEN = Path(__file__).with_name("scheduler_golden.json")

POLICY = BatchPolicy(max_batch=4, max_wait_s=0.02)
AUTOSCALE = AutoscalePolicy(min_replicas=1, scale_up_depth=4,
                            cooldown_s=0.05, spinup_s=0.005)
SMALL_QUEUE = 6
N_TILES, HALO, COARSE = 4, 2, (8, 16)
CACHE_COUNTERS = ("serve/cache/hits", "serve/cache/misses",
                  "serve/cache/hit_rate")

#: mode -> scenarios; the tiled burst carries neither arrays nor tile
#: versions, so it exercises the per-sample fallback keys
SCENARIOS = {"whole": ("steady", "burst", "diurnal"),
             "tiled": ("burst", ROLLING)}
INNER_GRID = list(itertools.product((1, 2, 4), (False, True),
                                    (False, True), (None, SMALL_QUEUE)))


# --------------------------------------------------------------------- #
# canonical encoding
# --------------------------------------------------------------------- #
def _canon(obj):
    """JSON-ready form with every float spelled bit-exactly."""
    if isinstance(obj, (bool, str, type(None))):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _sha(obj) -> str:
    text = json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Tape:
    """Monitor stand-in: keeps the exact record/event stream the
    scheduler emits, in order."""

    def __init__(self):
        self.stream = []

    def record(self, name, value, t=None):
        self.stream.append(("record", name, value, t))

    def event(self, kind, t=None, **detail):
        self.stream.append(("event", kind, t, detail))


def _digest(result, tape) -> dict:
    responses = []
    for r in result.responses:
        row = {k: v for k, v in vars(r).items()
               if k not in ("request", "output")}
        row["request"] = {k: v for k, v in asdict(r.request).items()
                          if k != "input"}
        responses.append(row)
    metrics = result.metrics.as_dict()
    cache_counters = {}
    for name in CACHE_COUNTERS:
        for kind in ("counters", "gauges"):
            if name in metrics[kind]:
                cache_counters[name] = metrics[kind].pop(name)
    out = {
        "responses": _sha(responses),
        "spans": _sha([vars(s) for s in result.spans]),
        "metrics": _sha(metrics),
        "cache_counters": cache_counters,
        "monitor": _sha(tape.stream),
        "result": _sha([result.duration_s, result.n_replicas,
                        result.gpus_per_replica, result.utilization]),
    }
    if any(r.output is not None for r in result.responses):
        out["outputs"] = _sha([
            None if r.output is None else content_key(r.output)
            for r in result.responses])
    return out


# --------------------------------------------------------------------- #
# the grid
# --------------------------------------------------------------------- #
def _traffic(scenario, inputs=None, duration_s=3.0, tile_update_rate=150.0):
    if scenario == ROLLING:
        gen = TrafficGenerator(ROLLING, 90.0, duration_s, seed=11,
                               n_tiles=N_TILES,
                               tile_update_rate=tile_update_rate)
    else:
        gen = TrafficGenerator(scenario, 90.0, duration_s, seed=11,
                               n_inputs=12 if inputs is None else len(inputs),
                               popularity=1.2)
    return gen.generate(inputs=inputs)


def _service(mode, n_replicas, cache_on, autoscale_on, depth, model=None,
             **kw):
    if mode == "tiled":
        kw.update(n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE,
                  tile_serving=True)
    capacity = 16 if mode == "tiled" else 6     # both small enough to evict
    return DownscalingService(
        model, n_replicas=n_replicas, policy=POLICY,
        cache=TileCache(capacity) if cache_on else None,
        autoscale=AUTOSCALE if autoscale_on else None,
        max_queue_depth=depth, **kw)


def _cell_id(mode, scenario, n_replicas, cache_on, autoscale_on, depth):
    return (f"{mode}/{scenario}/r{n_replicas}/"
            f"cache-{'on' if cache_on else 'off'}/"
            f"autoscale-{'on' if autoscale_on else 'off'}/"
            f"depth-{depth}")


def _check(cells: dict) -> None:
    """Compare ``cells`` with the golden file, or re-record them."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if update_requested([]):
        golden.update(cells)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    moved = {
        cell: sorted(k for k in got.keys() | golden.get(cell, {}).keys()
                     if got.get(k) != golden.get(cell, {}).get(k))
        for cell, got in cells.items() if got != golden.get(cell)}
    assert not moved, f"scheduler behaviour moved (cell: sections): {moved}"


@pytest.mark.parametrize("mode,scenario", [
    (mode, s) for mode, scenarios in SCENARIOS.items() for s in scenarios])
def test_latency_only_grid(mode, scenario):
    requests = _traffic(scenario)
    cells = {}
    shed = scale_ups = 0
    for n_replicas, cache_on, autoscale_on, depth in INNER_GRID:
        tape = _Tape()
        result = _service(mode, n_replicas, cache_on, autoscale_on,
                          depth).run(requests, monitor=tape)
        shed += result.summary()["shed"]
        scale_ups += result.summary()["scale_ups"]
        cells[_cell_id(mode, scenario, n_replicas, cache_on, autoscale_on,
                       depth)] = _digest(result, tape)
    # the grid only pins admission control and autoscaling if they act
    assert shed > 0 and scale_ups > 0
    _check(cells)


# --------------------------------------------------------------------- #
# executed cells
# --------------------------------------------------------------------- #
TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _workload(fine):
    spec = DatasetSpec(name="sched-golden", fine_grid=Grid(*fine), factor=4,
                       years=(2000, 2001), samples_per_year=2, seed=3,
                       output_channels=(17, 18, 19))
    ds = DownscalingDataset(spec, years=(2000, 2001))
    ds.fit_normalizer()
    model = warm_head(Reslim(TINY, 23, 3, factor=4, max_tokens=256,
                             rng=np.random.default_rng(0)))
    model.eval()
    inputs = np.concatenate([b.inputs for b in ds.batches(1)])
    return model, ds, list(inputs)


def _blas_probe() -> str:
    """SHA-256 over a few fixed float32 results at the kernels' shapes.

    Flash's K = d + 1 = 9 score GEMM and its ``pᵀ @ [V, 1]``, an ``(L, 8)
    @ (8,)`` GEMV, and ``np.exp2`` / ``np.exp`` over a fixed vector.  Equal
    probes mean the BLAS and ufunc builds round as they did at recording,
    so a moved reference can only be a kernel change.
    """
    rng = np.random.default_rng(29)
    kT, qT = (rng.standard_normal(s).astype(np.float32)
              for s in ((8, 128, 9), (8, 9, 128)))
    x = rng.standard_normal((8, 153, 8)).astype(np.float32)
    s = kT @ qT
    h = hashlib.sha256()
    for a in (s, np.swapaxes(np.exp2(s), -1, -2) @ kT,
              x @ rng.standard_normal(8).astype(np.float32),
              np.exp2(8 * x.ravel()), np.exp(8 * x.ravel())):
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mode", ["whole", "tiled"])
def test_executed_cell(mode):
    if mode == "whole":
        model, ds, inputs = _workload((16, 32))
        requests = _traffic("burst", inputs=inputs, duration_s=1.0)
        geometry = {}
    else:
        model, ds, inputs = _workload((32, 64))
        # slow tile evolution, so most tiles are served from the cache
        requests = _traffic(ROLLING, inputs=inputs[:1], duration_s=1.0,
                            tile_update_rate=20.0)
        geometry = dict(n_tiles=N_TILES, halo=HALO, coarse_shape=COARSE)
    tape = _Tape()
    service = _service(mode, 2, True, False, None, model=model,
                       target_normalizer=ds.target_normalizer)
    result = service.run(requests, monitor=tape)

    # the public reference: the runner predict_dataset uses + denormalize
    runner = build_inference_runner(model, **geometry)
    refs: dict[int, np.ndarray] = {}
    for resp in result.responses:
        sample = resp.request.sample
        if sample not in refs:
            with no_grad():
                pred = runner(Tensor(resp.request.input[None])).data[0]
            refs[sample] = ds.target_normalizer.denormalize(pred)
        assert np.array_equal(resp.output, refs[sample])

    cell = _digest(result, tape)
    cell["kernel_epoch"] = KERNEL_EPOCH
    cell["reference"] = _sha([content_key(refs[s]) for s in sorted(refs)])
    cell["blas_probe"] = _blas_probe()
    name = f"{mode}/executed"
    recorded = (json.loads(GOLDEN.read_text()).get(name, {})
                if GOLDEN.exists() else {})
    if not update_requested([]):
        # a kernel change moves the output bytes on purpose and must
        # re-record them
        assert recorded.get("kernel_epoch") == KERNEL_EPOCH, (
            f"{name} was recorded at kernel epoch "
            f"{recorded.get('kernel_epoch')}, the kernels are at epoch "
            f"{KERNEL_EPOCH}: re-record with REPRO_UPDATE_GOLDEN=1 in a "
            "commit that changes nothing else (DESIGN.md §12)")
        # output bytes depend on the BLAS build: on another build (its
        # probe differs) pin them only where the reference reproduces the
        # recorded bytes; the bitwise check against the live reference
        # above holds everywhere
        if recorded.get("blas_probe") != cell["blas_probe"]:
            cell["blas_probe"] = recorded.get("blas_probe")
            if recorded.get("reference") != cell["reference"]:
                for key in ("outputs", "reference"):
                    cell[key] = recorded.get(key)
        assert recorded.get("reference") == cell["reference"], (
            f"{name}: the kernels' bits moved under the recorded BLAS "
            f"build at kernel epoch {KERNEL_EPOCH}: bump KERNEL_EPOCH and "
            "re-record with REPRO_UPDATE_GOLDEN=1 in a commit that changes "
            "nothing else (DESIGN.md §12)")
    _check({name: cell})
