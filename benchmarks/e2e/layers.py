"""The per-layer pass: a traced run of each workload plus direct timing of
each layer's public functions at the workload's call shapes.

Nothing under ``src/`` is instrumented.  Layers are timed from outside:
either by replacing an *instance attribute* with a span-recording wrapper
(``Recorder.wrap``) so the program's own calls are measured in place, or
by calling the public function directly on the workload's inputs.

The pass runs a fixed number of ops (scaled by ``--seconds``), not a
deadline, so every count-type metric repeats exactly for a given seed.
"""

from __future__ import annotations

import math
import os
import time
from statistics import median

import numpy as np

from repro.core import extract_tile, make_tiles, stitch_tiles
from repro.data import INPUT_VARIABLES
from repro.distributed import tile_core_loss
from repro.nn import MultiHeadSelfAttention, clip_grad_norm, warmup_cosine
from repro.obs import Tracer
from repro.serve import TileCache, content_key
from repro.tensor import (CompiledStep, FlopCounter, Tensor, bilinear_upsample,
                          conv2d, gelu, graph_counters, layernorm, linear,
                          no_grad)
from repro.train import (build_inference_runner, evaluate_downscaling,
                         load_checkpoint, mse_loss, save_checkpoint)

from .metrics import RUN_SECONDS, C, SC, SS, SW, T
from .spans import Recorder, timed_median
from .workloads import (BATCH, COARSE, FACTOR, HALO, IN_CH, OUT_CHANNELS,
                        SERVE_TILES, WARMUP_OPS, batch_stream, op_ms, run_ops)

MS, US = 1e3, 1e6
MICRO_REPS = 7


def _ms(rec: Recorder, name: str) -> float:
    return median(rec.durations(name)) * MS


def _common(w, rec, plain, traced) -> dict:
    """Metrics every workload reports from its two phases."""
    self_t = rec.self_time_by_name()
    op_total = sum(rec.durations("op"))
    tensor_self = sum(t for n, t in self_t.items() if n.startswith("tensor."))
    return {
        "data.build_s": w.data_build_s,
        "failed_share": w.failed / w.attempted,
        "tensor.self_share": tensor_self / op_total,
        "bench.trace_overhead_share":
            median(op_ms(w, traced)) / median(op_ms(w, plain)) - 1.0,
        "bench.span_coverage_share": rec.coverage("op"),
    }


def _tape_counts(before: dict, after: dict, steps: int) -> dict:
    """Autograd-tape activity per step between two counter snapshots."""
    return {f"tensor.{name}_per_step": (after[key] - before[key]) / steps
            for name, key in (("tape_nodes", "nodes"),
                              ("bwd_new_buffers", "bwd_new_buffers"),
                              ("leaf_copies", "leaf_copies"))}


def _fwd_bwd(fn, *tensors) -> float:
    """Median ms of ``fn(*tensors)`` forward plus its backward."""
    grad = np.ones_like(fn(*tensors).data)

    def call():
        for t in tensors:
            t.zero_grad()
        fn(*tensors).backward(grad)
    return timed_median(call, MICRO_REPS) * MS


def _param(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=True)


# --------------------------------------------------------------------- #
# train_single
# --------------------------------------------------------------------- #
def decomposed_step(trainer, batch, step: int, rec: Recorder) -> float:
    """``Trainer.train_step`` rebuilt from public calls, one span each.

    Must stay bitwise equal to ``train_step`` from the same state — the
    per-layer pass checks that before trusting the spans.
    """
    cfg, opt = trainer.config, trainer.optimizer
    total = max(1, cfg.epochs * math.ceil(len(trainer.dataset)
                                          / cfg.batch_size))
    with rec.span("train.schedule_zero_grad"):
        opt.lr = warmup_cosine(step, cfg.warmup_steps, total, cfg.lr,
                               cfg.min_lr)
        opt.zero_grad()
    with rec.span("tensor.forward"):
        pred = trainer.model(Tensor(batch.inputs))
    with rec.span("core.loss_forward"):
        loss = trainer.loss_fn(pred, Tensor(batch.targets))
    with rec.span("tensor.backward"):
        loss.backward()
    with rec.span("nn.optim_step"):
        clip_grad_norm(opt.params, cfg.grad_clip)
        opt.step()
    return float(loss.data)


def _check_decomposed(w) -> list[str]:
    """(b) the decomposed step equals ``train_step`` bitwise."""
    whole, parts = w.build(), w.build()
    batches, scratch = batch_stream(w.ds, w.seed), Recorder()
    for step in range(WARMUP_OPS):
        batch = next(batches)
        a = whole.train_step(batch)
        b = decomposed_step(parts, batch, step, scratch)
        if a != b:
            return [f"decomposed step {step}: loss {b!r} != train_step {a!r}"]
    same = all(np.array_equal(p.data, q.data) for p, q in
               zip(whole.model.parameters(), parts.model.parameters()))
    return [] if same else ["decomposed step: parameters diverged"]


def _micro_ops(w) -> dict:
    """Public tensor/nn/core ops at ``train_single``'s call shapes."""
    rng = np.random.default_rng(w.seed)
    d, heads = w.config.embed_dim, w.config.num_heads
    tokens = (COARSE[0] // 2) * (COARSE[1] // 2)
    x = _param(rng, BATCH, tokens, d)
    fine = (COARSE[0] * FACTOR, COARSE[1] * FACTOR)
    attention = MultiHeadSelfAttention(d, heads, rng=rng)
    target = Tensor(rng.standard_normal(
        (BATCH, len(OUT_CHANNELS), *fine)).astype(np.float32))
    return {
        "tensor.linear_fwd_bwd_ms": _fwd_bwd(
            linear, x, _param(rng, 4 * d, d), _param(rng, 4 * d)),
        "tensor.layernorm_fwd_bwd_ms": _fwd_bwd(
            layernorm, x, _param(rng, d), _param(rng, d)),
        "tensor.gelu_fwd_bwd_ms": _fwd_bwd(
            gelu, _param(rng, BATCH, tokens, 4 * d)),
        "tensor.conv2d_fwd_bwd_ms": _fwd_bwd(
            lambda a, k, b: conv2d(a, k, b, pad=1),
            _param(rng, BATCH, d, COARSE[0] // 2, COARSE[1] // 2),
            _param(rng, d, d, 3, 3), _param(rng, d)),
        "tensor.bilinear_upsample_fwd_bwd_ms": _fwd_bwd(
            lambda a: bilinear_upsample(a, *fine),
            _param(rng, BATCH, len(OUT_CHANNELS), *COARSE)),
        "nn.attention_fwd_bwd_ms": _fwd_bwd(attention, x),
        "core.loss_fwd_bwd_ms": _fwd_bwd(
            lambda p: w.trainer.loss_fn(p, target),
            _param(rng, BATCH, len(OUT_CHANNELS), *fine)),
    }


def _checkpoint(w, out_dir) -> dict:
    path = os.path.join(out_dir, f"checkpoint_{os.getpid()}.pkl")
    model = w.trainer.model
    try:
        save_s = timed_median(lambda: save_checkpoint(model, path), 3)
        size = os.path.getsize(path)
        load_s = timed_median(lambda: load_checkpoint(model, path), 3)
    finally:
        if os.path.exists(path):
            os.remove(path)
    return {"train.checkpoint_save_ms": save_s * MS,
            "train.checkpoint_load_ms": load_s * MS,
            "train.checkpoint_mb": size / 2**20}


def trace_train_single(w, rec, n_plain, n_traced, out_dir):
    c0 = graph_counters()
    plain = run_ops(w, 0, n_plain)
    c1 = graph_counters()
    loss_final = float(np.mean(w.losses[-10:]))
    n_obs = max(2, n_plain // 2)
    with Tracer():
        observed = run_ops(w, n_plain, n_obs)

    def traced_op(i):
        with rec.span("data.batch"):
            batch = next(w.batches)
        loss = decomposed_step(w.trainer, batch, WARMUP_OPS + i, rec)
        return BATCH, 0 if math.isfinite(loss) else BATCH

    traced = run_ops(w, n_plain + n_obs, n_traced, op=traced_op, rec=rec)
    with FlopCounter() as flops:
        decomposed_step(w.trainer, next(w.batches),
                        WARMUP_OPS + n_plain + n_obs + n_traced, Recorder())

    p50 = median(op_ms(w, plain))
    parts = {n: _ms(rec, n) for n in (
        "data.batch", "train.schedule_zero_grad", "tensor.forward",
        "core.loss_forward", "tensor.backward", "nn.optim_step")}
    compute_ms = (parts["tensor.forward"] + parts["core.loss_forward"]
                  + parts["tensor.backward"])
    metrics = _common(w, rec, plain, traced)
    metrics.update({
        "loss_final": loss_final,
        "data.batch_ms": parts["data.batch"],
        "tensor.forward_ms": parts["tensor.forward"],
        "tensor.backward_ms": parts["tensor.backward"],
        "nn.optim_step_ms": parts["nn.optim_step"],
        "train.step_overhead_ms": p50 - sum(parts.values())
        + parts["train.schedule_zero_grad"],
        "tensor.flops_per_step": flops.total,
        "tensor.achieved_gflops": flops.total / (compute_ms / MS) / 1e9,
        "nn.param_count": w.trainer.model.num_parameters(),
        "obs.tracer_on_overhead_share": median(op_ms(w, observed)) / p50 - 1.0,
        **_tape_counts(c0, c1, n_plain),
        **_micro_ops(w), **_checkpoint(w, out_dir),
    })
    return metrics, _check_decomposed(w)


# --------------------------------------------------------------------- #
# train_composite8
# --------------------------------------------------------------------- #
def _collectives(w, flat_len: int) -> dict:
    """The three collectives at flat-buffer size on a 2-rank group."""
    group = w.plan(2).cluster.group([0, 1])
    rng = np.random.default_rng(w.seed)
    padded = rng.standard_normal(flat_len).astype(np.float32).reshape(2, -1)
    shards = [padded[0].copy(), padded[1].copy()]
    return {
        "distributed.reduce_scatter_ms": timed_median(
            lambda: group.reduce_scatter([padded, padded], op="mean"),
            MICRO_REPS) * MS,
        "distributed.all_reduce_ms": timed_median(
            lambda: group.all_reduce(shards, op="mean"), MICRO_REPS) * MS,
        "distributed.all_gather_ms": timed_median(
            lambda: group.all_gather(shards), MICRO_REPS) * MS,
    }


def _compiled_tile_step(w, batch) -> dict:
    """Capture and replay of one unit's compiled tile step, on a fresh
    model so the engine's own gradients stay untouched."""
    unit = w.unit()
    spec = make_tiles(*COARSE, 2, HALO)[0]

    def fn(xt, yt):
        out = unit(extract_tile(xt, spec))
        return tile_core_loss(out, spec, FACTOR, yt, mse_loss), out

    step = CompiledStep(fn)
    x, y = batch.inputs[:1], batch.targets[:1]
    t0 = time.perf_counter()
    step(x, y)
    capture_s = time.perf_counter() - t0
    replay_s = timed_median(lambda: step(x, y), MICRO_REPS)
    step.release()
    return {"tensor.compile.capture_ms": capture_s * MS,
            "tensor.compile.replay_step_ms": replay_s * MS}


def _split_stitch_ms(n_tiles: int, seed: int) -> float:
    """``extract_tile`` per tile + ``stitch_tiles`` of model-shaped outputs."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, IN_CH, *COARSE)).astype(np.float32))
    specs = make_tiles(*COARSE, n_tiles, HALO)
    outs = [Tensor(rng.standard_normal(
        (1, len(OUT_CHANNELS), s.halo_shape[0] * FACTOR,
         s.halo_shape[1] * FACTOR)).astype(np.float32)) for s in specs]

    def call():
        with no_grad():
            for s in specs:
                extract_tile(x, s)
            stitch_tiles(outs, specs, FACTOR)
    return timed_median(call, MICRO_REPS) * MS


def trace_train_composite8(w, rec, n_plain, n_traced, out_dir):
    engine = w.trainer
    plain = run_ops(w, 0, n_plain)
    loss_final = float(np.mean(w.losses[-10:]))
    c0 = graph_counters()
    engine.reset_comm()
    strategy = engine.strategy
    strategy.forward_backward = rec.wrap("distributed.forward_backward",
                                         strategy.forward_backward)
    strategy.reduce_gradients = rec.wrap("distributed.reduce",
                                         strategy.reduce_gradients)
    engine.train_step = rec.wrap("train.step", engine.train_step)

    def traced_op(i):
        with rec.span("data.batch"):
            batch = next(w.batches)
        loss = engine.train_step(batch)
        return BATCH, 0 if math.isfinite(loss) else BATCH

    try:
        traced = run_ops(w, n_plain, n_traced, op=traced_op, rec=rec)
    finally:
        del (strategy.forward_backward, strategy.reduce_gradients,
             engine.train_step)
    c1 = graph_counters()
    comm = engine.communication_summary()

    plain_ms = op_ms(w, plain)
    p50 = median(plain_ms)
    fb, reduce_ms = (_ms(rec, "distributed.forward_backward"),
                     _ms(rec, "distributed.reduce"))
    compiled = _compiled_tile_step(w, next(w.batches))
    units = w.plan(2).tiles * w.plan(2).ddp
    metrics = _common(w, rec, plain, traced)
    metrics.update({
        "loss_final": loss_final,
        "data.batch_ms": _ms(rec, "data.batch"),
        "distributed.forward_backward_ms": fb,
        "distributed.reduce_ms": reduce_ms,
        "distributed.optim_and_overhead_ms":
            _ms(rec, "train.step") - fb - reduce_ms,
        # the engine's replay cannot be told apart from outside, so the
        # tensor share is the isolated replay time x units per step
        "tensor.self_share":
            units * compiled["tensor.compile.replay_step_ms"] / p50,
        **{f"distributed.comm_bytes_per_step.{level}":
           comm["per_step"][level] for level in ("fsdp", "tiles", "ddp")},
        "distributed.comm_calls_per_step": sum(
            n for ops in comm["calls"].values() for n in ops.values())
        / comm["steps"],
        "distributed.async_launches_per_step": sum(
            n for ops in comm["async_launches"].values()
            for n in ops.values()) / comm["steps"],
        "distributed.reshard_ms": median(s for _, s, _ in w.reshards) * MS,
        "distributed.reshard_modeled_ms":
            median(m for _, _, m in w.reshards) * MS,
        # the op that resharded also recaptured every compiled tile step
        "distributed.recapture_ms": median(
            plain_ms[i] - s * MS for i, s, _ in w.reshards) - p50,
        **_tape_counts(c0, c1, n_traced),
        "tensor.compile.captures": c1["captures"],
        "tensor.compile.guard_misses": c1["guard_misses"],
        "tensor.compile.arena_mb": c1["arena_bytes"] / 2**20,
        "nn.param_count": engine.model.num_parameters(),
        "core.tiles_split_stitch_ms": _split_stitch_ms(2, w.seed),
        **compiled,
        **_collectives(w, strategy.buffers()[0].padded_size(2)),
    })
    return metrics, []


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
def serve_counts(summaries: list[tuple]) -> dict:
    """Exact counts over every served window, and the modeled (simulated
    clock) numbers as medians over each op's first window."""
    flat = [s for op in summaries for s in op]

    def total(key):
        return sum(s.get(key, 0.0) for s in flat)

    requests, lookups = total("requests"), total("tile_hits") + total("tile_misses")
    first = [op[0] for op in summaries]
    return {
        "serve.tile_hit_rate": total("tile_hits") / lookups,
        "serve.tile_recompute_share":
            (total("tile_misses") - total("tile_coalesced")) / lookups,
        "serve.tile_coalesced_share": total("tile_coalesced") / lookups,
        "serve.batch_size_mean": sum(
            s["batches"] * s["batch_size_mean"] for s in flat)
        / max(total("batches"), 1.0),
        "serve.batches_per_request": total("batches") / requests,
        "serve.cache_evictions": total("cache_evictions") / len(summaries),
        "serve.shed_share": total("shed") / requests,
        "serve.scale_ups": total("scale_ups") / len(summaries),
        "sim_latency_p99_ms": median(s["latency_p99_s"] for s in first) * MS,
        "serve.sim_latency_p50_ms":
            median(s["latency_p50_s"] for s in first) * MS,
        "serve.sim_queue_wait_p99_ms":
            median(s["queue_wait_p99_s"] for s in first) * MS,
        "serve.sim_utilization_mean":
            median(s["utilization_mean"] for s in first),
        "serve.sim_replica_seconds":
            median(s["replica_seconds"] for s in first),
    }


def _serve_calls(w) -> dict:
    """Each public keying / cache / tiling call, on the last served
    window's own inputs (seconds per call)."""
    plan = w.service.tile_plan
    requests = w.current[0]
    xs = [r.input for r in requests[:8]]
    tiles = range(plan.n_tiles)
    runner = build_inference_runner(w.model, n_tiles=SERVE_TILES, halo=HALO,
                                    coarse_shape=COARSE, compile=True)
    tile_in = extract_tile(Tensor(xs[0][None]), plan.specs[0])
    with no_grad():
        t0 = time.perf_counter()
        out = runner.model(tile_in).data
        capture_s = time.perf_counter() - t0
        replay_s = timed_median(lambda: runner.model(tile_in), MICRO_REPS)
        eager_s = timed_median(lambda: w.model(tile_in), MICRO_REPS)
    runner.model.release()
    cores = [plan.crop_core(out, 0)] * plan.n_tiles
    assembled = plan.assemble(cores)
    regions = [plan.slice_halo(x, i) for x in xs for i in tiles]
    keys = [content_key(r) for r in regions]
    cache = TileCache(64)

    def per_call(fn, n):
        return timed_median(fn, MICRO_REPS) / n

    calls = {
        "serve.slice_halo": per_call(
            lambda: [plan.slice_halo(x, i) for x in xs for i in tiles],
            len(regions)),
        "serve.content_key": per_call(
            lambda: [content_key(r) for r in regions], len(regions)),
        "serve.tile_key": per_call(
            lambda: [plan.tile_key(i, input=x, epoch=w.service.plan_epoch)
                     for x in xs for i in tiles], len(regions)),
        "serve.cache_put": per_call(
            lambda: [cache.put(k, cores[0]) for k in keys], len(keys)),
        "serve.cache_get": per_call(
            lambda: [cache.get(k) for k in keys], len(keys)),
        "serve.crop_core": per_call(
            lambda: [plan.crop_core(out, i) for i in tiles], plan.n_tiles),
        "serve.assemble": per_call(lambda: plan.assemble(cores), 1),
        "data.denormalize": per_call(
            lambda: w.ds.target_normalizer.denormalize(assembled), 1),
        "forward_replay": replay_s,
    }
    batch = next(w.ds.batches(BATCH))
    preds = np.stack([w.reference_output(x) for x in batch.inputs])
    names = [INPUT_VARIABLES[c].name for c in OUT_CHANNELS]
    extra = {
        "tensor.compile.capture_ms": capture_s * MS,
        "tensor.compile.forward_replay_ms": replay_s * MS,
        "core.reslim_nograd_forward_ms": eager_s * MS,
        "core.tiles_split_stitch_ms": _split_stitch_ms(SERVE_TILES, w.seed),
        "train.predict_ms_per_sample": timed_median(
            lambda: w.reference_output(xs[0]), 3) * MS,
        "evals.evaluate_ms_per_sample": timed_median(
            lambda: evaluate_downscaling(preds, batch.targets_raw, names),
            3) * MS / BATCH,
    }
    return calls, extra


def trace_serve_exec(w, rec, n_plain, n_traced, out_dir):
    plain = run_ops(w, 0, n_plain)
    w.summaries = []
    w.service.run = rec.wrap("serve.run", w.service.run)
    try:
        traced = run_ops(w, n_plain, n_traced, rec=rec)
    finally:
        del w.service.run
    counts = serve_counts(w.summaries)
    calls, extra = _serve_calls(w)

    # attribution: per-call time x the number of calls the traced windows
    # made (from their summaries); the rest is the event loop, metrics
    # registry and Response bookkeeping — reported, not hidden
    flat = [s for op in w.summaries for s in op]
    requests = sum(s["requests"] for s in flat)
    lookups = sum(s["tile_hits"] + s["tile_misses"] for s in flat)
    jobs = sum(s["tile_misses"] - s["tile_coalesced"] for s in flat)
    n_tiles = w.service.tile_plan.n_tiles
    replay = jobs * calls["forward_replay"]
    attributed = (requests * n_tiles * calls["serve.tile_key"]
                  + lookups * calls["serve.cache_get"]
                  + jobs * (calls["serve.crop_core"] + calls["serve.cache_put"])
                  + requests * (calls["serve.assemble"]
                                + calls["data.denormalize"])
                  + replay)
    wall = sum(rec.durations("serve.run"))
    c = graph_counters()
    metrics = _common(w, rec, plain, traced)
    metrics.update(counts)
    metrics.update(extra)
    metrics.update({f"{k}_us": v * US for k, v in calls.items()
                    if k != "forward_replay"})
    metrics.update({
        "tensor.self_share": replay / wall,
        "serve.unattributed_share": 1.0 - attributed / wall,
        "serve.traffic_gen_us_per_request":
            w.traffic_gen_s / w.traffic_gen_requests * US,
        "tensor.compile.captures": c["captures"],
        "tensor.compile.guard_misses": c["guard_misses"],
        "tensor.compile.arena_mb": c["arena_bytes"] / 2**20,
        "nn.param_count": w.model.num_parameters(),
    })
    return metrics, []


def trace_serve_sim(w, rec, n_plain, n_traced, out_dir):
    plain = run_ops(w, 0, n_plain)
    w.summaries = []

    def timed_runs(name, factory):
        def build():
            service = factory()
            service.run = rec.wrap(name, service.run)
            return service
        return build

    w.whole_service = timed_runs("serve.sched_whole", w.whole_service)
    w.tiled_service = timed_runs("serve.sched_tiled", w.tiled_service)
    try:
        traced = run_ops(w, n_plain, n_traced, rec=rec)
    finally:
        del w.whole_service, w.tiled_service
    metrics = _common(w, rec, plain, traced)
    metrics.update(serve_counts(w.summaries))
    for k, name in enumerate(("serve.sched_whole", "serve.sched_tiled")):
        metrics[f"{name}_us_per_request"] = median(
            d / op[k]["requests"]
            for d, op in zip(rec.durations(name), w.summaries)) * US
    metrics["serve.traffic_gen_us_per_request"] = (
        w.traffic_gen_s / w.traffic_gen_requests * US)
    return metrics, []


TRACERS = {T: trace_train_single, C: trace_train_composite8,
           SC: trace_serve_exec, SW: trace_serve_exec, SS: trace_serve_sim}


def trace_pass(w, seconds: float, out_dir: str):
    """Run ``w``'s per-layer pass; returns ``(metrics, check failures)``
    and writes the Chrome trace to ``out_dir``."""
    scale = seconds / RUN_SECONDS
    n_plain, n_traced = (max(w.min_ops, round(n * scale))
                         for n in w.trace_ops)
    rec = Recorder()
    metrics, failures = TRACERS[w.name](w, rec, n_plain, n_traced, out_dir)
    rec.write_chrome(os.path.join(out_dir, f"trace_{w.name}.json"))
    return metrics, failures
