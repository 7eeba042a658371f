"""The metric registry: every name the benchmark emits, in one table.

``BENCHMARK.json`` (repo root) is generated from this module by
``python3 benchmarks/e2e/run.py --write-spec``.  Its schema is fixed by the
driver and has no room for the ``measured|modeled|count`` tag or for
"which end-to-end metric should this layer metric move, on which
workload", so those live here and ``test_e2e.py`` checks the two stay in
step.  ``measured`` durations and rates are wall-clock at reference speed
(see ``run.py``); ``modeled`` is the simulated Frontier clock; ``count``
repeats exactly for a seed.
"""

from __future__ import annotations

T, C, SC, SW, SS = ("train_single", "train_composite8", "serve_exec_cold",
                    "serve_exec_warm", "serve_sim")
TRAIN, EXEC, SERVE, ALL = (T, C), (SC, SW), (SC, SW, SS), (T, C, SC, SW, SS)

RUN_SECONDS = 12

WORKLOADS = [
    {"name": T, "why": "Eager Trainer.train_step on one process: tensor, nn "
     "and core do almost all the work; distributed and serve are bypassed. "
     "Engine and kernel changes show here."},
    {"name": C, "why": "DistributedEngine on CompositePlan(fsdp=2,tiles=2,"
     "ddp=2), overlap+compile, with a replan 8->4->8: distributed does the "
     "distinguishing work and tensor runs as dispatch-bound compiled replay."},
    {"name": SC, "why": "Executed tile serving, rolling traffic with about "
     "half the tiles recomputed: forward-only compiled replay dominates, "
     "serve.* is a small share. Cache and hash changes should not move it."},
    {"name": SW, "why": "Same service at 400 rps with rare tile updates: "
     "under 1% recomputed, so hashing, TileCache, assemble, denormalize and "
     "the event loop do the work. Cache/hash/tiling changes show here."},
    {"name": SS, "why": "Latency-only scheduler (model=None): a burst window "
     "through run() and a rolling window through the tiled loop. tensor is "
     "bypassed; guards both copies of the event loop."},
]

def _e(name, unit, better, bound, definition):
    return {"name": name, "unit": unit, "better": better, "bound": bound,
            "tag": "measured", "definition": definition}


END_TO_END = [
    _e("setup_s", "s", "lower", 0.25,
       "imports, dataset build + normalizer fit, model and engine/service "
       "build, pre-generated traffic, warm-up ops and compile capture; "
       "median over the run's worker processes"),
    _e("samples_per_s", "1/s", "higher", 0.20,
       "train samples (or served requests) divided by the summed op wall "
       "time"),
    _e("op_ms_p50", "ms", "lower", 0.20,
       "median op wall time: per train step (batch fetch + train_step), or "
       "window wall time per request for serve"),
    _e("op_ms_p90", "ms", "lower", 0.25, "p90 of the same op population"),
    _e("peak_rss_mb", "MB", "lower", 0.10,
       "ru_maxrss of the workload process; median over worker processes"),
]


def _m(name, unit, better, tag, where, *moves):
    return {"name": name, "unit": unit, "better": better, "tag": tag,
            "workloads": tuple(where), "moves": tuple(moves)}


def _on(metric, *workloads):
    return tuple(f"{metric}@{w}" for w in workloads)


_KEYING = _on("op_ms_p50", SW)

#: every per-layer metric: where it is measured (0 elsewhere: the layer is
#: bypassed there) and which end-to-end metric it should move, where.
#: An empty ``moves`` means "diagnostic: predicted to move nothing alone".
PER_LAYER = [
    # ---- demoted from end-to-end (see README: they are workload-specific
    # and exact, so the driver's every-workload / spread rules do not fit)
    _m("loss_final", "loss", "lower", "count", TRAIN),
    _m("sim_latency_p99_ms", "ms", "lower", "modeled", SERVE),
    _m("failed_share", "ratio", "lower", "count", ALL),
    # ---- data
    _m("data.build_s", "s", "lower", "measured", (T, C, SC, SW),
       *_on("setup_s", T, C, SC, SW)),
    _m("data.batch_ms", "ms", "lower", "measured", TRAIN,
       *_on("samples_per_s", T)),
    _m("data.denormalize_us", "us", "lower", "measured", EXEC, *_KEYING),
    # ---- tensor
    _m("tensor.forward_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("tensor.backward_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("tensor.self_share", "ratio", "higher", "measured", ALL),
    _m("tensor.tape_nodes_per_step", "count", "lower", "count", TRAIN),
    _m("tensor.bwd_new_buffers_per_step", "count", "lower", "count", TRAIN),
    _m("tensor.leaf_copies_per_step", "count", "lower", "count", TRAIN),
    _m("tensor.flops_per_step", "flop", "lower", "count", (T,)),
    _m("tensor.achieved_gflops", "gflop/s", "higher", "measured", (T,)),
    *[_m(f"tensor.{op}_fwd_bwd_ms", "ms", "lower", "measured", (T,),
         *_on("op_ms_p50", T))
      for op in ("linear", "layernorm", "gelu", "conv2d",
                 "bilinear_upsample")],
    _m("tensor.compile.capture_ms", "ms", "lower", "measured", (C, SC, SW),
       *_on("setup_s", C, SC)),
    _m("tensor.compile.replay_step_ms", "ms", "lower", "measured", (C,),
       *_on("op_ms_p50", C)),
    _m("tensor.compile.forward_replay_ms", "ms", "lower", "measured", EXEC,
       *_on("op_ms_p50", SC)),
    _m("tensor.compile.arena_mb", "MB", "lower", "count", (C, SC, SW),
       *_on("peak_rss_mb", C, SC)),
    _m("tensor.compile.captures", "count", "lower", "count", (C, SC, SW)),
    _m("tensor.compile.guard_misses", "count", "lower", "count", (C, SC, SW)),
    # ---- nn
    _m("nn.attention_fwd_bwd_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("nn.optim_step_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("nn.param_count", "count", "lower", "count", (T, C, SC, SW)),
    # ---- core
    _m("core.loss_fwd_bwd_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("core.tiles_split_stitch_ms", "ms", "lower", "measured", (C, SC, SW),
       *_on("op_ms_p50", C, SC)),
    _m("core.reslim_nograd_forward_ms", "ms", "lower", "measured", EXEC),
    # ---- distributed (all on train_composite8)
    *[_m(f"distributed.{n}", "ms", "lower", "measured", (C,),
         *_on("op_ms_p50", C))
      for n in ("forward_backward_ms", "reduce_ms", "optim_and_overhead_ms")],
    *[_m(f"distributed.{n}", unit, "lower", "count", (C,))
      for n, unit in (("comm_bytes_per_step.fsdp", "bytes"),
                      ("comm_bytes_per_step.tiles", "bytes"),
                      ("comm_bytes_per_step.ddp", "bytes"),
                      ("comm_calls_per_step", "count"),
                      ("async_launches_per_step", "count"))],
    *[_m(f"distributed.{n}", "ms", "lower", "measured", (C,))
      for n in ("all_reduce_ms", "reduce_scatter_ms", "all_gather_ms")],
    _m("distributed.reshard_ms", "ms", "lower", "measured", (C,),
       *_on("op_ms_p90", C)),
    _m("distributed.reshard_modeled_ms", "ms", "lower", "modeled", (C,)),
    _m("distributed.recapture_ms", "ms", "lower", "measured", (C,),
       *_on("op_ms_p90", C)),
    # ---- train
    _m("train.step_overhead_ms", "ms", "lower", "measured", (T,),
       *_on("op_ms_p50", T)),
    _m("train.checkpoint_save_ms", "ms", "lower", "measured", (T,)),
    _m("train.checkpoint_load_ms", "ms", "lower", "measured", (T,)),
    _m("train.checkpoint_mb", "MB", "lower", "count", (T,)),
    _m("train.predict_ms_per_sample", "ms", "lower", "measured", EXEC),
    # ---- evals
    _m("evals.evaluate_ms_per_sample", "ms", "lower", "measured", EXEC),
    # ---- serve
    *[_m(f"serve.{n}_us", "us", "lower", "measured", EXEC, *_KEYING)
      for n in ("content_key", "tile_key", "cache_get", "cache_put",
                "slice_halo", "crop_core", "assemble")],
    _m("serve.traffic_gen_us_per_request", "us", "lower", "measured", SERVE,
       *_on("setup_s", *SERVE)),
    _m("serve.sched_whole_us_per_request", "us", "lower", "measured", (SS,),
       *_on("samples_per_s", SS)),
    _m("serve.sched_tiled_us_per_request", "us", "lower", "measured", (SS,),
       *_on("samples_per_s", SS)),
    _m("serve.tile_hit_rate", "ratio", "higher", "count", SERVE),
    _m("serve.tile_recompute_share", "ratio", "lower", "count", SERVE),
    _m("serve.tile_coalesced_share", "ratio", "higher", "count", SERVE),
    _m("serve.batch_size_mean", "count", "higher", "count", SERVE),
    _m("serve.batches_per_request", "ratio", "lower", "count", SERVE),
    _m("serve.cache_evictions", "count", "lower", "count", SERVE),
    _m("serve.shed_share", "ratio", "lower", "count", SERVE),
    _m("serve.scale_ups", "count", "lower", "count", (SS,)),
    _m("serve.sim_latency_p50_ms", "ms", "lower", "modeled", SERVE),
    _m("serve.sim_queue_wait_p99_ms", "ms", "lower", "modeled", SERVE),
    _m("serve.sim_utilization_mean", "ratio", "higher", "modeled", SERVE),
    _m("serve.sim_replica_seconds", "s", "lower", "modeled", SERVE),
    _m("serve.unattributed_share", "ratio", "lower", "measured", EXEC),
    # ---- obs / the benchmark itself
    _m("obs.tracer_on_overhead_share", "ratio", "lower", "measured", (T,)),
    _m("bench.trace_overhead_share", "ratio", "lower", "measured", ALL),
    _m("bench.span_coverage_share", "ratio", "higher", "measured", ALL),
    _m("bench.speed_factor", "ratio", "lower", "measured", ALL),
]

PER_LAYER_NAMES = [m["name"] for m in PER_LAYER]
END_TO_END_NAMES = [m["name"] for m in END_TO_END]


def benchmark_spec() -> dict:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }
