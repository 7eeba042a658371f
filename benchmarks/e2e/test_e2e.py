"""Checks of the benchmark itself.  Not in tier-1 ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

(about a minute: it runs every workload once with ``--quick``).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from benchmarks.e2e import metrics as M
from benchmarks.e2e import run as R   # also puts src/ on sys.path
from benchmarks.e2e.compare import verdict
from benchmarks.e2e.spans import Recorder

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [w["name"] for w in M.WORKLOADS]

#: every metric ISSUE 12 names (three end-to-end ones now live in the
#: per-layer list or in the result's failed/attempted — see README)
ISSUE_METRICS = """
setup_s samples_per_s op_ms_p50 op_ms_p90 failed_share peak_rss_mb
loss_final sim_latency_p99_ms
data.build_s data.batch_ms data.denormalize_us
tensor.forward_ms tensor.backward_ms tensor.tape_nodes_per_step
tensor.bwd_new_buffers_per_step tensor.leaf_copies_per_step
tensor.flops_per_step tensor.achieved_gflops tensor.linear_fwd_bwd_ms
tensor.layernorm_fwd_bwd_ms tensor.gelu_fwd_bwd_ms tensor.conv2d_fwd_bwd_ms
tensor.bilinear_upsample_fwd_bwd_ms tensor.compile.capture_ms
tensor.compile.replay_step_ms tensor.compile.forward_replay_ms
tensor.compile.arena_mb tensor.compile.captures tensor.compile.guard_misses
nn.attention_fwd_bwd_ms nn.optim_step_ms nn.param_count
core.loss_fwd_bwd_ms core.tiles_split_stitch_ms core.reslim_nograd_forward_ms
distributed.forward_backward_ms distributed.reduce_ms
distributed.optim_and_overhead_ms distributed.comm_bytes_per_step.fsdp
distributed.comm_bytes_per_step.tiles distributed.comm_bytes_per_step.ddp
distributed.comm_calls_per_step distributed.async_launches_per_step
distributed.all_reduce_ms distributed.reduce_scatter_ms
distributed.all_gather_ms distributed.reshard_ms
distributed.reshard_modeled_ms distributed.recapture_ms
train.step_overhead_ms train.checkpoint_save_ms train.checkpoint_load_ms
train.checkpoint_mb train.predict_ms_per_sample evals.evaluate_ms_per_sample
serve.content_key_us serve.tile_key_us serve.cache_get_us serve.cache_put_us
serve.slice_halo_us serve.crop_core_us serve.assemble_us
serve.traffic_gen_us_per_request serve.sched_whole_us_per_request
serve.sched_tiled_us_per_request serve.tile_hit_rate
serve.tile_recompute_share serve.tile_coalesced_share serve.batch_size_mean
serve.batches_per_request serve.cache_evictions serve.shed_share
serve.scale_ups serve.sim_latency_p50_ms serve.sim_queue_wait_p99_ms
serve.sim_utilization_mean serve.sim_replica_seconds
serve.unattributed_share obs.tracer_on_overhead_share
bench.trace_overhead_share
""".split()


# --------------------------------------------------------------------- #
# the spec
# --------------------------------------------------------------------- #
def test_benchmark_json_matches_registry_and_validates():
    spec = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    assert spec == M.benchmark_spec(), "run: run.py --write-spec"
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len((R.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_metric_has_unit_tag_and_a_valid_prediction():
    for m in M.END_TO_END:
        assert m["unit"] and m["tag"] == "measured" and m["definition"]
    for m in M.PER_LAYER:
        assert m["tag"] in ("measured", "modeled", "count")
        assert m["workloads"] and set(m["workloads"]) <= set(WORKLOAD_NAMES)
        for move in m["moves"]:
            metric, workload = move.split("@")
            assert metric in M.END_TO_END_NAMES
            # a layer can only move a workload on which it runs
            assert workload in m["workloads"], (m["name"], move)


def test_issue_metrics_are_all_registered():
    registered = set(M.END_TO_END_NAMES) | set(M.PER_LAYER_NAMES)
    assert not set(ISSUE_METRICS) - registered


# --------------------------------------------------------------------- #
# spans and the comparison rule
# --------------------------------------------------------------------- #
def test_span_self_time_arithmetic():
    rec = Recorder()

    def add(name, start, end, parent):
        rec.spans.append({"name": name, "start": start, "end": end,
                          "parent": parent, "op_id": 0})

    add("op", 0.0, 10.0, -1)
    add("tensor.forward", 1.0, 4.0, 0)
    add("tensor.backward", 4.0, 9.0, 0)
    add("inner", 5.0, 6.0, 2)
    assert rec.self_times() == [2.0, 3.0, 4.0, 1.0]
    assert rec.self_time_by_name()["tensor.backward"] == 4.0
    assert rec.coverage("op") == pytest.approx(0.8)
    assert rec.durations("inner") == [1.0]


def test_recorder_nests_and_wraps():
    rec = Recorder()
    double = rec.wrap("layer.call", lambda x: 2 * x)
    with rec.span("op"):
        assert double(21) == 42
    op, call = rec.spans
    assert call["parent"] == 0 and op["parent"] == -1
    assert op["start"] <= call["start"] <= call["end"] <= op["end"]


def test_compare_verdicts():
    base = [100 + 0.1 * k for k in range(10)]
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.1)[0] == "win"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] == "REGRESSED"
    assert verdict(base, [x * 1.01 for x in base], "lower", 0.1)[0] == "same"
    noisy = [100, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert verdict(base, [x * 1.2 for x in base], "higher", 0.1)[0] == "win"


# --------------------------------------------------------------------- #
# inputs and a quick end-to-end run
# --------------------------------------------------------------------- #
def test_same_seed_same_inputs():
    from benchmarks.e2e import workloads as W

    def first_batch(seed):
        return next(W.batch_stream(W.build_dataset(seed), seed))

    a, b, other = first_batch(3), first_batch(3), first_batch(4)
    assert np.array_equal(a.inputs, b.inputs) and a.keys == b.keys
    assert not np.array_equal(a.inputs, other.inputs)

    def exec_window(seed):
        w = W.ServeExecCold(seed)
        w.base = first_batch(seed).inputs[0]
        return w.traffic(0)[0]

    r1, r2 = exec_window(3), exec_window(3)
    assert [(r.rid, r.arrival_s, r.tile_versions) for r in r1] == \
           [(r.rid, r.arrival_s, r.tile_versions) for r in r2]
    assert all(np.array_equal(p.input, q.input) for p, q in zip(r1, r2))
    assert W.ServeSim(3).traffic(0) == W.ServeSim(3).traffic(0)
    assert W.ServeSim(3).traffic(0) != W.ServeSim(4).traffic(0)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_quick_run_emits_every_metric(workload):
    e2e = R.run_workload(workload, seed=5, seconds=1.0, trace=0, quick=True)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert list(e2e["metrics"]) == M.END_TO_END_NAMES
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in e2e["metrics"].values())

    layers = R.run_workload(workload, seed=5, seconds=1.0, trace=1, quick=True)
    assert layers["correct"] and layers["failed"] == 0
    assert list(layers["metrics"]) == M.PER_LAYER_NAMES
    for m in M.PER_LAYER:
        value = layers["metrics"][m["name"]]["value"]
        assert math.isfinite(value), m["name"]
        if workload not in m["workloads"]:
            assert value == 0.0, f"{m['name']} is not measured on {workload}"
        elif m["tag"] == "measured" and m["unit"] in ("ms", "us", "s") \
                and not m["name"].endswith(("overhead_ms", "recapture_ms")):
            assert value > 0.0, m["name"]
    assert (R.OUT_DIR / f"trace_{workload}.json").exists()
    share = layers["metrics"]["tensor.self_share"]["value"]
    if workload == M.SS:
        assert share == 0.0
    if workload == M.T:
        assert layers["metrics"]["bench.span_coverage_share"]["value"] >= 0.95
