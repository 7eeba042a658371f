"""One end-to-end benchmark: five workloads, per-layer attribution.

Driver contract (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds N --trace 0|1

prints, as the last stdout line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` — and exits
non-zero if any output check failed.

Without ``--workload`` it runs every workload (untraced, then traced),
prints every metric by name with its unit and tag, and writes
``out/result.json``::

    python3 benchmarks/e2e/run.py --seed S [--quick]

Timings are reported **at reference speed**: this sandbox's speed drifts
by tens of percent over minutes, so every run samples a fixed calibration
kernel before each op (outside the clock) and divides its measured times
by ``median sample / REFERENCE_CALIBRATION_S``.  The raw wall-clock
numbers and the factor are kept in ``out/result_*.json``.

A workload never runs in this process.  Each ``--trace 0`` run starts
``WORKERS`` fresh interpreters one after another; each sets up from
scratch and measures a share of ``--seconds``.  ``setup_s`` and
``peak_rss_mb`` are medians over them, the op-time population is pooled.
BLAS/OMP threads are pinned to 1 before numpy is imported, so the single
load-generating process uses one thread (``nproc`` is 2 on the reference
box).
"""

from __future__ import annotations

import time

T_PROCESS_START = time.perf_counter()   # set-up time counts the imports

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from benchmarks.e2e import metrics as M                       # noqa: E402

OUT_DIR = HERE / "out"
WORKERS = 3                 # fresh interpreters per untraced run
WORKER_TIMEOUT_S = 150      # the driver allows 180 s per run
#: median ``workloads.calibrate()`` sample on the reference box at its
#: usual speed; a run whose samples read twice this ran at half speed
REFERENCE_CALIBRATION_S = 8.0e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# --------------------------------------------------------------------- #
# worker: one fresh interpreter, one workload
# --------------------------------------------------------------------- #
def worker(args) -> int:
    for var in THREAD_VARS:          # before numpy is imported
        os.environ[var] = "1"
    from benchmarks.e2e import workloads as W
    w = W.WORKLOAD_CLASSES[args.workload](args.seed, quick=args.quick)
    w.setup()
    setup_s = time.perf_counter() - T_PROCESS_START
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        from benchmarks.e2e.layers import trace_pass
        layer_metrics, failures = trace_pass(w, args.seconds, str(OUT_DIR))
        out = {"metrics": layer_metrics}
    else:
        times = W.run_ops(w, 0, w.min_ops, budget_s=args.seconds)
        failures = []
        out = {"op_ms": W.op_ms(w, times), "op_s": sum(t for t, _ in times)}
    failures += w.check()
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    out.update(setup_s=setup_s, attempted=w.attempted,
               calibration=w.calibration,
               failed=w.failed + len(failures),
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    # run() kills and reaps the child on timeout, so none outlives us
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S / (1 if trace else WORKERS))
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# parent: aggregate workers into the driver's result object
# --------------------------------------------------------------------- #
def at_reference_speed(value: float, unit: str, tag: str,
                       factor: float) -> float:
    """A measured duration or rate as it would read at reference speed."""
    if tag != "measured":
        return value
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit in ("1/s", "gflop/s"):
        return value * factor
    return value            # shares, counts, MB


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False) -> dict:
    """One driver run.  Returns the result object plus a ``meta`` key."""
    load_start = os.getloadavg()[0]
    if trace:
        out = spawn_worker(workload, seed, seconds, 1, quick)
        values = {name: float(out["metrics"].get(name, 0.0))
                  for name in M.PER_LAYER_NAMES}
        unknown = set(out["metrics"]) - set(values)
        if unknown:
            raise RuntimeError(f"unregistered metrics: {sorted(unknown)}")
        outs = [out]
    else:
        n = 1 if quick else WORKERS
        outs = [spawn_worker(workload, seed, seconds / n, 0, quick)
                for _ in range(n)]
        pooled = [ms for o in outs for ms in o["op_ms"]]
        values = {
            "setup_s": median(o["setup_s"] for o in outs),
            "samples_per_s": sum(o["attempted"] for o in outs)
            / sum(o["op_s"] for o in outs),
            "op_ms_p50": median(pooled),
            "op_ms_p90": quantiles(pooled, n=10, method="inclusive")[-1],
            "peak_rss_mb": median(o["rss_mb"] for o in outs),
        }
    units = {m["name"]: (m["unit"], m["tag"])
             for m in M.END_TO_END + M.PER_LAYER}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    factor = (median(s for o in outs for s in o["calibration"])
              / REFERENCE_CALIBRATION_S)
    if trace:
        values["bench.speed_factor"] = factor
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": at_reference_speed(v, *units[k], factor),
                        "unit": units[k][0]} for k, v in values.items()},
        "meta": {"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": trace, "load_avg_start": load_start,
                 "speed_factor": factor, "wall_clock": values,
                 "n_ops": sum(len(o.get("op_ms", ())) for o in outs),
                 "setup_s_each": [o["setup_s"] for o in outs]},
    }


def environment() -> dict:
    """Where the numbers came from: commit, versions, cores, load."""
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass   # older numpy: show_config() only prints
    return {"commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "nproc": os.cpu_count(),
            "threads_per_process": 1, "load_avg": os.getloadavg()[0],
            "platform": platform.platform()}


def run_all(seed: int, seconds: float, quick: bool) -> int:
    """Every workload, untraced then traced; one table; ``out/result.json``."""
    tags = {m["name"]: m["tag"] for m in M.END_TO_END + M.PER_LAYER}
    measured_on = {m["name"]: m["workloads"] for m in M.PER_LAYER}
    doc = {"schema": "e2e/v1", "environment": environment(), "seed": seed,
           "quick": quick, "workloads": {}}
    correct = True
    for spec in M.WORKLOADS:
        name = spec["name"]
        passes = [run_workload(name, seed, seconds, trace, quick)
                  for trace in (0, 1)]
        doc["workloads"][name] = {"end_to_end": passes[0],
                                  "per_layer": passes[1]}
        ok = all(p["correct"] for p in passes)
        correct = correct and ok
        print(f"\n== {name}: {'ok' if ok else 'FAILED'}  "
              f"(n_ops {passes[0]['meta']['n_ops']}, "
              f"failed {passes[0]['failed']}/{passes[0]['attempted']})")
        for result in passes:
            for metric, entry in result["metrics"].items():
                if name in measured_on.get(metric, (name,)):
                    print(f"  {metric:<42s} {entry['value']:>16.6g} "
                          f"{entry['unit']:<8s} {tags[metric]}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "result.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {path}" + ("" if correct else "  (OUTPUT CHECKS FAILED)"))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in M.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="about a tenth of the ops, one worker (test_e2e.py)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-spec", action="store_true",
                    help="regenerate BENCHMARK.json from metrics.py")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(M.RUN_SECONDS)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(M.benchmark_spec(), indent=2) + "\n")
        return 0
    if args.worker:
        return worker(args)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.quick)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.quick)
    meta = result.pop("meta")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({"environment": environment(), "meta": meta, **result},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
