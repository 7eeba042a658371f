"""Compare two sets of benchmark runs by the paired-runs rule.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file holds ``{"runs": [{workload: {metric: value}}, ...]}``; run
``k`` of one file is paired with run ``k`` of the other.  Make the files
with ``--collect``, which runs the two checkouts' own benchmark in
pairs, alternating which side goes first so drift hits both equally::

    python3 benchmarks/e2e/compare.py --collect PARENT_DIR CHANGE_DIR \\
        [--pairs 10] [--seed 0] [--workloads a,b]

Verdict per end-to-end metric and workload (choosing-metrics §8):

* ``win``        — the change is better in at least 9/10 of the pairs
  (ties count for neither) and the medians differ by more than the
  parent's own inter-quartile spread;
* ``REGRESSED``  — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's spread (IQR / median) exceeds the bound,
  so "no regression" cannot be shown — unless every run of the change
  beats every run of the parent;
* ``same``       — none of the above.

Prints one row per workload; exits non-zero on any ``REGRESSED``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import metrics as M   # noqa: E402

MIN_WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, relative change of the median)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    iqr = q[2] - q[0]
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (med_c - med_p)
    delta = (med_c - med_p) / med_p
    if wins >= MIN_WIN_SHARE * len(pairs) and gain > iqr:
        return "win", delta
    if -gain > bound * abs(med_p):
        return "REGRESSED", delta
    if iqr > bound * abs(med_p):
        clean = (min(change) > max(parent) if better == "higher"
                 else max(change) < min(parent))
        return ("same" if clean else "unresolved"), delta
    return "same", delta


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """One row per workload: ``{workload, cells: {metric: (verdict, Δ)}}``."""
    n = min(len(parent_runs), len(change_runs))
    rows = []
    for spec in M.WORKLOADS:
        name = spec["name"]
        if not all(name in r for r in parent_runs[:n] + change_runs[:n]):
            continue
        cells = {}
        for m in M.END_TO_END:
            cells[m["name"]] = verdict(
                [r[name][m["name"]] for r in parent_runs[:n]],
                [r[name][m["name"]] for r in change_runs[:n]],
                m["better"], m["bound"])
        rows.append({"workload": name, "pairs": n, "cells": cells})
    return rows


def render(rows: list[dict]) -> list[str]:
    return [f"{row['workload']:<17s} n={row['pairs']:<3d} " + " | ".join(
        f"{metric} {delta:+.1%} {v}"
        for metric, (v, delta) in row["cells"].items()) for row in rows]


# --------------------------------------------------------------------- #
def _run_once(checkout: Path, workload: str, seed: int) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def collect(parent: Path, change: Path, pairs: int, seed: int,
            workloads: list[str], out_dir: Path) -> tuple[Path, Path]:
    sides = {"parent": (parent, []), "change": (change, [])}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        runs = {side: {} for side in order}
        for workload in workloads:
            for side in order:
                runs[side][workload] = _run_once(sides[side][0], workload,
                                                 seed + k)
        for side in order:
            sides[side][1].append(runs[side])
        print(f"pair {k + 1}/{pairs} done ({' then '.join(order)})",
              file=sys.stderr)
    out_dir.mkdir(exist_ok=True)
    paths = []
    for side, (_checkout, runs) in sides.items():
        path = out_dir / f"pairs_{side}.json"
        path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
        paths.append(path)
    return tuple(paths)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="PARENT.json, or a checkout with --collect")
    ap.add_argument("change", help="CHANGE.json, or a checkout with --collect")
    ap.add_argument("--collect", action="store_true")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in M.WORKLOADS))
    args = ap.parse_args(argv)
    parent, change = Path(args.parent), Path(args.change)
    if args.collect:
        parent, change = collect(parent.resolve(), change.resolve(),
                                 args.pairs, args.seed,
                                 args.workloads.split(","), HERE / "out")
    rows = compare(json.loads(parent.read_text())["runs"],
                   json.loads(change.read_text())["runs"])
    for line in render(rows):
        print(line)
    regressed = any(v == "REGRESSED" for row in rows
                    for v, _ in row["cells"].values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
