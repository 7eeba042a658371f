"""Every ``src/repro`` function has a non-test caller, or a reason.

The ``slow`` gate runs the entry inventory (:func:`_inventory`: every
paper bench, the e2e self-tests, the five examples, each e2e workload and
each CLI path a flag selects) with the profile hook of
``tests/reachability/sitecustomize.py`` installed in every process. A
function outside ``repro.testing`` that no entry point enters must be a
key of ``tests/reachability/allowlist.json``, and every key there must be
such a function: the two sets are equal. A new function with no
non-test caller therefore fails the gate until it gains one or a reason.
The gate writes ``tests/reachability/reachability.json`` (file,
qualname, body lines and class of every ``def``)::

    PYTHONPATH=src python -m pytest -m slow tests/test_reachability.py

The tier-1 test checks only the allow-list against the AST, so a stale
entry fails without running the inventory.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = ROOT / "tests" / "reachability"
ALLOWLIST = HERE / "allowlist.json"
REPORT = HERE / "reachability.json"

#: the closed set of reasons an unreached function may stay for
REASONS = {
    "reference": "a test compares an entry-reached function against it "
                 "(or it is reached only through such a reference)",
    "interface": "an abstract method, a dunder, an override of a reached "
                 "base method or the backward rule of a reached op "
                 "(deleting it changes dispatch), or reached only through "
                 "such an override",
    "inspection": "a read-only accessor tests use to observe state",
    "tensor-api": "a Tensor operator method pinned by an OpSpec",
    "deferred": "waits on the ROADMAP item named in DEFERRED",
}
#: the only functions ``deferred`` may cover, by key prefix -> ROADMAP item
DEFERRED = {
    "repro.nn.checkpoint:": "18 (activation checkpointing's first entry)",
    "repro.train.engine:DistributedEngine.save": "6 (checkpoint format)",
    "repro.train.engine:DistributedEngine.load": "6 (checkpoint format)",
    "repro.obs.tracer:Tracer.collective_async": "13 (step-path tracing)",
    "repro.obs.tracer:Tracer.complete_async": "13 (step-path tracing)",
    "repro.serve.service:DownscalingService.bump_plan_epoch":
        "8 (serve epoch bumps in the state machine)",
}
#: bench tests that assert a wall-clock bound the hook's overhead breaks
WALL_CLOCK_TESTS = {
    "benchmarks/bench_table2a_reslim_speedup.py::"
    "test_measured_speedup_and_modelled_table",
    "benchmarks/bench_table2b_compression_tiling.py::"
    "test_measured_compression_speedup_and_accuracy",
}
RUN_TIMEOUT_S = 600


@dataclass(frozen=True)
class Def:
    module: str
    qualname: str
    file: str           # relative to src/
    line: int           # first decorator's line, as ``co_firstlineno``
    name: str
    body_lines: int     # ``def`` line to the last line
    parent: str | None  # key of the enclosing ``def``

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def src_defs() -> list[Def]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    defs: list[Def] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        module = ".".join(rel.with_suffix("").parts).removesuffix(".__init__")
        _collect(ast.parse(path.read_text()), module, str(rel), "", None, defs)
    return defs


def _collect(node, module, file, prefix, parent, out) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min([child.lineno]
                       + [d.lineno for d in child.decorator_list])
            d = Def(module, prefix + child.name, file, line, child.name,
                    child.end_lineno - child.lineno + 1, parent)
            out.append(d)
            _collect(child, module, file, d.qualname + ".<locals>.", d.key,
                     out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, module, file, prefix + child.name + ".", parent,
                     out)
        else:
            _collect(child, module, file, prefix, parent, out)


def body_lines(defs: list[Def]) -> int:
    """Lines of ``defs``, a nested def counted only in its enclosing one."""
    keys = {d.key for d in defs}
    return sum(d.body_lines for d in defs if d.parent not in keys)


def load_allowlist() -> dict[str, str]:
    return json.loads(ALLOWLIST.read_text())


def test_allowlist_names_existing_defs_with_a_closed_reason():
    by_key: dict[str, list[Def]] = {}
    for d in src_defs():
        by_key.setdefault(d.key, []).append(d)
    allow = load_allowlist()
    assert list(allow) == sorted(allow), "keep allowlist.json sorted"
    stale = [k for k in allow if k not in by_key]
    assert not stale, f"allow-listed functions that no longer exist: {stale}"
    bad = {k: r for k, r in allow.items() if r not in REASONS}
    assert not bad, f"reasons outside {sorted(REASONS)}: {bad}"
    stray = [k for k, r in allow.items() if r == "deferred"
             and not any(k.startswith(p) for p in DEFERRED)]
    assert not stray, f"'deferred' is reserved for DEFERRED: {stray}"
    testing = [k for k in allow if k.startswith("repro.testing")]
    assert not testing, f"repro.testing is exempt, do not list: {testing}"


# --------------------------------------------------------------------- #
# the entry inventory
# --------------------------------------------------------------------- #
def _inventory() -> list[list[tuple[str, list[str]]]]:
    """Chains of ``(label, argv)``; a chain runs in order (its later runs
    read what the earlier ones wrote), chains run two at a time."""
    py = sys.executable
    cli = [py, "-m", "repro.cli"]
    workloads = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    chains = [
        [("paper benches", [py, "-m", "pytest", "benchmarks",
                            "--ignore=benchmarks/e2e", "--benchmark-disable",
                            "-p", "no:cacheprovider", "-rfE"])],
        [("e2e self-tests", [py, "-m", "pytest", "benchmarks/e2e",
                             "-p", "no:cacheprovider", "-rfE"])],
    ]
    chains += [[(f"example {p.name}", [py, f"examples/{p.name}"])]
               for p in sorted((ROOT / "examples").glob("*.py"))]
    chains += [[(f"e2e {w}", [py, "benchmarks/e2e/run.py", "--workload", w,
                              "--seed", "1", "--seconds", "2", "--trace", "1"])]
               for w in workloads]
    small = ["--grid", "16", "32", "--embed-dim", "16", "--depth", "1"]
    chains.append([
        ("train", cli + ["train", "--epochs", "1", *small,
                         "--output", "a.ckpt"]),
        ("train --bf16", cli + ["train", "--epochs", "1", *small, "--bf16",
                                "--output", "b.ckpt"]),
        ("evaluate", cli + ["evaluate", "a.ckpt", *small]),
    ])
    chains.append([
        ("scale", cli + ["scale"]),
        ("scale --plan", cli + ["scale", "--plan"]),
        ("plan", cli + ["plan"]),
        ("plan --diff", cli + ["plan", "--diff", "tp=2,fsdp=2,tiles=2,ddp=2",
                               "tp=2,fsdp=2,tiles=1,ddp=2"]),
        ("trace", cli + ["trace"]),
        ("trace --overlap", cli + ["trace", "--overlap"]),
        ("export", cli + ["export", "--output", "d.npz"]),
    ])
    chains.append([
        ("profile", cli + ["profile", "--quick", "--trace-out", "p.json"]),
        ("profile --compile", cli + ["profile", "--quick", "--compile",
                                     "--trace-out", "pc.json"]),
        ("profile --metrics-out", cli + ["profile", "--quick", "--trace-out",
                                         "pm.json", "--metrics-out",
                                         "pm.txt"]),
    ])
    chains.append([
        ("serve", cli + ["serve", "--duration", "5"]),
        ("serve --tiles 4", cli + ["serve", "--duration", "5", "--tiles",
                                   "4"]),
        ("serve --replicas 0", cli + ["serve", "--duration", "5",
                                      "--replicas", "0", "--tiles", "4"]),
        ("serve --execute", cli + ["serve", "--duration", "2", "--execute"]),
        ("serve --execute --compile", cli + ["serve", "--duration", "2",
                                             "--execute", "--compile"]),
        ("serve --execute --trace-out --metrics-out",
         cli + ["serve", "--duration", "2", "--execute", "--tiles", "4",
                "--trace-out", "s.json", "--metrics-out", "s.txt"]),
    ])
    from repro.obs.scenarios import INJECTIONS
    for scenario, injects in INJECTIONS.items():
        chain = [(f"monitor {scenario} {inject}",
                  cli + ["monitor", "--quick", "--scenario", scenario,
                         "--inject", inject, "--dump-out",
                         f"dump_{scenario}_{inject}.json"]
                  + (["--trace-out", f"mt_{scenario}_{inject}.json"]
                     if scenario != "serve" else []))
                 for inject in injects]
        chain += [(f"health {scenario}",
                   cli + ["health", f"dump_{scenario}_{injects[-1]}.json"])]
        chains.append(chain)
    chains[-1].insert(0, ("monitor --wall-metrics",
                          cli + ["monitor", "--quick", "--wall-metrics"]))
    return chains


def _failed_tests(output: str) -> set[str]:
    return {line.split()[1] for line in output.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def _run_chain(chain, work: Path, env: dict) -> list[str]:
    problems = []
    for label, argv in chain:
        proc = subprocess.run(argv, cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode == 0:
            continue
        failed = _failed_tests(proc.stdout)
        if argv[1:3] == ["-m", "pytest"] and failed and \
                failed <= WALL_CLOCK_TESTS:
            continue
        problems.append(f"{label} exited {proc.returncode}:\n"
                        + proc.stdout[-3000:])
    return problems


@pytest.mark.slow
def test_every_unreached_function_is_allow_listed(tmp_path):
    hook_dir = tmp_path / "hook"
    hook_dir.mkdir()
    shutil.copy(HERE / "sitecustomize.py", hook_dir)
    # the runs write results and goldens: give them a copy of the tree
    work = tmp_path / "work"
    for name in ("benchmarks", "examples"):
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns(
            "__pycache__", "out"))
    (work / "benchmarks" / "e2e" / "out").mkdir()
    for name in ("pyproject.toml", "BENCHMARK.json"):
        shutil.copy(ROOT / name, work)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(hook_dir), str(SRC)]))
    with ThreadPoolExecutor(max_workers=2) as pool:
        problems = [p for ps in pool.map(
            lambda c: _run_chain(c, work, env), _inventory()) for p in ps]
    assert not problems, "\n\n".join(problems)

    hits = set()
    for tsv in (hook_dir / "hits").glob("*.tsv"):
        for row in tsv.read_text().splitlines():
            parts = row.split("\t")
            if len(parts) == 3 and parts[1].isdigit():
                hits.add((parts[0], int(parts[1]), parts[2]))
    defs = src_defs()
    allow = load_allowlist()
    classes = {}
    for d in defs:
        if (str(SRC / d.file), d.line, d.name) in hits:
            classes[d.key] = "reached"
        elif d.module.startswith("repro.testing"):
            classes[d.key] = "testing"
        else:
            classes[d.key] = allow.get(d.key, "unlisted")
    summary = {c: {"defs": sum(1 for d in defs if classes[d.key] == c),
                   "body_lines": body_lines(
                       [d for d in defs if classes[d.key] == c])}
               for c in sorted(set(classes.values()))}
    REPORT.write_text(json.dumps({
        "summary": summary,
        "defs": [{"file": d.file, "qualname": d.qualname,
                  "body_lines": d.body_lines, "class": classes[d.key]}
                 for d in defs]}, indent=1) + "\n")

    unreached = {d.key for d in defs if classes[d.key] not in
                 ("reached", "testing")}
    unlisted = sorted(unreached - set(allow))
    reached = sorted(set(allow) - unreached)
    assert not unlisted and not reached, (
        f"no entry point reaches {unlisted}: give each a non-test caller, "
        f"delete it, or allow-list it with a reason; allow-listed but "
        f"reached (drop from allowlist.json): {reached}")
