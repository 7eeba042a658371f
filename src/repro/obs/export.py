"""Exporters: Chrome ``trace_event`` JSON, coverage check, summary tables.

The Chrome format is the profiler lingua franca — the emitted file loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
Each virtual rank becomes one ``tid`` so the per-rank timelines stack as
named tracks; complete events (``ph: "X"``) carry microsecond start and
duration plus the span's args (op, bytes, modeled flag, ...).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .tracer import Span

__all__ = ["chrome_trace", "write_chrome_trace", "span_coverage",
           "summary_table", "step_summary"]


def chrome_trace(spans: Iterable[Span], alerts: Iterable = ()) -> dict:
    """Spans -> Chrome ``trace_event`` document (JSON-ready dict).

    Single-stream traces map one rank to one ``tid``.  When any span
    carries a non-default ``stream`` (async collectives on the comm
    stream), each rank gets **two** tracks — ``tid = 2·rank`` for
    compute and ``2·rank + 1`` for comm — so overlap is visible as
    parallel bars in Perfetto.

    ``alerts`` (``repro.obs.monitor.Alert`` records or their dicts) are
    annotated as process-scoped instant events (``ph: "i"``) named
    ``alert/<rule>``, so rule firings show as markers on the same
    timeline as the spans that caused them.
    """
    spans = list(spans)
    two_stream = any(getattr(sp, "stream", "main") != "main" for sp in spans)

    def tid(sp: Span) -> int:
        if not two_stream:
            return sp.rank
        return 2 * sp.rank + (1 if getattr(sp, "stream", "main") == "comm" else 0)

    events: list[dict] = []
    ranks: set[int] = set()
    for sp in spans:
        ranks.add(sp.rank)
        events.append({
            "ph": "X",
            "name": sp.name,
            "cat": sp.cat,
            "pid": 0,
            "tid": tid(sp),
            "ts": sp.start_s * 1e6,
            "dur": sp.dur_s * 1e6,
            "args": sp.args,
        })
    for alert in alerts:
        a = alert if isinstance(alert, dict) else alert.as_dict()
        events.append({
            "ph": "i", "s": "p",
            "name": f"alert/{a['rule']}",
            "cat": "alert",
            "pid": 0, "tid": 0,
            "ts": a["t"] * 1e6,
            "args": {"metric": a["metric"], "value": a["value"],
                     "severity": a["severity"], **a.get("detail", {})},
        })
    meta = [{"ph": "M", "name": "process_name", "pid": 0,
             "args": {"name": "repro (virtual cluster)"}}]
    if two_stream:
        for r in sorted(ranks):
            meta.append({"ph": "M", "name": "thread_name", "pid": 0,
                         "tid": 2 * r, "args": {"name": f"rank {r} compute"}})
            meta.append({"ph": "M", "name": "thread_name", "pid": 0,
                         "tid": 2 * r + 1, "args": {"name": f"rank {r} comm"}})
    else:
        meta += [{"ph": "M", "name": "thread_name", "pid": 0, "tid": r,
                  "args": {"name": f"rank {r}"}} for r in sorted(ranks)]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, spans: Iterable[Span],
                       alerts: Iterable = ()) -> Path:
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans, alerts=alerts), indent=1)
                    + "\n")
    return path


def span_coverage(spans: Iterable[Span], root: str, rank: int = 0) -> float:
    """Fraction of the ``root`` span's duration covered by its children.

    Children are the spans one nesting level deeper that fall inside the
    root's window; their durations are clipped to the window and merged
    as intervals, so overlapping children don't double-count.
    """
    spans = [sp for sp in spans if sp.rank == rank]
    roots = [sp for sp in spans if sp.name == root]
    if not roots or sum(sp.dur_s for sp in roots) == 0:
        return 0.0
    covered = total = 0.0
    for rt in roots:
        total += rt.dur_s
        windows = sorted(
            (max(sp.start_s, rt.start_s), min(sp.end_s, rt.end_s))
            for sp in spans
            if sp.depth == rt.depth + 1
            and sp.start_s < rt.end_s and sp.end_s > rt.start_s
        )
        last_end = rt.start_s
        for lo, hi in windows:
            lo = max(lo, last_end)
            if hi > lo:
                covered += hi - lo
                last_end = hi
    return covered / total


def summary_table(spans: Iterable[Span]) -> str:
    """Aggregate spans by name: calls, total/mean duration, share of rank-0 root."""
    agg: dict[str, list[float]] = {}
    order: list[str] = []
    for sp in spans:
        if sp.name not in agg:
            agg[sp.name] = [0, 0.0]
            order.append(sp.name)
        agg[sp.name][0] += 1
        agg[sp.name][1] += sp.dur_s
    rank0 = [sp for sp in spans if sp.rank == 0 and sp.depth == 0]
    root_total = sum(sp.dur_s for sp in rank0)
    name_w = max([len(n) for n in agg], default=4)
    lines = [f"{'span':<{name_w}s} {'calls':>6s} {'total_ms':>10s} "
             f"{'mean_ms':>10s} {'share':>7s}"]
    for name in order:
        calls, tot = agg[name]
        share = tot / root_total if root_total else 0.0
        lines.append(f"{name:<{name_w}s} {int(calls):>6d} {tot * 1e3:>10.3f} "
                     f"{tot / calls * 1e3:>10.3f} {share:>6.1%}")
    return "\n".join(lines) + "\n"


def step_summary(tracer) -> dict:
    """Headline per-step numbers (JSON-ready) from a finished tracer."""
    m = tracer.metrics
    steps = m.histograms.get("train/step_s")
    flops = sum(v for k, v in m.counters.items()
                if k.startswith("engine/") and k.endswith("/flops"))
    comm_bytes = sum(v for k, v in m.counters.items()
                     if k.startswith("comm/") and k.endswith("/bytes"))
    out = {
        "steps": steps.count if steps else 0,
        "step_s_mean": steps.mean if steps else 0.0,
        "engine_flops": flops,
        "comm_bytes": comm_bytes,
        "comm_modeled_s": m.counters.get("comm/modeled_time_s", 0.0),
        "tape_bytes_hwm": m.gauges.get("mem/tape_bytes_hwm", 0.0),
    }
    tput = m.histograms.get("train/samples_per_s")
    if tput:
        out["samples_per_s"] = tput.mean
    if steps and steps.mean > 0:
        out["flops_per_s"] = flops / max(steps.count, 1) / steps.mean
    return out
