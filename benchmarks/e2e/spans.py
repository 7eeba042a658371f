"""The benchmark's own span recorder and the small statistics it reports.

``repro.obs`` is a *measured* layer here (its clock mixes wall and
modeled time), so the benchmark times calls into each layer with this
recorder instead: plain ``time.perf_counter`` spans kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from statistics import median

__all__ = ["Recorder", "timed_median"]


def timed_median(fn, reps: int, warmup: int = 1) -> float:
    """Median wall seconds of ``fn()`` over ``reps`` calls after warm-up."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


class Recorder:
    """Nested wall-clock spans: ``{name, start, end, parent, op_id}``.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``op_id`` the benchmark operation the span belongs to, so all spans
    of one train step or one served window share an identifier.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else -1,
               "op_id": self.op_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span — how the benchmark
        times a layer's public method from outside (the caller keeps
        calling the object's attribute, which now points here)."""
        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return timed

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> list[float]:
        """Per-span self time: duration minus the part its children cover.

        Children of one parent never overlap (one thread, strictly
        nested), so the covered part is the sum of their durations
        clipped to the parent's interval.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            p = s["parent"]
            if p >= 0:
                parent = self.spans[p]
                covered[p] += max(0.0, min(s["end"], parent["end"])
                                  - max(s["start"], parent["start"]))
        return [s["end"] - s["start"] - c
                for s, c in zip(self.spans, covered)]

    def self_time_by_name(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            out[s["name"]] = out.get(s["name"], 0.0) + t
        return out

    def coverage(self, root_name: str) -> float:
        """Share of the ``root_name`` spans' time covered by children."""
        total = self_t = 0.0
        for s, t in zip(self.spans, self.self_times()):
            if s["name"] == root_name:
                total += s["end"] - s["start"]
                self_t += t
        return 1.0 - self_t / total if total else 0.0

    def write_chrome(self, path) -> None:
        """Chrome ``trace_event`` JSON (open in Perfetto / chrome://tracing)."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        events = [{"name": s["name"], "ph": "X", "pid": 0, "tid": 0,
                   "ts": (s["start"] - t0) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"op_id": s["op_id"], "parent": s["parent"]}}
                  for s in self.spans]
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
