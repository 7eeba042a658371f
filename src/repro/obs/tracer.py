"""Hierarchical span tracer on the simulated clock.

The tracer is the heart of :mod:`repro.obs`: a stack of named spans per
virtual rank, timestamped by a :class:`~repro.obs.clock.SimClock` — wall
time for real NumPy work, modeled ring time for collectives on the
virtual cluster.  Usage:

>>> from repro.obs import Tracer, span
>>> with Tracer() as tr:
...     with span("train/step"):
...         with span("train/forward"):
...             ...
>>> tr.export_chrome("trace.json")

Instrumentation sites call the module-level :func:`span`; when no tracer
is installed it returns one shared no-op context manager, so the
disabled cost is a thread-local read and an identity check — the <3%
overhead budget ``tests/obs/test_overhead.py`` enforces.  Installing a
tracer (the context manager) also installs the autograd op hook (see
:mod:`repro.obs.engine`), so per-op FLOP/byte metrics accumulate for
every tape node recorded inside the ``with`` block.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterable

from .clock import SimClock
from .metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "active_tracer", "span"]

_state = threading.local()


def active_tracer() -> "Tracer | None":
    """The tracer installed on this thread, or None (tracing disabled)."""
    return getattr(_state, "tracer", None)


#: one shared, reentrant no-op context manager — the disabled fast path
_DISABLED = contextlib.nullcontext()


def span(name: str, cat: str = "app", rank: int = 0, **args):
    """Open a span on the active tracer; no-op when tracing is disabled.

    Yields the :class:`Span` (mutable — callers may attach result args
    before exit) or ``None`` when disabled.
    """
    tracer = getattr(_state, "tracer", None)
    if tracer is None:
        return _DISABLED
    return tracer.span(name, cat=cat, rank=rank, **args)


@dataclass
class Span:
    """One timed region on one rank's timeline.

    ``depth`` is the nesting level at open time; Chrome/Perfetto infer
    the tree from (rank, start, dur), ``depth`` lets exporters and the
    coverage check do the same without re-deriving containment.

    ``stream`` selects the per-rank track: ``"main"`` (compute, the
    default) or ``"comm"`` for collectives launched asynchronously —
    the exporter renders a second Perfetto track per rank whenever any
    span left the main stream.
    """

    name: str
    cat: str = "app"
    rank: int = 0
    start_s: float = 0.0
    dur_s: float = 0.0
    depth: int = 0
    args: dict = field(default_factory=dict)
    stream: str = "main"

    @property
    def end_s(self) -> float:
        return self.start_s + self.dur_s


class Tracer:
    """Collects spans and metrics for everything run inside its context.

    Parameters
    ----------
    clock:
        Timeline source; defaults to a fresh :class:`SimClock`.
    metrics:
        Destination registry; defaults to a fresh one.
    trace_engine_ops:
        Install the autograd op hook while active (per-op FLOP/byte
        counters and the activation high-water mark).  Disable when
        tracing pure comm/plan code to skip the per-node callback.
    """

    def __init__(self, clock: SimClock | None = None,
                 metrics: MetricsRegistry | None = None,
                 trace_engine_ops: bool = True):
        self.clock = clock or SimClock()
        self.metrics = metrics or MetricsRegistry()
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._trace_engine_ops = trace_engine_ops
        # per-step activation accounting, fed by the engine op hook
        self._step_tape_bytes = 0.0
        self._tape_bytes_hwm = 0.0
        # per-rank comm-stream frontier: collectives on one rank's comm
        # stream execute serially, so an async launch starts no earlier
        # than the rank's previous collective finished
        self._comm_front: dict[int, float] = {}

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        self._prev = getattr(_state, "tracer", None)
        _state.tracer = self
        if self._trace_engine_ops:
            from .engine import install_op_hook
            install_op_hook(self)
        return self

    def __exit__(self, *exc) -> bool:
        _state.tracer = self._prev
        if self._trace_engine_ops:
            from .engine import install_op_hook, uninstall_op_hook
            if self._prev is not None and self._prev._trace_engine_ops:
                install_op_hook(self._prev)
            else:
                uninstall_op_hook()
        return False

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def span(self, name: str, cat: str = "app", rank: int = 0, **args):
        stack = self._stacks.setdefault(rank, [])
        sp = Span(name=name, cat=cat, rank=rank,
                  start_s=self.clock.now(rank), depth=len(stack),
                  args=dict(args))
        stack.append(sp)
        self.spans.append(sp)
        try:
            yield sp
        finally:
            stack.pop()
            sp.dur_s = self.clock.now(rank) - sp.start_s

    def collective(self, op: str, ranks: Iterable[int], nbytes: float,
                   modeled_s: float, sent_bytes: float | None = None,
                   modeled: bool = True, calls: int = 1) -> None:
        """Record one collective: a span per participating rank with the
        modeled ring duration, advancing each rank's simulated clock.

        ``nbytes`` is the per-rank payload (``buffers[0].nbytes``, an
        all-gather's shard) and ``modeled_s`` the ring time of ONE call
        on the full buffer, as
        :func:`~repro.distributed.perf_model.plan_comm_costs` prices it.  ``calls`` > 1
        coalesces a burst of identical collectives (e.g. the per-layer
        TP all-reduces) into one span of ``calls * modeled_s``.
        """
        ranks = list(ranks)
        total_s = modeled_s * calls
        args = {"op": op, "bytes": float(nbytes), "group_size": len(ranks),
                "modeled": modeled, "calls": calls}
        if sent_bytes is not None:
            args["sent_bytes_per_rank"] = float(sent_bytes)
        for r in ranks:
            start = self.clock.now(r)
            self.clock.advance(r, total_s)
            self.spans.append(Span(
                name=f"comm/{op}", cat="comm", rank=r, start_s=start,
                dur_s=total_s, depth=len(self._stacks.get(r, ())),
                args=args,
            ))
        self.metrics.inc(f"comm/{op}/calls", calls)
        self.metrics.inc(f"comm/{op}/bytes", nbytes * calls)
        self.metrics.inc("comm/modeled_time_s", total_s)

    def collective_async(self, op: str, ranks: Iterable[int], nbytes: float,
                         modeled_s: float, sent_bytes: float | None = None,
                         calls: int = 1) -> dict:
        """Schedule one collective on the members' comm streams.

        Unlike :meth:`collective`, member *compute* clocks do not move:
        the span starts at the latest member's position — the max over
        members of max(compute now, comm-stream frontier) — and runs on
        the ``"comm"`` stream.  The returned handle is consumed by
        :meth:`complete_async` (via ``Work.wait()``), which charges each
        member only the exposed residual and splits the modeled time
        into ``comm/overlapped_time_s`` vs ``comm/exposed_time_s``.
        """
        ranks = list(ranks)
        total_s = modeled_s * calls
        start = max(max(self.clock.now(r) for r in ranks),
                    max((self._comm_front.get(r, 0.0) for r in ranks),
                        default=0.0))
        end = start + total_s
        args = {"op": op, "bytes": float(nbytes), "group_size": len(ranks),
                "modeled": True, "calls": calls, "async": True}
        if sent_bytes is not None:
            args["sent_bytes_per_rank"] = float(sent_bytes)
        for r in ranks:
            self._comm_front[r] = end
            self.spans.append(Span(
                name=f"comm/{op}", cat="comm", rank=r, start_s=start,
                dur_s=total_s, depth=len(self._stacks.get(r, ())),
                args=args, stream="comm",
            ))
        self.metrics.inc(f"comm/{op}/calls", calls)
        self.metrics.inc(f"comm/{op}/bytes", nbytes * calls)
        self.metrics.inc("comm/modeled_time_s", total_s)
        return {"op": op, "ranks": ranks, "end_s": end, "total_s": total_s}

    def complete_async(self, handle: dict) -> None:
        """Wait-side accounting for an async collective.

        Each member's compute clock advances by the part of the
        collective still in flight when the rank reached the wait — the
        *exposed* time.  Whatever backward compute already covered is
        the *overlapped* share.
        """
        exposed = 0.0
        for r in handle["ranks"]:
            residual = handle["end_s"] - self.clock.now(r)
            if residual > 0.0:
                self.clock.advance(r, residual)
                exposed = max(exposed, residual)
        total = handle["total_s"]
        self.metrics.inc("comm/exposed_time_s", exposed)
        self.metrics.inc("comm/overlapped_time_s", max(0.0, total - exposed))

    # ------------------------------------------------------------------ #
    # engine-op and step accounting
    # ------------------------------------------------------------------ #
    def record_op(self, op: str, flops: float, nbytes: float) -> None:
        """Per-tape-node accounting (called by the autograd op hook)."""
        self.metrics.inc(f"engine/{op}/nodes")
        if flops:
            self.metrics.inc(f"engine/{op}/flops", flops)
        self.metrics.inc(f"engine/{op}/bytes", nbytes)
        self._step_tape_bytes += nbytes

    def end_step(self, n_samples: int, step_span: Span) -> None:
        """Close out one train step: throughput + memory high-water mark."""
        if step_span.dur_s > 0:
            self.metrics.observe("train/samples_per_s",
                                 n_samples / step_span.dur_s)
        self.metrics.observe("train/step_s", step_span.dur_s)
        self._tape_bytes_hwm = max(self._tape_bytes_hwm, self._step_tape_bytes)
        self.metrics.gauge("mem/tape_bytes_hwm", self._tape_bytes_hwm)
        step_span.args.setdefault("tape_bytes", self._step_tape_bytes)
        self._step_tape_bytes = 0.0

    # ------------------------------------------------------------------ #
    # export conveniences (delegate to repro.obs.export)
    # ------------------------------------------------------------------ #
    def export_chrome(self, path, alerts=()) -> None:
        from .export import write_chrome_trace
        write_chrome_trace(path, self.spans, alerts=alerts)

    def summary(self) -> str:
        from .export import summary_table
        return summary_table(self.spans)
