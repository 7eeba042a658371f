"""repro.obs — tracing, metrics, and simulated-clock profiling.

One subsystem answers "where did the step go?" across the whole stack:

- :mod:`~repro.obs.tracer` — hierarchical spans per virtual rank; the
  module-level :func:`span` is a no-op until a :class:`Tracer` context
  is entered.
- :mod:`~repro.obs.clock` — the simulated clock: wall time for real
  NumPy work, modeled ring time for virtual-cluster collectives.
- :mod:`~repro.obs.engine` — autograd hook with FLOP/byte rules per
  fused kernel.
- :mod:`~repro.obs.metrics` — flat counters/gauges/histograms registry.
- :mod:`~repro.obs.export` — Chrome trace_event JSON (Perfetto), text
  summary tables, per-step headline numbers.
- :mod:`~repro.obs.monitor` — continuous health monitoring: rolling
  time-series over the registry, declarative alert rules, detector
  packs, and the crash flight recorder.
- :mod:`~repro.obs.scenarios` — seeded monitor scenarios (train/serve/
  elastic, clean or fault-injected) behind ``repro monitor``.
"""

from .clock import SimClock
from .export import (chrome_trace, span_coverage,
                     step_summary, summary_table, write_chrome_trace)
from .metrics import Histogram, MetricsRegistry
from .monitor import (Alert, AlertRule, FlightRecorder, Monitor,
                      RollingWindow, TimeSeries, default_serve_rules,
                      default_train_rules, health_summary)
from .tracer import Span, Tracer, active_tracer, span

__all__ = [
    "SimClock", "Histogram", "MetricsRegistry", "Span", "Tracer",
    "active_tracer", "span", "chrome_trace", "write_chrome_trace",
    "span_coverage", "summary_table", "step_summary",
    "Alert", "AlertRule", "FlightRecorder", "Monitor", "RollingWindow",
    "TimeSeries", "default_train_rules", "default_serve_rules",
    "health_summary",
]
