"""Continuous health monitoring: rolling series, alert rules, flight recorder.

:mod:`repro.obs` so far *records* — spans, counters, histograms — but
records nothing a run can act on while it is still alive.  This module
turns the metric stream into judgments:

- :class:`RollingWindow` / :class:`TimeSeries` — per-metric ring buffers
  layered on :class:`~repro.obs.metrics.MetricsRegistry`: every sample
  also lands in the registry's histogram, while the window keeps the
  recent ``(t, value)`` tail with streaming EWMA mean/variance baselines
  for anomaly scoring.
- :class:`AlertRule` — declarative detectors (threshold, non-finite,
  rate-of-change, z-score-vs-EWMA, SLO burn rate, baseline ratio)
  evaluated deterministically at every sample.  Firings become
  :class:`Alert` records on the timeline, ``monitor/alerts/…`` counters,
  and instant events in the Chrome trace export.
- :class:`Monitor` — owns the series, the rules, the alert timeline,
  and the flight recorder; ``Trainer``/``DistributedEngine``/
  ``DownscalingService`` feed it through one optional hook each.
- :class:`FlightRecorder` — a bounded ring of recent events, step
  records, and metric samples, dumped to a JSON artifact on anomaly,
  rank failure, or uncaught exception (via :meth:`Monitor.guard`), so a
  dead run leaves evidence behind.

**Determinism contract.**  Alert evaluation consumes only the sample
values and their order — no wall clock, no randomness — so a seeded
scenario replays to a bitwise-identical alert timeline and flight dump.
Timestamps come from the caller: the serve loop passes simulated
seconds, the trainer passes the step index.  Wall-derived samples (real
step durations) are tagged ``wall=True`` and are dropped entirely when
the monitor is built with ``wall_metrics=False`` — the mode the
``repro monitor`` scenarios and the CI gate run in.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import MetricsRegistry

__all__ = [
    "Alert", "AlertRule", "FlightRecorder", "Monitor", "RollingWindow",
    "TimeSeries", "default_serve_rules", "default_train_rules",
    "health_summary",
]

RULE_KINDS = ("threshold", "nonfinite", "rate", "zscore", "slo_burn",
              "baseline_ratio")

_OPS = {
    "gt": lambda v, b: v > b,
    "ge": lambda v, b: v >= b,
    "lt": lambda v, b: v < b,
    "le": lambda v, b: v <= b,
}


class RollingWindow:
    """Ring buffer of the last ``capacity`` samples of one metric.

    Keeps ``(t, value)`` pairs plus streaming EWMA mean/variance
    baselines (exponentially weighted, West's update).  Non-finite
    values are stored in the ring — detectors must see them — but are
    excluded from the baselines so one NaN cannot poison every z-score
    that follows.  ``prev_*`` attributes hold the baseline state from
    *before* the latest push: anomaly rules score the newest sample
    against the history that preceded it, not against itself.
    """

    __slots__ = ("capacity", "alpha", "count", "ewma", "ewvar",
                 "prev_count", "prev_ewma", "prev_ewvar", "_ts", "_values",
                 "_finite_count")

    def __init__(self, capacity: int = 256, alpha: float = 0.1):
        if capacity < 2:
            raise ValueError("window capacity must be >= 2")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("EWMA alpha must be in (0, 1]")
        self.capacity = capacity
        self.alpha = alpha
        self.count = 0           # samples ever pushed
        self._finite_count = 0   # finite samples folded into the baseline
        self.ewma = 0.0
        self.ewvar = 0.0
        self.prev_count = 0
        self.prev_ewma = 0.0
        self.prev_ewvar = 0.0
        self._ts: deque[float] = deque(maxlen=capacity)
        self._values: deque[float] = deque(maxlen=capacity)

    def push(self, t: float, value: float) -> None:
        value = float(value)
        self.prev_count = self._finite_count
        self.prev_ewma = self.ewma
        self.prev_ewvar = self.ewvar
        self.count += 1
        self._ts.append(float(t))
        self._values.append(value)
        if math.isfinite(value):
            if self._finite_count == 0:
                self.ewma = value
                self.ewvar = 0.0
            else:
                delta = value - self.ewma
                self.ewma += self.alpha * delta
                self.ewvar = (1.0 - self.alpha) * (self.ewvar
                                                   + self.alpha * delta ** 2)
            self._finite_count += 1

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._values)

    def last(self) -> float:
        if not self._values:
            raise IndexError("empty window")
        return self._values[-1]

    def prev(self) -> float:
        """Second-newest sample (for rate-of-change rules)."""
        if len(self._values) < 2:
            raise IndexError("window has fewer than two samples")
        return self._values[-2]

    def tail(self, n: int | None = None) -> list[tuple[float, float]]:
        """The last ``n`` (t, value) pairs, oldest first."""
        pairs = list(zip(self._ts, self._values))
        return pairs if n is None else pairs[-n:]

    def mean(self, last: int | None = None) -> float:
        vals = list(self._values)[-(last or len(self._values)):]
        finite = [v for v in vals if math.isfinite(v)]
        return sum(finite) / len(finite) if finite else 0.0

    def quantile(self, q: float, last: int | None = None) -> float:
        """Windowed ``q``-th percentile (0-100), nearest-rank."""
        vals = sorted(v for v in list(self._values)[-(last or len(self._values)):]
                      if math.isfinite(v))
        if not vals:
            return 0.0
        idx = min(len(vals) - 1, int(round(q / 100.0 * (len(vals) - 1))))
        return vals[idx]

    def frac_over(self, bound: float, last: int | None = None) -> float:
        """Fraction of the last ``last`` samples strictly above ``bound``.

        Non-finite samples count as violations — a NaN latency is not a
        latency that met its SLO.
        """
        vals = list(self._values)[-(last or len(self._values)):]
        if not vals:
            return 0.0
        bad = sum(1 for v in vals if not math.isfinite(v) or v > bound)
        return bad / len(vals)

    def zscore(self, value: float) -> float:
        """``value`` scored against the pre-push EWMA baseline."""
        if self.prev_count < 2 or self.prev_ewvar <= 0.0:
            return 0.0
        return abs(value - self.prev_ewma) / math.sqrt(self.prev_ewvar)


class TimeSeries:
    """Per-metric rolling windows layered on a :class:`MetricsRegistry`.

    ``record`` lands every sample twice: in the metric's rolling window
    (the detector substrate) and in the registry's histogram (the
    existing dump/export path), so ``repro profile`` and the alert rules
    read the same numbers from one place.
    """

    def __init__(self, metrics: MetricsRegistry | None = None,
                 capacity: int = 256, alpha: float = 0.1):
        self.metrics = metrics or MetricsRegistry()
        self.capacity = capacity
        self.alpha = alpha
        self.windows: dict[str, RollingWindow] = {}

    def record(self, name: str, t: float, value: float) -> RollingWindow:
        w = self.windows.get(name)
        if w is None:
            w = self.windows[name] = RollingWindow(self.capacity, self.alpha)
        w.push(t, value)
        self.metrics.observe(name, value)
        return w

    def window(self, name: str) -> RollingWindow | None:
        return self.windows.get(name)

    def tails(self, n: int = 32) -> dict[str, list[tuple[float, float]]]:
        return {name: w.tail(n) for name, w in sorted(self.windows.items())}


@dataclass(frozen=True)
class AlertRule:
    """One declarative detector over one metric.

    Kinds
    -----
    ``threshold``
        ``op(value, bound)`` — e.g. queue depth above a limit.
    ``nonfinite``
        the sample is NaN or ±inf (loss/gradient corruption).
    ``rate``
        relative change vs the previous sample exceeds ``bound``
        (loss spiking 10x in one step).
    ``zscore``
        ``|value − EWMA| / √EWVar > zmax`` against the pre-sample
        baseline; arms after ``min_samples`` finite samples.
    ``slo_burn``
        the fraction of the last ``window`` samples above ``slo``
        exceeds ``burn`` (p99-burn, shed-rate, scaler thrash).
    ``baseline_ratio``
        ``value / EWMA > bound`` — regressions vs a learned baseline
        (step time creeping up); arms after ``min_samples``.

    ``cooldown`` suppresses re-firing for that many further samples of
    the metric, so a sustained violation is one alert plus a count, not
    an alert storm.  Everything here is pure arithmetic on the sample
    stream — evaluation is deterministic by construction.
    """

    name: str
    metric: str
    kind: str
    op: str = "gt"
    bound: float = 0.0
    window: int = 32
    zmax: float = 6.0
    min_samples: int = 8
    slo: float = 0.0
    burn: float = 0.25
    cooldown: int = 16
    severity: str = "warning"

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; "
                             f"expected one of {RULE_KINDS}")
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; "
                             f"expected one of {tuple(_OPS)}")
        if self.severity not in ("warning", "critical"):
            raise ValueError("severity must be 'warning' or 'critical'")
        if self.cooldown < 0 or self.min_samples < 1 or self.window < 1:
            raise ValueError("cooldown/min_samples/window out of range")

    def evaluate(self, w: RollingWindow, value: float) -> dict | None:
        """Detail dict when the rule fires on ``value``, else ``None``.

        Called after ``value`` was pushed onto ``w`` (so ``w.last() ==
        value``); baseline kinds score against the pre-push state.
        """
        if self.kind == "nonfinite":
            if not math.isfinite(value):
                return {"value": value}
            return None
        if self.kind == "threshold":
            if _OPS[self.op](value, self.bound):
                return {"value": value, "bound": self.bound, "op": self.op}
            return None
        if self.kind == "rate":
            if w.count < max(2, self.min_samples):
                return None
            prev = w.prev()
            if not math.isfinite(prev) or not math.isfinite(value):
                return None
            rel = abs(value - prev) / max(abs(prev), 1e-12)
            if rel > self.bound:
                return {"value": value, "prev": prev, "rel_change": rel,
                        "bound": self.bound}
            return None
        if self.kind == "zscore":
            if w.prev_count < self.min_samples or not math.isfinite(value):
                return None
            z = w.zscore(value)
            if z > self.zmax:
                return {"value": value, "zscore": z, "zmax": self.zmax,
                        "ewma": w.prev_ewma}
            return None
        if self.kind == "baseline_ratio":
            if (w.prev_count < self.min_samples or not math.isfinite(value)
                    or w.prev_ewma <= 0.0):
                return None
            ratio = value / w.prev_ewma
            if ratio > self.bound:
                return {"value": value, "ratio": ratio, "bound": self.bound,
                        "ewma": w.prev_ewma}
            return None
        # slo_burn
        if w.count < self.min_samples:
            return None
        frac = w.frac_over(self.slo, last=self.window)
        if frac > self.burn:
            return {"value": value, "violating_frac": frac,
                    "burn": self.burn, "slo": self.slo}
        return None


@dataclass
class Alert:
    """One rule firing on the timeline."""

    t: float
    rule: str
    metric: str
    value: float
    severity: str
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"t": self.t, "rule": self.rule, "metric": self.metric,
                "value": self.value, "severity": self.severity,
                "detail": dict(self.detail)}


class FlightRecorder:
    """Bounded ring of recent evidence, dumped to JSON when a run dies.

    ``note`` appends one event (alerts, replan/fault/scale events, step
    records); the ring keeps the last ``capacity``.  ``snapshot`` is the
    JSON-ready crash artifact: the event ring, the per-metric sample
    tails, the full registry dump, counter deltas since the previous
    snapshot, the alert timeline, and whatever engine state (plan
    layout, plan epoch, compile guard counters) the run's state
    providers contribute.
    """

    SCHEMA = "flight_recorder/v1"

    def __init__(self, capacity: int = 512, tail: int = 32):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.tail = tail
        self.events: deque[dict] = deque(maxlen=capacity)
        self.dumps = 0
        self._prev_counters: dict[str, float] = {}

    def note(self, kind: str, t: float, **payload) -> None:
        self.events.append({"kind": kind, "t": float(t), **payload})

    def snapshot(self, monitor: "Monitor | None" = None,
                 reason: str = "manual") -> dict:
        doc: dict = {
            "schema": self.SCHEMA,
            "reason": reason,
            "dump_index": self.dumps,
            "events": list(self.events),
        }
        if monitor is not None:
            counters = dict(monitor.metrics.counters)
            doc.update({
                "verdict": monitor.verdict(),
                "alerts": monitor.alert_timeline(),
                "series": {name: [[t, v] for t, v in tail]
                           for name, tail in monitor.series.tails(self.tail).items()},
                "metrics": monitor.metrics.as_dict(),
                "counter_deltas": {
                    k: v - self._prev_counters.get(k, 0.0)
                    for k, v in sorted(counters.items())
                },
                "state": monitor.gather_state(),
            })
            self._prev_counters = counters
        self.dumps += 1
        return doc

    def dump(self, path, monitor: "Monitor | None" = None,
             reason: str = "manual") -> Path:
        path = Path(path)
        doc = self.snapshot(monitor, reason=reason)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return path


class Monitor:
    """Rolling series + alert rules + flight recorder, one object.

    Parameters
    ----------
    rules:
        Iterable of :class:`AlertRule`; more can be added later with
        :meth:`add_rules`.
    metrics:
        Destination registry; shares the active tracer's registry when
        the caller passes ``tracer.metrics``.
    window / ewma_alpha:
        Ring capacity and EWMA smoothing for every series.
    wall_metrics:
        When False, samples recorded with ``wall=True`` (real measured
        durations) are dropped — the deterministic mode the scenario
        harness and CI gate use, since wall time is not reproducible.
    auto_dump:
        Path to write a flight-recorder dump to the moment a
        ``critical`` alert fires (each firing overwrites with the
        freshest evidence).
    """

    def __init__(self, rules=(), *, metrics: MetricsRegistry | None = None,
                 window: int = 256, ewma_alpha: float = 0.1,
                 recorder: FlightRecorder | None = None,
                 wall_metrics: bool = True, auto_dump=None):
        self.metrics = metrics or MetricsRegistry()
        self.series = TimeSeries(self.metrics, capacity=window,
                                 alpha=ewma_alpha)
        self.recorder = recorder or FlightRecorder()
        self.wall_metrics = wall_metrics
        self.auto_dump = auto_dump
        self.alerts: list[Alert] = []
        self.rules: list[AlertRule] = []
        self._by_metric: dict[str, list[AlertRule]] = {}
        self._last_fired: dict[str, int] = {}
        self._tick = 0
        self.state_providers: list = []
        self.add_rules(rules)

    # ------------------------------------------------------------------ #
    # configuration
    # ------------------------------------------------------------------ #
    def add_rules(self, rules) -> None:
        for rule in rules:
            if any(r.name == rule.name for r in self.rules):
                raise ValueError(f"duplicate rule name {rule.name!r}")
            self.rules.append(rule)
            self._by_metric.setdefault(rule.metric, []).append(rule)

    def add_state_provider(self, fn) -> None:
        """Register ``fn() -> dict`` merged into every flight dump."""
        self.state_providers.append(fn)

    def gather_state(self) -> dict:
        state: dict = {}
        for fn in self.state_providers:
            state.update(fn())
        return state

    # ------------------------------------------------------------------ #
    # the write path
    # ------------------------------------------------------------------ #
    def record(self, name: str, value: float, t: float | None = None,
               wall: bool = False) -> None:
        """One sample of ``name`` at time ``t`` (defaults to a tick count).

        Pushes the rolling window, mirrors into the registry histogram,
        and evaluates every rule bound to the metric.
        """
        if wall and not self.wall_metrics:
            return
        if t is None:
            t = float(self._tick)
        self._tick += 1
        value = float(value)
        w = self.series.record(name, t, value)
        rules = self._by_metric.get(name)
        if not rules:
            return
        for rule in rules:
            last = self._last_fired.get(rule.name)
            if last is not None and w.count - last <= rule.cooldown:
                continue
            detail = rule.evaluate(w, value)
            if detail is None:
                continue
            self._last_fired[rule.name] = w.count
            self._fire(rule, name, value, t, detail)

    def event(self, kind: str, t: float | None = None, **detail) -> None:
        """A discrete occurrence (replan, rank failure, scale-up, ...).

        Events land in the flight ring and as an ``event/<kind>`` sample,
        so threshold rules on ``event/…`` metrics turn events into
        alerts (e.g. any ``event/rank_failure`` fires the detector pack's
        rank-failure rule).
        """
        if t is None:
            t = float(self._tick)
        self.recorder.note(f"event/{kind}", t, **_jsonable(detail))
        self.record(f"event/{kind}", 1.0, t=t)

    def step_record(self, t: float, **fields) -> None:
        """Per-step breadcrumb for the flight ring (loss, norm, scale...)."""
        self.recorder.note("step", t, **_jsonable(fields))

    def _fire(self, rule: AlertRule, metric: str, value: float, t: float,
              detail: dict) -> None:
        alert = Alert(t=t, rule=rule.name, metric=metric, value=value,
                      severity=rule.severity, detail=_jsonable(detail))
        self.alerts.append(alert)
        self.metrics.inc(f"monitor/alerts/{rule.name}")
        self.metrics.inc("monitor/alerts")
        self.recorder.note("alert", t, rule=rule.name, metric=metric,
                           value=value, severity=rule.severity)
        if rule.severity == "critical" and self.auto_dump is not None:
            self.dump(self.auto_dump, reason=f"alert:{rule.name}")

    # ------------------------------------------------------------------ #
    # the read path
    # ------------------------------------------------------------------ #
    def fired(self, rule_name: str) -> int:
        """How many times ``rule_name`` has fired."""
        return sum(1 for a in self.alerts if a.rule == rule_name)

    def alert_timeline(self) -> list[dict]:
        return [a.as_dict() for a in self.alerts]

    def verdict(self) -> str:
        """``healthy`` (no alerts), ``degraded``, or ``critical``."""
        if any(a.severity == "critical" for a in self.alerts):
            return "critical"
        return "degraded" if self.alerts else "healthy"

    def timeline_text(self) -> str:
        """Aligned text rendition of the alert timeline."""
        if not self.alerts:
            return "no alerts fired\n"
        lines = [f"{'t':>10s} {'severity':<8s} {'rule':<24s} "
                 f"{'metric':<24s} {'value':>12s}"]
        for a in self.alerts:
            lines.append(f"{a.t:>10.4f} {a.severity:<8s} {a.rule:<24s} "
                         f"{a.metric:<24s} {a.value:>12.6g}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------ #
    # crash artifacts
    # ------------------------------------------------------------------ #
    def dump(self, path, reason: str = "manual") -> Path:
        return self.recorder.dump(path, self, reason=reason)


def _jsonable(d: dict) -> dict:
    """Coerce payload values to JSON-safe scalars (repr as fallback)."""
    out = {}
    for k, v in d.items():
        if isinstance(v, (bool, int, float, str)) or v is None:
            out[k] = v
        elif isinstance(v, (list, tuple)):
            out[k] = [x if isinstance(x, (bool, int, float, str)) else repr(x)
                      for x in v]
        elif isinstance(v, dict):
            out[k] = _jsonable(v)
        else:
            out[k] = repr(v)
    return out


# ---------------------------------------------------------------------- #
# detector packs
# ---------------------------------------------------------------------- #
def default_train_rules(grad_clip: float = 1.0) -> list[AlertRule]:
    """The training detector pack over the ``train/…`` health metrics.

    NaN/inf in the loss or the flat-buffer gradients (the global grad
    norm is computed over the flat gradient, so a single corrupt element
    surfaces as a non-finite norm), loss spikes and grad-norm anomalies
    vs the EWMA baseline, GradScaler thrash (overflow-skip burn rate),
    step-throughput regression vs baseline, and rank-failure/replan
    events from the elastic layer.
    """
    return [
        AlertRule("nonfinite-loss", "train/loss", "nonfinite",
                  severity="critical", cooldown=0),
        AlertRule("nonfinite-grad", "train/grad_norm", "nonfinite",
                  severity="critical", cooldown=0),
        AlertRule("loss-spike", "train/loss", "zscore", zmax=6.0,
                  min_samples=4, cooldown=8),
        AlertRule("grad-norm-anomaly", "train/grad_norm", "zscore", zmax=8.0,
                  min_samples=4, cooldown=8),
        AlertRule("scaler-thrash", "train/overflow_skip", "slo_burn",
                  slo=0.5, burn=0.25, window=16, min_samples=8, cooldown=16),
        AlertRule("throughput-regression", "train/step_s", "baseline_ratio",
                  bound=1.5, min_samples=4, cooldown=8),
        AlertRule("rank-failure", "event/rank_failure", "threshold",
                  op="ge", bound=1.0, severity="critical", cooldown=0),
        AlertRule("replan", "event/replan", "threshold",
                  op="ge", bound=1.0, cooldown=0),
    ]


def default_serve_rules(slo_p99_s: float = 0.5,
                        max_queue_depth: float = 64.0) -> list[AlertRule]:
    """The serving detector pack: SLO burn, queue growth, shedding.

    ``p99-slo-burn`` fires when more than 1% of the latency window blows
    the SLO bound (the p99 contract, read off the rolling window);
    ``queue-depth`` and ``shed-rate`` catch overload before latency
    does; the scale-up/scale-down rules annotate autoscaler decisions
    onto the same timeline the latency alerts live on.
    """
    return [
        AlertRule("p99-slo-burn", "serve/latency_s", "slo_burn",
                  slo=slo_p99_s, burn=0.01, window=128, min_samples=16,
                  cooldown=64),
        AlertRule("queue-depth", "serve/queue_depth", "threshold",
                  bound=max_queue_depth, min_samples=1, cooldown=64),
        AlertRule("shed-rate", "serve/shed_event", "slo_burn",
                  slo=0.5, burn=0.05, window=64, min_samples=16, cooldown=64,
                  severity="critical"),
        AlertRule("scale-up", "event/scale_up", "threshold",
                  op="ge", bound=1.0, cooldown=0),
        AlertRule("scale-down", "event/scale_down", "threshold",
                  op="ge", bound=1.0, cooldown=0),
    ]


# ---------------------------------------------------------------------- #
# `repro health`: one-screen summary of a flight dump
# ---------------------------------------------------------------------- #
def health_summary(doc: dict) -> str:
    """Render a flight-recorder dump (parsed JSON) as one screen of text."""
    if doc.get("schema") != FlightRecorder.SCHEMA:
        raise ValueError(
            f"not a flight-recorder dump (schema {doc.get('schema')!r}, "
            f"expected {FlightRecorder.SCHEMA!r})")
    lines = [f"flight recorder dump — reason: {doc.get('reason', '?')}, "
             f"verdict: {doc.get('verdict', '?')}"]
    alerts = doc.get("alerts", [])
    by_rule: dict[str, int] = {}
    for a in alerts:
        by_rule[a["rule"]] = by_rule.get(a["rule"], 0) + 1
    lines.append(f"alerts: {len(alerts)}"
                 + (" (" + ", ".join(f"{r}x{n}" if n > 1 else r
                                     for r, n in sorted(by_rule.items())) + ")"
                    if by_rule else ""))
    for a in alerts[-8:]:
        lines.append(f"  t={a['t']:<10.4f} [{a['severity']}] {a['rule']}: "
                     f"{a['metric']} = {a['value']:.6g}")
    events = [e for e in doc.get("events", [])
              if e.get("kind", "").startswith("event/")]
    if events:
        lines.append(f"events: {len(events)}")
        for e in events[-6:]:
            extra = {k: v for k, v in e.items() if k not in ("kind", "t")}
            lines.append(f"  t={e['t']:<10.4f} {e['kind'][6:]}"
                         + (f" {extra}" if extra else ""))
    series = doc.get("series", {})
    if series:
        lines.append("series tails (last / windowed mean):")
        for name in sorted(series):
            tail = series[name]
            if not tail:
                continue
            vals = [v for _, v in tail]
            finite = [v for v in vals if isinstance(v, (int, float))
                      and math.isfinite(v)]
            mean = sum(finite) / len(finite) if finite else float("nan")
            lines.append(f"  {name:<28s} {vals[-1]:>12.6g} {mean:>12.6g}")
    state = doc.get("state", {})
    if state:
        lines.append("state: " + json.dumps(state, sort_keys=True))
    deltas = {k: v for k, v in doc.get("counter_deltas", {}).items() if v}
    if deltas:
        lines.append(f"counter deltas since previous dump: {len(deltas)} "
                     "changed")
    return "\n".join(lines) + "\n"
