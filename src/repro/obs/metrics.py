"""Flat metrics registry: counters, gauges, and histograms.

Deliberately minimal — a dict of floats with three write verbs and a
text dump, not a metrics *platform*.  Names are slash-delimited paths
(``engine/linear/flops``, ``comm/all_reduce/bytes``, ``train/loss``) so
the dump groups naturally and exporters can prefix-filter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["Histogram", "MetricsRegistry"]

#: histograms keep at most this many raw observations for percentiles;
#: count/sum/min/max stay exact beyond it
_RESERVOIR = 4096

#: fixed reservoir seed — replacement decisions must replay identically
#: across runs (the serving determinism contract covers metric dumps)
_RESERVOIR_SEED = 0x5EED


@dataclass
class Histogram:
    """Streaming summary of observed values.

    Percentiles come from a bounded reservoir maintained by seeded
    Algorithm R: once full, observation ``n`` replaces a uniformly
    chosen slot with probability ``RESERVOIR/n``, so the reservoir stays
    a uniform sample of *everything* observed — a late distribution
    shift moves p50/p99 instead of being silently dropped (the old
    keep-the-first-4096 behaviour).  The RNG is seeded per histogram, so
    the same observation sequence reproduces the same reservoir bitwise.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    _values: list[float] = field(default_factory=list, repr=False)
    _rng: random.Random = field(
        default_factory=lambda: random.Random(_RESERVOIR_SEED), repr=False,
        compare=False)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        # min()/max() by hand, with their semantics: a NaN never replaces
        # a bound, and of two equal values (-0.0 and 0.0) the first stays
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        values = self._values
        if len(values) < _RESERVOIR:
            values.append(value)
        else:
            # Algorithm R: keep with probability RESERVOIR/count
            j = self._rng.randrange(self.count)
            if j < _RESERVOIR:
                values[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (exact below the reservoir cap)."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        idx = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
        return ordered[idx]


class MetricsRegistry:
    """Counters (monotonic), gauges (last value), histograms (distributions)."""

    def __init__(self):
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # write verbs
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            # built on first sight only: a Histogram seeds its own RNG
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    # ------------------------------------------------------------------ #
    # read side
    # ------------------------------------------------------------------ #
    def as_dict(self) -> dict:
        """JSON-ready snapshot of everything recorded."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {"count": h.count, "sum": h.total, "mean": h.mean,
                       "min": h.min, "max": h.max, "p50": h.percentile(50),
                       "p99": h.percentile(99)}
                for name, h in self.histograms.items()
            },
        }

    def dump(self) -> str:
        """Aligned text rendition, one metric per line, grouped by kind."""
        lines: list[str] = []
        if self.counters:
            width = max(len(n) for n in self.counters)
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name:<{width}s} {self.counters[name]:.6g}")
        if self.gauges:
            width = max(len(n) for n in self.gauges)
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<{width}s} {self.gauges[name]:.6g}")
        if self.histograms:
            width = max(len(n) for n in self.histograms)
            lines.append("histograms:  (count mean min p50 p99 max)")
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"  {name:<{width}s} {h.count} {h.mean:.6g} {h.min:.6g} "
                    f"{h.percentile(50):.6g} {h.percentile(99):.6g} {h.max:.6g}"
                )
        return "\n".join(lines) + ("\n" if lines else "")
