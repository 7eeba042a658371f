"""SimClock and MetricsRegistry unit tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, MetricsRegistry, SimClock


def _manual_clock():
    """A SimClock driven by a settable fake wall clock."""
    wall = [100.0]
    clock = SimClock(wall=lambda: wall[0])
    return wall, clock


class TestSimClock:
    def test_now_is_wall_since_construction(self):
        wall, clock = _manual_clock()
        assert clock.now() == 0.0
        wall[0] += 2.5
        assert clock.now() == pytest.approx(2.5)
        assert clock.now(rank=7) == pytest.approx(2.5)  # no offsets yet

    def test_advance_moves_only_that_rank(self):
        wall, clock = _manual_clock()
        clock.advance(1, 0.25)
        clock.advance(1, 0.5)
        assert clock.now(0) == 0.0
        assert clock.now(1) == pytest.approx(0.75)
        assert clock.offset(1) == pytest.approx(0.75)
        assert clock.offset(0) == 0.0

    def test_wall_and_modeled_time_compose(self):
        wall, clock = _manual_clock()
        wall[0] += 1.0
        clock.advance(3, 2.0)
        assert clock.now(3) == pytest.approx(3.0)

    def test_negative_advance_rejected(self):
        _, clock = _manual_clock()
        with pytest.raises(ValueError):
            clock.advance(0, -1e-9)


class TestMetrics:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.inc("a/b")
        m.inc("a/b", 4.0)
        assert m.counters["a/b"] == 5.0

    def test_gauge_keeps_last(self):
        m = MetricsRegistry()
        m.gauge("g", 1.0)
        m.gauge("g", 3.0)
        assert m.gauges["g"] == 3.0

    def test_histogram_summary(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx(2.5)
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0

    def test_as_dict_and_dump(self):
        m = MetricsRegistry()
        m.inc("c", 2)
        m.gauge("g", 7)
        m.observe("h", 1.0)
        d = m.as_dict()
        assert d["counters"]["c"] == 2.0
        assert d["histograms"]["h"]["count"] == 1
        text = m.dump()
        assert "counters:" in text and "gauges:" in text and "histograms:" in text


class _BuiltinHistogram(Histogram):
    """``observe`` as the ``min()``/``max()`` builtins formulate it — the
    reference the comparison-based bounds must reproduce bit for bit."""

    def observe(self, value):
        from repro.obs.metrics import _RESERVOIR

        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if len(self._values) < _RESERVOIR:
            self._values.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < _RESERVOIR:
                self._values[j] = value


_SPECIAL = [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1.0, -2.5]


def _bits(h):
    return (h.count, h.total.hex(), h.min.hex(), h.max.hex(),
            [v.hex() for v in h._values])


class TestHistogramObserve:
    """``Histogram`` (shared by ``Monitor`` and ``Trainer`` through the
    registry) keeps its bounds by comparison; NaN, infinities and signed
    zeros must land exactly where ``min()``/``max()`` put them."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(st.sampled_from(_SPECIAL),
                                     st.floats(allow_nan=True)),
                           max_size=40))
    @example(values=[0.0, -0.0])
    @example(values=[-0.0, 0.0])
    @example(values=[float("nan"), 1.0, float("nan")])
    @example(values=[float("inf"), float("-inf"), float("nan")])
    def test_bounds_match_the_builtins(self, values):
        got, want = Histogram(), _BuiltinHistogram()
        for v in values:
            got.observe(v)
            want.observe(v)
        assert _bits(got) == _bits(want)

    def test_reservoir_matches_the_builtins_past_its_cap(self):
        from repro.obs.metrics import _RESERVOIR

        got, want = Histogram(), _BuiltinHistogram()
        for i in range(3 * _RESERVOIR):
            v = _SPECIAL[i % 7] if i % 11 == 0 else float((i * 7919) % 10007)
            got.observe(v)
            want.observe(v)
        assert len(got._values) == _RESERVOIR
        assert _bits(got) == _bits(want)


class TestHistogramReservoir:
    """Algorithm R keeps the reservoir a uniform sample of *all*
    observations, so late distribution shifts must move percentiles
    (the old keep-the-first-N reservoir froze them at the early values)."""

    def test_late_shift_moves_percentiles(self):
        from repro.obs.metrics import _RESERVOIR

        h = Histogram()
        for _ in range(_RESERVOIR):
            h.observe(1.0)
        assert h.percentile(99) == 1.0
        # an equally long second regime at 100x: roughly half the
        # reservoir should now come from it
        for _ in range(_RESERVOIR):
            h.observe(100.0)
        assert h.percentile(99) == 100.0
        assert h.percentile(50) in (1.0, 100.0)
        frac_new = sum(v == 100.0 for v in h._values) / len(h._values)
        assert 0.35 < frac_new < 0.65
        # exact stats stay exact regardless of sampling
        assert h.count == 2 * _RESERVOIR
        assert h.mean == pytest.approx(50.5)

    def test_reservoir_is_seeded_and_reproducible(self):
        def build():
            h = Histogram()
            for i in range(10_000):
                h.observe(float(i))
            return h

        a, b = build(), build()
        assert a._values == b._values
        assert a.percentile(50) == b.percentile(50)


class TestRegistryObserve:
    """``MetricsRegistry.observe`` builds a histogram on first sight of a
    name and never again — a ``Histogram`` seeds its own RNG, which is
    most of the cost of an observation."""

    def test_one_histogram_per_name(self, monkeypatch):
        from repro.obs import metrics

        built = []

        class Counting(metrics.Histogram):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics, "Histogram", Counting)
        m = MetricsRegistry()
        for i in range(50):
            m.observe("serve/latency_s", float(i))
            m.observe("serve/queue_depth", float(i % 3))
        assert len(built) == 2
        assert set(map(id, built)) == set(map(id, m.histograms.values()))
        assert m.histograms["serve/latency_s"].count == 50

    def test_long_stream_replays_the_recorded_reservoir(self):
        """Two interleaved streams three reservoirs long, through the
        registry.  The literals were recorded on the commit before
        ``observe`` stopped constructing a histogram per call: same
        per-histogram seed, same replacement decisions, same bits."""
        import hashlib

        from repro.obs.metrics import _RESERVOIR

        m = MetricsRegistry()
        for i in range(3 * _RESERVOIR):
            m.observe("a", float(i))
            m.observe("b", float((i * 7919) % 10007))
        # name -> p50, p99, SHA-256 prefix of the reservoir's float.hex()s
        recorded = {"a": (6192.0, 12155.0, "f128867b2d39f847"),
                    "b": (5100.0, 9891.0, "c1401828c9d3414a")}
        for name, (p50, p99, digest) in recorded.items():
            h = m.histograms[name]
            assert h.count == 3 * _RESERVOIR and len(h._values) == _RESERVOIR
            assert (h.percentile(50), h.percentile(99)) == (p50, p99)
            assert hashlib.sha256(",".join(
                v.hex() for v in h._values).encode()).hexdigest()[:16] == digest
