"""Monitor core tests: windows, rules, alerting, and the flight recorder."""

import json
import math

import pytest

from repro.obs import (
    Alert,
    AlertRule,
    FlightRecorder,
    Monitor,
    RollingWindow,
    TimeSeries,
    default_serve_rules,
    default_train_rules,
    health_summary,
)


class TestRollingWindow:
    def test_ring_keeps_last_capacity_samples(self):
        w = RollingWindow(capacity=4)
        for i in range(10):
            w.push(float(i), float(i))
        assert len(w) == 4
        assert w.tail() == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]
        assert w.count == 10              # lifetime count survives eviction
        assert w.last() == 9.0 and w.prev() == 8.0

    def test_windowed_stats(self):
        w = RollingWindow(capacity=8)
        for i, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            w.push(float(i), v)
        assert w.mean() == pytest.approx(2.5)
        assert w.mean(last=2) == pytest.approx(3.5)
        assert w.quantile(0) == 1.0 and w.quantile(100) == 4.0
        assert w.frac_over(2.5) == pytest.approx(0.5)

    def test_ewma_tracks_and_prev_lags_one_push(self):
        w = RollingWindow(capacity=16, alpha=0.5)
        w.push(0.0, 10.0)
        assert w.ewma == 10.0 and w.prev_count == 0
        w.push(1.0, 20.0)
        assert w.ewma == pytest.approx(15.0)
        assert w.prev_ewma == 10.0        # baseline from before the push

    def test_nonfinite_stored_but_excluded_from_baseline(self):
        w = RollingWindow(capacity=8, alpha=0.5)
        for i, v in enumerate([4.0, 4.0, 4.0]):
            w.push(float(i), v)
        baseline = w.ewma
        w.push(3.0, float("nan"))
        assert math.isnan(w.last())       # detectors see the raw sample
        assert w.ewma == baseline         # baseline unpoisoned
        assert w.frac_over(1e9) == pytest.approx(0.25)  # NaN = violation

    def test_zscore_against_pre_push_baseline(self):
        w = RollingWindow(capacity=32, alpha=0.5)
        for i in range(8):
            w.push(float(i), 10.0 + (-1.0) ** i)  # mean 10, some variance
        w.push(8.0, 100.0)
        assert w.zscore(100.0) > 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RollingWindow(capacity=1)
        with pytest.raises(ValueError):
            RollingWindow(alpha=0.0)
        with pytest.raises(IndexError):
            RollingWindow().last()


class TestTimeSeries:
    def test_record_mirrors_into_registry_histogram(self):
        ts = TimeSeries()
        ts.record("train/loss", 0.0, 2.0)
        ts.record("train/loss", 1.0, 4.0)
        assert ts.window("train/loss").mean() == pytest.approx(3.0)
        h = ts.metrics.histograms["train/loss"]
        assert h.count == 2 and h.mean == pytest.approx(3.0)

    def test_tails_sorted_by_name(self):
        ts = TimeSeries()
        ts.record("b", 0.0, 1.0)
        ts.record("a", 0.0, 1.0)
        assert list(ts.tails()) == ["a", "b"]


class TestAlertRules:
    def _window(self, values, alpha=0.5):
        w = RollingWindow(capacity=64, alpha=alpha)
        for i, v in enumerate(values):
            w.push(float(i), v)
        return w

    def test_threshold_ops(self):
        rule = AlertRule("qd", "m", "threshold", op="ge", bound=10.0)
        w = self._window([10.0])
        assert rule.evaluate(w, 10.0)["bound"] == 10.0
        w = self._window([9.0])
        assert rule.evaluate(w, 9.0) is None

    def test_nonfinite(self):
        rule = AlertRule("nf", "m", "nonfinite")
        assert rule.evaluate(self._window([float("inf")]), float("inf"))
        assert rule.evaluate(self._window([float("nan")]), float("nan"))
        assert rule.evaluate(self._window([1e300]), 1e300) is None

    def test_rate_of_change(self):
        rule = AlertRule("spike", "m", "rate", bound=5.0, min_samples=2)
        w = self._window([1.0, 10.0])
        assert rule.evaluate(w, 10.0)["rel_change"] == pytest.approx(9.0)
        w = self._window([1.0, 3.0])
        assert rule.evaluate(w, 3.0) is None
        # single sample: nothing to rate against
        assert rule.evaluate(self._window([50.0]), 50.0) is None

    def test_zscore_needs_warmup(self):
        rule = AlertRule("z", "m", "zscore", zmax=4.0, min_samples=4)
        w = self._window([10.0, 11.0, 100.0])   # only 2 samples before push
        assert rule.evaluate(w, 100.0) is None
        w = self._window([10.0, 11.0, 10.0, 11.0, 10.0, 100.0])
        assert rule.evaluate(w, 100.0)["zscore"] > 4.0

    def test_slo_burn(self):
        rule = AlertRule("burn", "m", "slo_burn", slo=1.0, burn=0.25,
                         window=8, min_samples=4)
        w = self._window([0.5, 0.5, 2.0, 2.0])
        assert rule.evaluate(w, 2.0)["violating_frac"] == pytest.approx(0.5)
        w = self._window([0.5, 0.5, 0.5, 2.0])
        assert rule.evaluate(w, 2.0) is None    # 0.25 not > 0.25

    def test_baseline_ratio(self):
        rule = AlertRule("slow", "m", "baseline_ratio", bound=1.5,
                         min_samples=3)
        w = self._window([1.0, 1.0, 1.0, 1.0, 3.0], alpha=0.1)
        assert rule.evaluate(w, 3.0)["ratio"] == pytest.approx(3.0, rel=0.1)
        w = self._window([1.0, 1.0, 1.0, 1.0, 1.2], alpha=0.1)
        assert rule.evaluate(w, 1.2) is None

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            AlertRule("x", "m", "nope")
        with pytest.raises(ValueError):
            AlertRule("x", "m", "threshold", op="eq")
        with pytest.raises(ValueError):
            AlertRule("x", "m", "threshold", severity="fatal")


class TestMonitor:
    def test_fire_and_counters(self):
        mon = Monitor([AlertRule("hot", "temp", "threshold", bound=100.0)])
        mon.record("temp", 50.0, t=0.0)
        mon.record("temp", 150.0, t=1.0)
        assert mon.fired("hot") == 1
        assert mon.metrics.counters["monitor/alerts/hot"] == 1.0
        assert mon.metrics.counters["monitor/alerts"] == 1.0
        (a,) = mon.alerts
        assert isinstance(a, Alert) and a.t == 1.0 and a.metric == "temp"
        assert mon.verdict() == "degraded"

    def test_cooldown_suppresses_alert_storm(self):
        mon = Monitor([AlertRule("hot", "temp", "threshold", bound=0.0,
                                 cooldown=4)])
        for i in range(10):
            mon.record("temp", 1.0, t=float(i))
        # fires at samples 1, 6 — suppressed for 4 samples in between
        assert mon.fired("hot") == 2

    def test_zero_cooldown_fires_every_sample(self):
        mon = Monitor([AlertRule("hot", "temp", "threshold", bound=0.0,
                                 cooldown=0)])
        for i in range(3):
            mon.record("temp", 1.0, t=float(i))
        assert mon.fired("hot") == 3

    def test_wall_metrics_dropped_when_disabled(self):
        mon = Monitor(wall_metrics=False)
        mon.record("train/step_s", 0.5, wall=True)
        mon.record("train/loss", 1.0, t=0.0)
        assert "train/step_s" not in mon.series.windows
        assert "train/loss" in mon.series.windows

    def test_event_becomes_metric_and_can_alert(self):
        mon = Monitor([AlertRule("died", "event/rank_failure", "threshold",
                                 op="ge", bound=1.0, severity="critical",
                                 cooldown=0)])
        mon.event("rank_failure", t=3.0, dead=[2, 3])
        assert mon.fired("died") == 1
        assert mon.verdict() == "critical"
        kinds = [e["kind"] for e in mon.recorder.events]
        assert "event/rank_failure" in kinds and "alert" in kinds

    def test_duplicate_rule_name_rejected(self):
        with pytest.raises(ValueError):
            Monitor([AlertRule("a", "m", "nonfinite"),
                     AlertRule("a", "m2", "nonfinite")])

    def test_timeline_text_renders_all_alerts(self):
        mon = Monitor([AlertRule("hot", "temp", "threshold", bound=0.0,
                                 cooldown=0)])
        assert mon.timeline_text() == "no alerts fired\n"
        mon.record("temp", 2.0, t=1.5)
        text = mon.timeline_text()
        assert "hot" in text and "temp" in text and "1.5" in text


class TestFlightRecorder:
    def _monitor(self, tmp_path=None, auto_dump=None):
        mon = Monitor([AlertRule("boom", "m", "threshold", bound=10.0,
                                 severity="critical", cooldown=0)],
                      auto_dump=auto_dump)
        mon.add_state_provider(lambda: {"step": 7})
        return mon

    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.note("step", float(i))
        assert len(rec.events) == 3
        assert [e["t"] for e in rec.events] == [7.0, 8.0, 9.0]

    def test_snapshot_contents(self):
        mon = self._monitor()
        mon.record("m", 1.0, t=0.0)
        mon.record("m", 99.0, t=1.0)
        doc = mon.recorder.snapshot(mon, reason="test")
        assert doc["schema"] == FlightRecorder.SCHEMA
        assert doc["verdict"] == "critical"
        assert doc["alerts"][0]["rule"] == "boom"
        assert doc["series"]["m"] == [[0.0, 1.0], [1.0, 99.0]]
        assert doc["state"] == {"step": 7}
        assert doc["counter_deltas"]["monitor/alerts/boom"] == 1.0
        assert json.loads(json.dumps(doc)) == doc   # JSON-safe throughout

    def test_counter_deltas_are_since_previous_dump(self):
        mon = self._monitor()
        mon.record("m", 99.0, t=0.0)
        mon.recorder.snapshot(mon, reason="first")
        mon.record("m", 99.0, t=1.0)
        doc = mon.recorder.snapshot(mon, reason="second")
        assert doc["dump_index"] == 1
        assert doc["counter_deltas"]["monitor/alerts/boom"] == 1.0

    def test_auto_dump_on_critical(self, tmp_path):
        path = tmp_path / "crash.json"
        mon = self._monitor(auto_dump=path)
        mon.record("m", 99.0, t=0.0)
        doc = json.loads(path.read_text())
        assert doc["reason"] == "alert:boom"

    def test_health_summary_round_trip(self):
        mon = self._monitor()
        mon.record("m", 99.0, t=0.0)
        mon.event("replan", t=1.0, old="a", new="b")
        doc = json.loads(json.dumps(mon.recorder.snapshot(mon, reason="x")))
        text = health_summary(doc)
        assert "verdict: critical" in text
        assert "boom" in text and "replan" in text
        with pytest.raises(ValueError):
            health_summary({"schema": "bogus"})


class TestDetectorPacks:
    def test_unique_names_and_valid_kinds(self):
        for pack in (default_train_rules(), default_serve_rules()):
            names = [r.name for r in pack]
            assert len(names) == len(set(names))
        Monitor(default_train_rules())       # constructs without conflict
        Monitor(default_serve_rules())

    def test_train_pack_catches_scripted_pathologies(self):
        mon = Monitor(default_train_rules())
        for step in range(10):
            loss = 2.0 - 0.1 * step
            mon.record("train/loss", loss, t=float(step))
            mon.record("train/grad_norm", 1.0 + 0.01 * step, t=float(step))
        assert mon.alerts == []              # clean prefix fires nothing
        mon.record("train/loss", 80.0, t=10.0)
        assert mon.fired("loss-spike") == 1
        mon.record("train/grad_norm", float("inf"), t=11.0)
        assert mon.fired("nonfinite-grad") == 1
        assert mon.verdict() == "critical"

    def test_throughput_regression_on_scripted_series(self):
        mon = Monitor(default_train_rules())
        for step in range(8):
            mon.record("train/step_s", 0.1, t=float(step))
        mon.record("train/step_s", 0.3, t=8.0)   # 3x the baseline
        assert mon.fired("throughput-regression") == 1

    def test_serve_pack_burn_rule(self):
        mon = Monitor(default_serve_rules(slo_p99_s=0.1))
        for i in range(16):
            mon.record("serve/latency_s", 0.05, t=0.1 * i)
        assert mon.alerts == []
        for i in range(16, 32):
            mon.record("serve/latency_s", 0.5, t=0.1 * i)
        assert mon.fired("p99-slo-burn") >= 1
