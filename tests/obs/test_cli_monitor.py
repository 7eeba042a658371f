"""CLI surface: ``repro monitor`` and ``repro health``."""

import json

from repro.cli import main


class TestMonitorCommand:
    def test_clean_scenario_healthy_exit_zero(self, capsys):
        rc = main(["monitor", "--quick", "--scenario", "train"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no alerts fired" in out
        assert "verdict: healthy  [ok]" in out

    def test_injected_scenario_fires_and_dumps(self, tmp_path, capsys):
        dump = tmp_path / "dump.json"
        rc = main(["monitor", "--quick", "--scenario", "train",
                   "--inject", "nan", "--dump-out", str(dump)])
        assert rc == 0            # injected rules fired as intended
        out = capsys.readouterr().out
        assert "nonfinite-loss" in out
        assert "verdict: critical  [ok]" in out
        assert "expected rules fired: 2/2" in out
        doc = json.loads(dump.read_text())
        assert doc["schema"] == "flight_recorder/v1"
        assert doc["reason"] == "cli:train:nan"

    def test_trace_out_carries_alert_annotations(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(["monitor", "--quick", "--scenario", "elastic",
                   "--inject", "rank-death", "--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert {e["name"] for e in inst} == {"alert/rank-failure",
                                             "alert/replan"}

    def test_bad_injection_exits_two(self, capsys):
        rc = main(["monitor", "--scenario", "serve", "--inject", "nan"])
        assert rc == 2
        assert "not valid" in capsys.readouterr().err


class TestHealthCommand:
    def test_renders_dump(self, tmp_path, capsys):
        dump = tmp_path / "dump.json"
        assert main(["monitor", "--quick", "--inject", "loss-spike",
                     "--dump-out", str(dump)]) == 0
        capsys.readouterr()
        rc = main(["health", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flight recorder dump" in out
        assert "loss-spike" in out

    def test_rejects_non_dump_json(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text('{"schema": "other/v1"}')
        assert main(["health", str(bogus)]) == 2
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "absent.json")]) == 2

