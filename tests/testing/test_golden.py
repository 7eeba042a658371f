"""Golden-file harness: create/check/update lifecycle and drift detection."""

import importlib
from pathlib import Path

import pytest

from repro.testing import (
    GoldenMismatch,
    check_golden,
    extract_numbers,
    structure_of,
    update_requested,
)

TABLE = "model    R2     time\n9.5M   0.91   12.5s\n126M   0.94   98.1s\n"

BENCH_SCRIPTS = sorted(
    (Path(__file__).resolve().parents[2] / "benchmarks").glob("bench_*.py"))


class TestParsing:
    def test_extract_numbers(self):
        assert extract_numbers("a 1.5 b -2e-3 c 40") == [1.5, -2e-3, 40.0]

    def test_structure_replaces_numbers(self):
        s = structure_of("speedup 9.8x over 2 nodes")
        assert "9.8" not in s and "<num>" in s
        assert structure_of("speedup 1.1x over 4 nodes") == s


class TestLifecycle:
    def test_create_then_check(self, tmp_path):
        assert check_golden("t", TABLE, tmp_path) == "created"
        assert (tmp_path / "t.golden").read_text() == TABLE
        assert check_golden("t", TABLE, tmp_path) == "checked"

    def test_within_tolerance_passes(self, tmp_path):
        check_golden("t", TABLE, tmp_path)
        drifted = TABLE.replace("12.5", "13.9")  # ~11% drift, rtol=0.5
        assert check_golden("t", drifted, tmp_path) == "checked"

    def test_number_drift_beyond_tolerance_fails(self, tmp_path):
        check_golden("t", TABLE, tmp_path)
        drifted = TABLE.replace("0.91", "0.31")
        with pytest.raises(GoldenMismatch, match="drifted"):
            check_golden("t", drifted, tmp_path, rtol=0.05)

    def test_structural_change_fails_even_within_tolerance(self, tmp_path):
        check_golden("t", TABLE, tmp_path)
        with pytest.raises(GoldenMismatch, match="structure"):
            check_golden("t", TABLE.replace("model", "MODEL"), tmp_path)

    def test_update_flag_rewrites(self, tmp_path):
        check_golden("t", TABLE, tmp_path)
        new = TABLE.replace("0.91", "0.11")
        assert check_golden("t", new, tmp_path, argv=["--update-golden"]) == "updated"
        assert check_golden("t", new, tmp_path, rtol=0.01) == "checked"

    def test_update_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_UPDATE_GOLDEN", "1")
        assert update_requested(argv=[])
        assert check_golden("t", TABLE, tmp_path, argv=[]) == "updated"
        monkeypatch.setenv("REPRO_UPDATE_GOLDEN", "0")
        assert not update_requested(argv=[])


class TestTierOneGoldens:
    def test_missing_golden_fails_instead_of_creating(self, tmp_path,
                                                      monkeypatch):
        """A tier-1 golden check pointed at an empty directory must fail,
        and must not leave a file behind that would make a rerun pass."""
        from tests import golden
        from tests.tensor.test_engine_counts import test_engine_counts_golden

        monkeypatch.delenv("REPRO_UPDATE_GOLDEN", raising=False)
        monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
        with pytest.raises(AssertionError, match="no golden file"):
            test_engine_counts_golden()
        assert list(tmp_path.iterdir()) == []


class TestBenchmarkWiring:
    def test_write_table_regression_checks(self, tmp_path, monkeypatch):
        """benchmarks.common.write_table must create a golden on first
        write and reject out-of-tolerance drift on the next."""
        import sys
        sys.path.insert(0, "benchmarks")
        try:
            import common
        finally:
            sys.path.pop(0)
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path / "results")
        monkeypatch.setattr(common, "GOLDEN_DIR", tmp_path / "golden")
        common.write_table("unit", ["x 1.00"])
        assert (tmp_path / "golden" / "unit.golden").exists()
        common.write_table("unit", ["x 1.01"])  # within rtol=0.5
        with pytest.raises(GoldenMismatch):
            common.write_table("unit", ["x 99.0"])

    @pytest.mark.parametrize("path", BENCH_SCRIPTS, ids=lambda p: p.stem)
    def test_bench_script_imports(self, path):
        """The paper-figure scripts run outside tier-1; importing them
        here catches a ``benchmarks.common`` helper they still use being
        deleted or renamed."""
        importlib.import_module(f"benchmarks.{path.stem}")
