"""CLI and dataset-serialization tests."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.data.io import ExportedDataset, export_dataset, load_exported


def _dataset(tmp=None):
    spec = DatasetSpec(name="io", fine_grid=Grid(16, 32), factor=4,
                       years=(2000, 2001), samples_per_year=2, seed=4,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=(2000, 2001))


class TestExport:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = _dataset()
        path = export_dataset(ds, tmp_path / "d.npz")
        loaded = load_exported(path)
        assert len(loaded) == len(ds)
        for i in range(len(ds)):
            x, y = ds.raw_pair(i)
            lx, ly = loaded.raw_pair(i)
            np.testing.assert_array_equal(x, lx)
            np.testing.assert_array_equal(y, ly)

    def test_loaded_samples_are_read_only(self, tmp_path):
        loaded = load_exported(export_dataset(_dataset(), tmp_path / "d.npz"))
        for arr in loaded.raw_pair(0):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_metadata_preserved(self, tmp_path):
        ds = _dataset()
        loaded = load_exported(export_dataset(ds, tmp_path / "d.npz"))
        assert loaded.metadata["factor"] == 4
        assert loaded.metadata["years"] == [2000, 2001]
        assert loaded.fine_grid == Grid(16, 32)
        assert "t2m" in loaded.metadata["variables"]

    def test_max_samples(self, tmp_path):
        ds = _dataset()
        loaded = load_exported(export_dataset(ds, tmp_path / "d.npz", max_samples=2))
        assert len(loaded) == 2

    def test_empty_rejected(self, tmp_path):
        ds = _dataset()
        with pytest.raises(ValueError):
            export_dataset(ds, tmp_path / "d.npz", max_samples=0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            ExportedDataset(np.zeros((2, 1, 4, 4)), np.zeros((3, 1, 8, 8)), {})


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        for cmd in ("train", "evaluate", "scale", "export"):
            args = parser.parse_args([cmd] + (["x.ckpt"] if cmd == "evaluate" else []))
            assert args.command == cmd

    def test_scale_command_runs(self, capsys):
        rc = main(["scale", "--model", "9.5M", "--gpus", "512", "2048"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "efficiency" in out and "sustained" in out

    def test_scale_plan_line(self, capsys):
        rc = main(["scale", "--model", "9.5M", "--gpus", "512", "2048", "--plan"])
        assert rc == 0
        out = capsys.readouterr().out
        assert ("composite plan on 2048 GPUs: tp=8 x fsdp=2 x tiles=16 x ddp=8"
                in out.splitlines())

    def test_export_command_runs(self, tmp_path, capsys):
        out_path = tmp_path / "cli.npz"
        rc = main(["export", "--grid", "16", "32", "--years", "1",
                   "--samples-per-year", "2", "--output", str(out_path)])
        assert rc == 0
        assert out_path.exists()
        assert len(load_exported(out_path)) == 2

    def test_train_then_evaluate_roundtrip(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        rc = main(["train", "--epochs", "2", "--grid", "16", "32",
                   "--years", "1", "--samples-per-year", "2",
                   "--embed-dim", "16", "--depth", "1", "--heads", "2",
                   "--output", str(ckpt)])
        assert rc == 0 and ckpt.exists()
        rc = main(["evaluate", str(ckpt), "--grid", "16", "32",
                   "--embed-dim", "16", "--depth", "1", "--heads", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t2m" in out and "R2" in out
