"""Collective conformance: values vs naive numpy, bytes vs the analytic
formulas — with odd world sizes and ragged shapes, where ring algorithms
commonly break off the power-of-two path."""

import numpy as np
import pytest

from repro.distributed import ProcessGroup
from repro.testing import (
    ASYNC_COLLECTIVES,
    COLLECTIVES,
    ConformanceFailure,
    check_async_collective,
    check_collective,
    expected_sent_bytes,
    run_async_conformance,
    run_conformance,
)

ODD_WORLDS = (3, 5, 7)
ALL_WORLDS = (1, 2, 3, 4, 5, 7, 8)
RAGGED_SHAPES = ((37,), (5, 3), (2, 3, 5))


class TestEveryCollective:
    @pytest.mark.parametrize("op", COLLECTIVES)
    @pytest.mark.parametrize("world", ALL_WORLDS)
    def test_values_and_bytes(self, op, world):
        if op in ("reduce_scatter", "all_to_all"):
            shape = (world * 3, 5)  # contract: leading dim % world == 0
        else:
            shape = (37,)
        result = check_collective(op, world, shape, seed=world)
        assert result.recorded_bytes == pytest.approx(result.expected_bytes)

    @pytest.mark.parametrize("op", ["all_reduce", "all_gather", "broadcast"])
    @pytest.mark.parametrize("world", ODD_WORLDS)
    @pytest.mark.parametrize("shape", RAGGED_SHAPES)
    def test_ragged_shapes_on_odd_worlds(self, op, world, shape):
        check_collective(op, world, shape, seed=17)

    @pytest.mark.parametrize("op", ["reduce_scatter", "all_to_all"])
    @pytest.mark.parametrize("world", ODD_WORLDS)
    def test_odd_multiples_of_world(self, op, world):
        # leading dims that are odd multiples, with ragged trailing dims
        for k in (1, 3, 7):
            check_collective(op, world, (world * k, 3), seed=23)


class TestContracts:
    @pytest.mark.parametrize("op", ["reduce_scatter", "all_to_all"])
    def test_non_divisible_leading_dim_rejected(self, op):
        g = ProcessGroup([0, 1, 2])
        bufs = [np.zeros((7, 2), dtype=np.float32) for _ in range(3)]
        with pytest.raises(ValueError, match="divisible"):
            getattr(g, op)(bufs)

    def test_mismatched_buffer_shapes_rejected(self):
        g = ProcessGroup([0, 1])
        with pytest.raises(ValueError):
            g.all_reduce([np.zeros(3, np.float32), np.zeros(4, np.float32)])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            check_collective("all_shuffle", 2, (4,))
        with pytest.raises(ValueError):
            expected_sent_bytes("all_shuffle", 2, 16)


class TestAnalyticFormulas:
    def test_formulas_match_cost_model_volumes(self):
        """expected_sent_bytes must price the same volumes as
        ProcessGroup.collective_time (the perf model's inputs)."""
        n = 4096
        for world in (2, 3, 8):
            p = world
            assert expected_sent_bytes("all_reduce", p, n) == 2 * (p - 1) / p * n
            assert expected_sent_bytes("all_gather", p, n) == (p - 1) * n
            assert expected_sent_bytes("reduce_scatter", p, n) == (p - 1) / p * n
            assert expected_sent_bytes("all_to_all", p, n) == (p - 1) / p * n
            assert expected_sent_bytes("broadcast", p, n) == \
                n * np.log2(max(p, 2)) / p

    def test_world_one_records_zero_bytes(self):
        """Degenerate single-rank groups must still account their calls.

        Every collective moves zero bytes at world=1 except broadcast,
        whose log2(max(P, 2)) floor deliberately keeps the tree model's
        one-hop cost (the formula the perf model prices).
        """
        for op in COLLECTIVES:
            shape = (1,) if op not in ("reduce_scatter", "all_to_all") else (1, 2)
            r = check_collective(op, 1, shape)
            if op == "broadcast":
                assert r.recorded_bytes == pytest.approx(4.0)  # 1 float32 x log2(2)
            else:
                assert r.recorded_bytes == 0.0


class TestFullSweep:
    def test_default_sweep_passes(self):
        report = run_conformance()
        assert report.checks == len(COLLECTIVES) * len(ALL_WORLDS) * 4
        assert "worst value error" in report.summary()

    def test_detects_corrupted_accounting(self, monkeypatch):
        """If an implementation under-reports traffic, conformance fails."""
        orig = ProcessGroup.all_gather

        def lying(self, buffers):
            out = orig(self, buffers)
            self.stats.bytes_per_rank["all_gather"] *= 0.5
            return out

        monkeypatch.setattr(ProcessGroup, "all_gather", lying)
        with pytest.raises(ConformanceFailure, match="sent_bytes_per_rank"):
            check_collective("all_gather", 4, (8,))

    def test_detects_corrupted_values(self, monkeypatch):
        orig = ProcessGroup.all_reduce

        def corrupt(self, buffers, op="mean"):
            out = orig(self, buffers, op=op)
            out[0][...] += 1.0
            return out

        monkeypatch.setattr(ProcessGroup, "all_reduce", corrupt)
        with pytest.raises(ConformanceFailure, match="value mismatch"):
            check_collective("all_reduce", 3, (5,))

    def test_detects_nan_values(self, monkeypatch):
        """A NaN never compares greater than a bound; it must still fail."""
        orig = ProcessGroup.all_reduce

        def poison(self, buffers, op="mean"):
            out = orig(self, buffers, op=op)
            out[0][1] = np.nan
            return out

        monkeypatch.setattr(ProcessGroup, "all_reduce", poison)
        with pytest.raises(ConformanceFailure, match="value mismatch"):
            check_collective("all_reduce", 3, (5,))


class TestAsyncConformance:
    """Async collectives: bit-identity with the sync twin, equal traffic."""

    @pytest.mark.parametrize("op", ASYNC_COLLECTIVES)
    @pytest.mark.parametrize("world", ALL_WORLDS)
    def test_async_equals_sync(self, op, world):
        if op == "reduce_scatter":
            shape = (world * 3, 5)
        else:
            shape = (37,)
        result = check_async_collective(op, world, shape, seed=world)
        assert result.max_abs_err == 0.0  # bit-identical, not tolerance

    @pytest.mark.parametrize("world", ODD_WORLDS)
    def test_odd_worlds_with_ragged_shapes(self, world):
        for shape in RAGGED_SHAPES:
            check_async_collective("all_reduce", world, shape, seed=17)
            check_async_collective("all_gather", world, shape, seed=17)

    def test_full_async_sweep_passes(self):
        report = run_async_conformance()
        assert report.checks == len(ASYNC_COLLECTIVES) * len(ALL_WORLDS) * 4
        assert max((r.max_abs_err for r in report.results), default=1.0) == 0.0

    def test_detects_diverging_async_values(self, monkeypatch):
        from repro.distributed.comm import Work

        orig = Work.wait

        def corrupt(self):
            out = orig(self)
            out[0][...] += 1.0
            return out

        monkeypatch.setattr(Work, "wait", corrupt)
        with pytest.raises(ConformanceFailure, match="not bit-identical"):
            check_async_collective("all_reduce", 3, (5,))

    def test_sync_only_collectives_rejected(self):
        with pytest.raises(ValueError, match="no async variant"):
            check_async_collective("broadcast", 2, (4,))
        with pytest.raises(ValueError, match="no async variant"):
            run_async_conformance(ops=("all_to_all",))
