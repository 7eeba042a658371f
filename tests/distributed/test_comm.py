"""Collective-algorithm correctness and topology tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    FRONTIER,
    FrontierTopology,
    LinkLevel,
    ProcessGroup,
    VirtualCluster,
)


def _bufs(world, n=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n).astype(np.float32) for _ in range(world)]


class TestTopology:
    def test_link_levels(self):
        t = FrontierTopology()
        assert t.link_level(0, 0) == LinkLevel.SAME_GPU
        assert t.link_level(0, 1) == LinkLevel.SAME_CARD
        assert t.link_level(0, 2) == LinkLevel.SAME_NODE
        assert t.link_level(0, 8) == LinkLevel.CROSS_NODE

    def test_bandwidth_hierarchy(self):
        t = FrontierTopology()
        assert t.bandwidth(0, 1) > t.bandwidth(0, 2) > t.bandwidth(0, 8)

    def test_latency_hierarchy(self):
        t = FrontierTopology()
        assert t.latency(0, 1) < t.latency(0, 2) < t.latency(0, 8)

    def test_gpu_spec_memory(self):
        assert FRONTIER.gpu.memory_bytes == 64 * 1024**3
        assert FRONTIER.gpu.usable_memory_bytes < FRONTIER.gpu.memory_bytes

    def test_group_bottleneck_cross_node(self):
        t = FrontierTopology()
        bw, lat = t.group_bottleneck(list(range(16)))
        assert bw == t.bw_cross_node
        assert lat == t.lat_cross_node

    def test_group_bottleneck_single(self):
        bw, lat = FrontierTopology().group_bottleneck([3])
        assert bw == float("inf") and lat == 0.0


class TestAllReduce:
    @pytest.mark.parametrize("world", [1, 2, 3, 4, 8])
    def test_mean_matches_numpy(self, world):
        g = ProcessGroup(list(range(world)))
        bufs = _bufs(world, n=37, seed=world)
        out = g.all_reduce(bufs, op="mean")
        expected = np.mean(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, expected, rtol=1e-5, atol=1e-6)

    def test_sum(self):
        g = ProcessGroup([0, 1, 2])
        out = g.all_reduce(_bufs(3), op="sum")
        np.testing.assert_allclose(out[0], np.sum(_bufs(3), axis=0), rtol=1e-5)

    def test_all_ranks_identical(self):
        g = ProcessGroup(list(range(5)))
        out = g.all_reduce(_bufs(5, seed=9))
        for o in out[1:]:
            np.testing.assert_array_equal(o, out[0])

    def test_preserves_shape(self):
        g = ProcessGroup([0, 1])
        bufs = [np.ones((3, 4), dtype=np.float32) for _ in range(2)]
        out = g.all_reduce(bufs)
        assert out[0].shape == (3, 4)

    def test_records_canonical_volume(self):
        g = ProcessGroup(list(range(4)))
        bufs = _bufs(4, n=100)
        g.all_reduce(bufs)
        sent = g.stats.bytes_per_rank["all_reduce"]
        assert sent == pytest.approx(2 * 3 / 4 * 400)

    def test_rejects_mismatched_buffers(self):
        g = ProcessGroup([0, 1])
        with pytest.raises(ValueError):
            g.all_reduce([np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32)])
        with pytest.raises(ValueError):
            g.all_reduce(_bufs(3))  # wrong count
        with pytest.raises(ValueError):
            g.all_reduce(_bufs(2), op="max")

    @pytest.mark.parametrize("chunks", [
        [np.arange(0, 4), np.arange(5, 10)],            # gap: 4 never reduced
        [np.arange(0, 6), np.arange(4, 10)],            # overlap: 4, 5 twice
        [np.array([0, 2, 4, 6, 8]), np.array([1, 3, 5, 7, 9])],  # strided
        [np.arange(5, 10), np.arange(0, 5)],            # out of order
        [np.arange(0, 5), np.arange(5, 9)],             # short of n
        [np.arange(0, 10)],                             # wrong count
    ])
    @pytest.mark.parametrize("call", ["all_reduce", "all_reduce_async"])
    def test_rejects_chunks_that_do_not_tile_the_buffer(self, chunks, call):
        g = ProcessGroup([0, 1])
        with pytest.raises(ValueError, match="chunk"):
            getattr(g, call)(_bufs(2, n=10), op="mean", chunks=chunks)

    def test_explicit_chunks_with_empty_runs(self):
        g = ProcessGroup([0, 1, 2])
        bufs = _bufs(3, n=10)
        empty = np.empty(0, dtype=np.int64)
        got = g.all_reduce(bufs, op="sum",
                           chunks=[np.arange(0, 10), empty, empty])
        np.testing.assert_allclose(got[0], np.sum(bufs, axis=0), rtol=1e-6)

    @given(st.integers(2, 7), st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_property_mean_invariant(self, world, n):
        g = ProcessGroup(list(range(world)))
        bufs = _bufs(world, n=n, seed=world * 100 + n)
        out = g.all_reduce(bufs, op="mean")
        np.testing.assert_allclose(out[0], np.mean(bufs, axis=0), rtol=1e-4, atol=1e-5)


class TestOtherCollectives:
    def test_all_gather_concatenates_in_rank_order(self):
        g = ProcessGroup([0, 1, 2])
        bufs = [np.full(2, i, dtype=np.float32) for i in range(3)]
        out = g.all_gather(bufs)
        np.testing.assert_array_equal(out[0], [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(out[1], out[0])

    def test_reduce_scatter_slices(self):
        g = ProcessGroup([0, 1])
        bufs = [np.arange(4, dtype=np.float32), np.arange(4, dtype=np.float32)]
        out = g.reduce_scatter(bufs, op="sum")
        np.testing.assert_array_equal(out[0], [0, 2])
        np.testing.assert_array_equal(out[1], [4, 6])

    def test_reduce_scatter_then_gather_equals_allreduce(self):
        g = ProcessGroup(list(range(4)))
        bufs = [b.reshape(4, 5) for b in _bufs(4, n=20, seed=3)]
        rs = g.reduce_scatter(bufs, op="sum")
        ag = g.all_gather(rs)
        ar = g.all_reduce(bufs, op="sum")
        np.testing.assert_allclose(ag[0], ar[0], rtol=1e-5, atol=1e-5)

    def test_reduce_scatter_divisibility(self):
        g = ProcessGroup([0, 1, 2])
        with pytest.raises(ValueError):
            g.reduce_scatter([np.zeros(4, dtype=np.float32)] * 3)

    def test_all_to_all_transpose_property(self):
        g = ProcessGroup(list(range(4)))
        # rank i sends value 10*i+j in slice j
        bufs = [np.array([10.0 * i + j for j in range(4)], dtype=np.float32)
                for i in range(4)]
        out = g.all_to_all(bufs)
        # rank j receives rank i's slice j at position i
        for j in range(4):
            np.testing.assert_array_equal(out[j], [10.0 * i + j for i in range(4)])

    def test_collective_time_positive_and_monotone(self):
        g = ProcessGroup(list(range(8)))
        t_small = g.collective_time("all_reduce", 1024)
        t_large = g.collective_time("all_reduce", 1024**2)
        assert 0 < t_small < t_large
        assert ProcessGroup([0]).collective_time("all_reduce", 1024) == 0.0
        with pytest.raises(ValueError):
            g.collective_time("gather", 10)


class TestVirtualCluster:

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualCluster(0)
        with pytest.raises(ValueError):
            VirtualCluster(8).group([99])
