"""The elastic remap layer: pure state re-slicing across composite plans.

The headline property — old plan → canonical → new plan → canonical →
old plan is bitwise — holds structurally because export and import are
pure slicing of the same float32 bytes; the hypothesis test pins it over
random layouts (including odd worlds), and the rest of the file covers
the validation surface (missing/diverged/misshapen shards, fault-plan
scripts, reshard-cost accounting).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAPER_CONFIGS
from repro.distributed import (
    CanonicalState,
    CompositePlan,
    FaultPlan,
    VirtualCluster,
    plan_cost_diff,
    remap_state,
    reshard_cost,
    shard_slices,
    shard_state,
    unshard_state,
)


def _plan(tp=1, fsdp=1, tiles=1, ddp=1):
    world = tp * fsdp * tiles * ddp
    return CompositePlan(VirtualCluster(world), tp=tp, fsdp=fsdp,
                         tiles=tiles, ddp=ddp)


LAYOUTS = st.tuples(
    st.sampled_from([1, 2, 3]),   # tp
    st.sampled_from([1, 2, 3, 5]),  # fsdp (odd shards exercise padding)
    st.sampled_from([1, 2]),      # tiles
    st.sampled_from([1, 2, 3]),   # ddp
)


class TestRemapRoundTrip:
    @given(old=LAYOUTS, new=LAYOUTS, size=st.integers(1, 97),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bitwise(self, old, new, size, seed):
        """old → canonical → new → canonical → old returns the exact bytes."""
        old_plan, new_plan = _plan(*old), _plan(*new)
        vec = np.random.default_rng(seed).standard_normal(size).astype(np.float32)
        old_shards = shard_state(old_plan, vec)

        new_shards = remap_state(old_plan, new_plan, old_shards, size)
        back = remap_state(new_plan, old_plan, new_shards, size)

        assert set(back) == set(old_shards)
        for rank in old_shards:
            assert back[rank].tobytes() == old_shards[rank].tobytes()
        # and the canonical vector itself survives both hops untouched
        np.testing.assert_array_equal(
            unshard_state(old_plan, back, size), vec)

    @given(layout=LAYOUTS, size=st.integers(1, 97))
    @settings(max_examples=30, deadline=None)
    def test_shard_slices_cover_padded_vector(self, layout, size):
        plan = _plan(*layout)
        slices = shard_slices(plan, size)
        assert set(slices) == set(range(plan.world))
        padded = -(-size // plan.fsdp) * plan.fsdp
        ln = padded // plan.fsdp
        covered = sorted({(lo, hi) for lo, hi in slices.values()})
        assert covered == [(f * ln, (f + 1) * ln) for f in range(plan.fsdp)]


class TestValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError, match="size"):
            shard_slices(_plan(fsdp=2), 0)

    def test_unshard_missing_rank(self):
        plan = _plan(fsdp=2, ddp=2)
        shards = shard_state(plan, np.arange(6, dtype=np.float32))
        del shards[3]
        with pytest.raises(ValueError, match=r"missing shards .*\[3\]"):
            unshard_state(plan, shards, 6)

    def test_unshard_wrong_shard_size(self):
        plan = _plan(fsdp=2)
        shards = shard_state(plan, np.arange(6, dtype=np.float32))
        shards[1] = shards[1][:-1]
        with pytest.raises(ValueError, match="rank 1 shard has 2"):
            unshard_state(plan, shards, 6)

    def test_unshard_detects_replica_divergence(self):
        plan = _plan(fsdp=2, ddp=2)  # each fsdp shard replicated over ddp
        shards = shard_state(plan, np.arange(6, dtype=np.float32))
        shards[2] = shards[2] + 1.0  # rank 2 replicates rank 0's shard
        with pytest.raises(ValueError, match="diverged"):
            unshard_state(plan, shards, 6)

    def test_identical_nan_replicas_round_trip(self):
        """Replicas are compared byte-for-byte, so NaN != NaN is moot."""
        plan = _plan(fsdp=2, ddp=2)
        v = np.arange(10, dtype=np.float32)
        v[3] = np.nan
        back = unshard_state(plan, shard_state(plan, v), 10)
        assert back.tobytes() == v.tobytes()
        moved = remap_state(plan, _plan(fsdp=4), shard_state(plan, v), 10)
        fresh = shard_state(_plan(fsdp=4), v)
        assert all(moved[r].tobytes() == fresh[r].tobytes() for r in fresh)

    def test_nan_payload_bit_flip_is_divergence(self):
        plan = _plan(fsdp=2, ddp=2)
        v = np.arange(10, dtype=np.float32)
        v[3] = np.nan
        shards = shard_state(plan, v)
        flipped = shards[2].copy()
        flipped.view(np.uint32)[3] ^= 1  # still a NaN, one payload bit off
        assert np.isnan(flipped[3])
        shards[2] = flipped
        with pytest.raises(ValueError, match="rank 2 shard diverged"):
            unshard_state(plan, shards, 10)


class TestCanonicalState:
    def test_nbytes_counts_params_and_moments(self):
        n = 10
        state = CanonicalState(data=np.zeros(n), adam_m=np.zeros(n),
                               adam_v=np.zeros(n), adam_t=3)
        assert state.size == n
        assert state.nbytes == 3 * n * 4
        assert set(state.vectors()) == {"data", "adam_m", "adam_v"}

    def test_moment_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="adam_m"):
            CanonicalState(data=np.zeros(8), adam_m=np.zeros(7))

    def test_copy_is_deep(self):
        state = CanonicalState(data=np.zeros(4), extra={"loss_scale": 2.0})
        dup = state.copy()
        dup.data[0] = 5.0
        dup.extra["loss_scale"] = 9.0
        assert state.data[0] == 0.0 and state.extra["loss_scale"] == 2.0


class TestFaultPlan:
    def test_schedule_lookup(self):
        fp = FaultPlan({2: (4, 5), 7: (1,)})
        assert fp.dead_at(2) == (4, 5)
        assert fp.dead_at(3) == ()
        assert fp.last_step == 7

    def test_rejects_bad_scripts(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultPlan({-1: (0,)})
        with pytest.raises(ValueError, match="kills no ranks"):
            FaultPlan({0: ()})
        with pytest.raises(ValueError, match="repeats"):
            FaultPlan({0: (1, 1)})


class TestShrinkTo:
    def test_shrink_preserves_batch_axes(self):
        plan = _plan(fsdp=2, tiles=2, ddp=2)
        small = plan.shrink_to(4)
        assert small.layout() == {"world": 4, "tp": 1, "fsdp": 1,
                                  "tiles": 2, "ddp": 2}

    def test_shrink_rejects_indivisible_world(self):
        plan = _plan(tiles=2, ddp=2)
        with pytest.raises(ValueError):
            plan.shrink_to(3)


class TestReshardCost:
    CFG = PAPER_CONFIGS["9.5M"]

    def test_cost_components_scale_with_state(self):
        old, new = _plan(tiles=2, ddp=2), _plan(fsdp=2, tiles=2, ddp=2)
        small = reshard_cost(old, new, 1 << 20)
        large = reshard_cost(old, new, 1 << 24)
        for cost in (small, large):
            assert cost["bytes_moved"] == 2 * cost["state_bytes"]
            assert cost["downtime_s"] == pytest.approx(
                cost["export_s"] + cost["import_s"] + cost["revalidate_s"])
        assert large["downtime_s"] > small["downtime_s"]

    def test_plan_cost_diff_joins_rows(self):
        old, new = _plan(tiles=2, ddp=2), _plan(fsdp=2, tiles=2, ddp=2)
        diff = plan_cost_diff(old, new, self.CFG)
        assert diff["old"]["world"] == 4 and diff["new"]["world"] == 8
        assert diff["rows"], "comm-cost join produced no rows"
        for row in diff["rows"]:
            assert row["delta_time_s"] == pytest.approx(
                row["new_time_s"] - row["old_time_s"])
        assert diff["delta_total_s"] == pytest.approx(
            diff["new_total_s"] - diff["old_total_s"])
        assert diff["reshard"]["state_bytes"] > 0
