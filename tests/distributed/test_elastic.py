"""The elastic layer's plain records and the reshard pricing: canonical
state, fault-plan scripts, plan shrinking, reshard cost.  The reshard
itself is pinned bitwise against a fresh engine in
tests/train/test_elastic_engine.py."""

import numpy as np
import pytest

from repro.core import PAPER_CONFIGS
from repro.distributed import (
    CanonicalState,
    CompositePlan,
    FaultPlan,
    VirtualCluster,
    plan_cost_diff,
    reshard_cost,
)


def _plan(tp=1, fsdp=1, tiles=1, ddp=1):
    world = tp * fsdp * tiles * ddp
    return CompositePlan(VirtualCluster(world), tp=tp, fsdp=fsdp,
                         tiles=tiles, ddp=ddp)


class TestCanonicalState:
    def test_nbytes_counts_params_and_moments(self):
        n = 10
        state = CanonicalState(data=np.zeros(n), adam_m=np.zeros(n),
                               adam_v=np.zeros(n), adam_t=3)
        assert state.nbytes == 3 * n * 4

    def test_moment_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="adam_m"):
            CanonicalState(data=np.zeros(8), adam_m=np.zeros(7))


class TestFaultPlan:
    def test_schedule_lookup(self):
        fp = FaultPlan({2: (4, 5), 7: (1,)})
        assert fp.dead_at(2) == (4, 5)
        assert fp.dead_at(3) == ()

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
