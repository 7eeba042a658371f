"""Collective instrumentation: runtime spans, modeled timelines, and their
consistency with ``plan_comm_costs`` — same bytes, same ring pricing."""

import numpy as np
import pytest

from repro.core import ModelConfig, PAPER_CONFIGS, Reslim
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    VirtualCluster,
    modeled_step_timeline,
    plan_comm_costs,
    step_traffic_schedule,
)
from repro.obs import SimClock, Tracer


def _tracer():
    wall = [0.0]
    return Tracer(clock=SimClock(wall=lambda: wall[0]), trace_engine_ops=False)


class TestProcessGroupTracing:
    @pytest.mark.parametrize("op", ["all_reduce", "all_gather",
                                    "reduce_scatter", "all_to_all"])
    def test_collective_span_prices_match_ring_model(self, op):
        cluster = VirtualCluster(4)
        group = cluster.group([0, 1, 2, 3])
        buffers = [np.ones(256, dtype=np.float32) for _ in group.ranks]
        tr = _tracer()
        with tr:
            getattr(group, op)(buffers)
        spans = [s for s in tr.spans if s.name == f"comm/{op}"]
        assert sorted(s.rank for s in spans) == [0, 1, 2, 3]
        # all_gather's buffers are shards: the payload is the gathered P
        payload = buffers[0].nbytes * (len(buffers) if op == "all_gather" else 1)
        expected = group.collective_time(op, payload)
        for sp in spans:
            assert sp.args["bytes"] == payload
            assert sp.dur_s == pytest.approx(expected)
        # the modeled time advanced every member's simulated clock
        assert tr.clock.offset(0) == pytest.approx(expected)

    def test_size_one_group_emits_nothing(self):
        group = VirtualCluster(2).group([0])
        tr = _tracer()
        with tr:
            group.all_reduce([np.ones(8, dtype=np.float32)])
        assert tr.spans == []

    def test_untraced_collectives_still_work(self):
        group = VirtualCluster(2).group([0, 1])
        out = group.all_reduce([np.ones(8, dtype=np.float32),
                                np.full(8, 3.0, dtype=np.float32)])
        np.testing.assert_allclose(out[0], 2.0)


class TestScheduleConsistency:
    """`step_traffic_schedule` is the single pricing source: the cost
    table, the modeled timeline, and the tracer must agree on bytes."""

    def test_plan_costs_aggregate_schedule(self):
        cfg = PAPER_CONFIGS["1B"]
        plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
        rows = {(r["level"], r["op"]): r for r in plan_comm_costs(plan, cfg)}
        agg: dict[tuple, dict] = {}
        for e in step_traffic_schedule(cfg):
            key = (e["level"], e["op"])
            agg.setdefault(key, {"calls": 0, "nbytes": e["nbytes"]})
            agg[key]["calls"] += e["calls"]
        assert set(rows) == set(agg)
        for key, exp in agg.items():
            assert rows[key]["calls"] == exp["calls"]
            assert rows[key]["bytes_per_call"] == exp["nbytes"]

    def test_timeline_durations_match_cost_table(self):
        cfg = PAPER_CONFIGS["1B"]
        plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
        spans = modeled_step_timeline(plan, cfg)
        rows = plan_comm_costs(plan, cfg)
        for row in rows:
            if row["time_s"] == 0.0:
                continue
            mine = [s for s in spans if s.rank == 0 and s.cat == "comm"
                    and s.args["level"] == row["level"]
                    and s.args["op"] == row["op"]]
            assert sum(s.dur_s for s in mine) == pytest.approx(row["time_s"])
            assert sum(s.args["calls"] for s in mine) == row["calls"]
            assert all(s.args["bytes"] == row["bytes_per_call"] for s in mine)

    def test_timeline_covers_every_rank_and_orders_phases(self):
        cfg = PAPER_CONFIGS["1B"]
        plan = CompositePlan(VirtualCluster(8), tp=2, fsdp=2, tiles=2, ddp=1)
        spans = modeled_step_timeline(plan, cfg)
        assert {s.rank for s in spans} == set(range(8))
        r0 = [s for s in spans if s.rank == 0]
        fwd = next(s for s in r0 if s.name == "compute/forward")
        bwd = next(s for s in r0 if s.name == "compute/backward")
        assert bwd.start_s >= fwd.end_s
        assert bwd.dur_s == pytest.approx(2.0 * fwd.dur_s)
        # every span is monotone and non-negative on its rank timeline
        for rank in range(8):
            mine = sorted((s for s in spans if s.rank == rank),
                          key=lambda s: s.start_s)
            assert all(s.dur_s >= 0 for s in mine)

    def test_trivial_plan_has_no_comm(self):
        cfg = ModelConfig("t", embed_dim=16, depth=1, num_heads=4)
        plan = CompositePlan(VirtualCluster(1), tp=1, fsdp=1, tiles=1, ddp=1)
        spans = modeled_step_timeline(plan, cfg)
        assert all(s.cat == "compute" for s in spans)


class TestStrategyTracing:
    def _run_strategy(self):
        cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=8)
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=2, tiles=2, ddp=1)
        strategy = CompositeStrategy(plan, loss_fn=_mse, halo=2, factor=2)
        strategy.setup(lambda u: Reslim(cfg, 2, 1, factor=2, max_tokens=256,
                                        rng=np.random.default_rng(u)))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 16, 16)).astype(np.float32)
        y = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
        strategy.forward_backward(x, y)
        strategy.reduce_gradients()
        return strategy

    def test_reduce_phases_and_collectives_traced(self):
        tr = _tracer()
        with tr:
            strategy = self._run_strategy()
        names = {s.name for s in tr.spans}
        assert "reduce/fsdp_reduce_scatter" in names
        assert "reduce/tiles_all_reduce" in names
        assert "reduce/fsdp_all_gather" in names
        assert tr.metrics.counters["comm/reduce_scatter/calls"] >= 1
        # runtime payload bytes were recorded on the comm spans
        rs = [s for s in tr.spans if s.name == "comm/reduce_scatter"]
        assert rs and all(s.args["bytes"] > 0 for s in rs)

    def test_comm_summary_reset_kwarg(self):
        strategy = self._run_strategy()
        first = strategy.comm_summary(reset=True)
        assert first["tiles_level_bytes"] > 0
        after = strategy.comm_summary()
        assert after["tiles_level_bytes"] == 0.0


def _mse(pred, target):
    d = pred - target
    return (d * d).mean()
