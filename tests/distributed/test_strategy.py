"""CompositePlan geometry and the composed TP x FSDP x TILES x DDP stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PAPER_CONFIGS
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    VirtualCluster,
    plan_comm_costs,
)
from repro.testing import check_parallel_equivalence
from repro.testing.equivalence import (
    _SPECS,
    _apply_flat_sgd,
    _make_model,
    flatten_params,
    oracle_config,
)


def _mse(pred, target):
    d = pred - target
    return (d * d).mean()


class TestCompositePlan:
    def test_product_must_equal_world(self):
        with pytest.raises(ValueError, match=r"2x2x2x2 = 16 != world 8"):
            CompositePlan(VirtualCluster(8), tp=2, fsdp=2, tiles=2, ddp=2)

    def test_level_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            CompositePlan(VirtualCluster(4), tp=0, fsdp=1, tiles=1, ddp=4)

    def test_tp_must_fit_in_a_node(self):
        with pytest.raises(ValueError):
            CompositePlan(VirtualCluster(16), tp=16, fsdp=1, tiles=1, ddp=1)

    def test_rank_layout_tp_innermost(self):
        plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
        # TP groups are contiguous rank pairs — the in-node placement
        assert plan.tp_ranks(0, 0, 0) == [0, 1]
        assert plan.tp_ranks(1, 1, 1) == [14, 15]
        assert plan.fsdp_ranks(0, 0, 0) == [0, 2]
        assert plan.rank(1, 1, 1, 1) == 15

    def test_validate_partitions_every_level(self):
        plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
        plan.validate()
        sets = plan.level_rank_sets()
        world = set(range(16))
        for level, groups in sets.items():
            seen = [r for g in groups for r in g]
            assert sorted(seen) == sorted(world), level

    def test_communication_hierarchy_matches_fig5(self):
        plan = CompositePlan(VirtualCluster(32), tp=8, fsdp=2, tiles=2, ddp=1)
        h = plan.communication_hierarchy()
        assert h["tp"] == "SAME_NODE"
        assert h["fsdp"] == "CROSS_NODE"
        assert h["ddp"] == "local"

    def test_fig5_invalid_worlds(self):
        with pytest.raises(ValueError):  # 10 GPUs hold no 16-GPU group
            CompositePlan(VirtualCluster(10), tp=8, fsdp=2, tiles=1, ddp=10 // 16)
        with pytest.raises(ValueError):  # tp=5 does not tile a 16-GPU group
            CompositePlan(VirtualCluster(64), tp=5, fsdp=16 // 5, tiles=1, ddp=4)


class TestCompositeStrategy:
    def test_oracle_world8(self):
        check_parallel_equivalence("composite", world=8)

    @pytest.mark.slow
    def test_oracle_world16_with_tp(self):
        check_parallel_equivalence("composite", world=16)

    def test_two_level_reduce_equals_global_gradient(self):
        """The composition law at ``tp=1, fsdp=1`` against a reference
        written out by hand (not the strategy's own ``reference_step``):
        in-group mean then cross-group mean equals the gradient of
        single-process training on the full batch with the same tiling."""
        from repro.core import ModelConfig, Reslim
        from repro.core.tiles import extract_tile, make_tiles
        from repro.nn import flatten_grads
        from repro.tensor import Tensor

        def make():
            return Reslim(ModelConfig("tiny", embed_dim=16, depth=1,
                                      num_heads=2), 4, 2, factor=2,
                          max_tokens=128, rng=np.random.default_rng(3))

        rng = np.random.default_rng(0)
        inputs = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        targets = rng.standard_normal((2, 2, 32, 32)).astype(np.float32)
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=1, tiles=4, ddp=2)
        strategy = CompositeStrategy(plan, loss_fn=_mse, halo=2, factor=2)
        strategy.setup(lambda u: make())
        strategy.step(inputs, targets)

        # mean over 8 tile-losses = mean over samples of mean over tiles
        ref_model = make()
        losses = []
        for g in range(2):
            x = Tensor(inputs[g:g + 1])
            for spec in make_tiles(16, 16, 4, halo=2):
                out = ref_model(extract_tile(x, spec))
                top, left = (spec.y0 - spec.hy0) * 2, (spec.x0 - spec.hx0) * 2
                ch, cw = spec.core_shape
                core = out[:, :, top:top + ch * 2, left:left + cw * 2]
                tt = Tensor(targets[g:g + 1, :, spec.y0 * 2:spec.y1 * 2,
                                    spec.x0 * 2:spec.x1 * 2])
                losses.append(_mse(core, tt))
        total = losses[0]
        for loss in losses[1:]:
            total = total + loss
        (total * (1.0 / len(losses))).backward()
        np.testing.assert_allclose(strategy.unit_grads(0),
                                   flatten_grads(ref_model),
                                   rtol=1e-4, atol=1e-6)

    def test_comm_summary_per_level_and_reset(self):
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)
        strategy = CompositeStrategy(plan, loss_fn=_mse, halo=2, factor=2)
        config = oracle_config()
        strategy.setup(lambda u: _make_model(config, seed=u))

        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 2, 16, 16)).astype(np.float32)
        y = rng.standard_normal((2, 1, 32, 32)).astype(np.float32)
        strategy.step(x, y)
        strategy.step(x, y)

        summary = strategy.comm_summary()
        assert summary["steps"] == 2
        for level in ("fsdp", "tiles", "ddp"):
            total = summary[f"{level}_level_bytes"]
            assert total > 0
            assert summary["per_step"][level] == pytest.approx(total / 2)

        strategy.reset_comm()
        summary = strategy.comm_summary()
        assert summary["steps"] == 0
        assert summary["fsdp_level_bytes"] == 0

    def test_batch_must_match_ddp_ways(self):
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        strategy = CompositeStrategy(plan, loss_fn=_mse, halo=2, factor=2)
        strategy.setup(lambda u: _make_model(oracle_config(), seed=0))
        with pytest.raises(ValueError,
                           match="batch 3 not divisible by data-parallel ways 2"):
            strategy.forward(np.zeros((3, 2, 16, 16), dtype=np.float32))
        # two samples per data-parallel rank: the full batch comes back
        x = np.random.default_rng(0).standard_normal(
            (4, 2, 16, 16)).astype(np.float32)
        assert strategy.forward(x).shape == (4, 1, 32, 32)
        assert len(strategy.forward_backward(
            x, np.zeros((4, 1, 32, 32), dtype=np.float32))) == 4  # units


PLANS = st.tuples(*[st.sampled_from([1, 2, 4])] * 3).filter(
    lambda ftd: ftd[0] * ftd[1] * ftd[2] <= 8)


@given(factors=PLANS, k=st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None, derandomize=True)  # all 34 cases
def test_any_plan_matches_reference_and_its_own_schedules(factors, k):
    """Every ``fsdp x tiles x ddp`` plan up to world 8, one or two samples
    per data-parallel rank: the step equals ``reference_step`` within the
    oracle tolerance (to the bit when no float32 ring runs), and the
    overlap and compiled schedules reproduce the eager one bitwise."""
    fsdp, tiles, ddp = factors
    rng = np.random.default_rng(fsdp + 10 * tiles + 100 * ddp + k)
    x = rng.standard_normal((ddp * k, 2, 16, 16)).astype(np.float32)
    y = rng.standard_normal((ddp * k, 1, 32, 32)).astype(np.float32)
    config = oracle_config()

    def run(**mode):
        plan = CompositePlan(VirtualCluster(fsdp * tiles * ddp),
                             fsdp=fsdp, tiles=tiles, ddp=ddp)
        strategy = CompositeStrategy(plan, _mse, halo=2, factor=2,
                                     bucket_bytes=1 << 12, **mode)
        strategy.setup(lambda u: _make_model(config, seed=u))
        strategy.step(x, y)
        grads = [strategy.unit_grads(u) for u in range(tiles * ddp)]
        strategy.apply_sgd(0.05)
        return strategy, grads, [strategy.unit_params(u)
                                 for u in range(tiles * ddp)]

    strategy, grads, params = run()
    ref = _make_model(config, seed=0)
    ref_grads = strategy.reference_step(ref, x, y)
    _apply_flat_sgd(ref, ref_grads, 0.05)
    rtol, atol = _SPECS["composite"].tol
    for g, p in zip(grads, params):
        np.testing.assert_allclose(g, ref_grads, rtol=rtol, atol=atol)
        np.testing.assert_allclose(p, flatten_params(ref), rtol=rtol, atol=atol)
    if tiles * ddp == 1:
        assert np.array_equal(grads[0], ref_grads)
        assert np.array_equal(params[0], flatten_params(ref))
    for mode in ({"overlap": True}, {"compile": True}):
        _, other_grads, other_params = run(**mode)
        for a, b in zip(grads + params, other_grads + other_params):
            assert np.array_equal(a, b), mode


def test_plan_comm_costs_rows():
    plan = CompositePlan(VirtualCluster(32), tp=8, fsdp=2, tiles=2, ddp=1)
    rows = plan_comm_costs(plan, PAPER_CONFIGS["1B"])
    levels = [r["level"] for r in rows]
    assert levels == ["tp", "fsdp", "fsdp", "tiles", "ddp"]
    for row in rows:
        assert row["bytes_per_call"] > 0
        assert row["time_s"] >= 0.0
    # the singleton DDP level costs nothing
    assert rows[-1]["time_s"] == 0.0
    assert rows[-1]["link"] == "local"
