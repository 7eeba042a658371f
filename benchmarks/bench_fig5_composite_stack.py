"""Fig. 5: the full TP x FSDP x TILES x DDP composite stack.

Two halves, mirroring the paper's figure:

* a modelled per-level communication cost table for the 1B model on a
  32-GPU slice of the Frontier topology (TP inside the node, FSDP across
  neighbouring nodes, TILES/DDP across the fabric);
* a measured end-to-end demonstration that the composed stack running on
  the virtual cluster reproduces the single-process per-(sample, tile)
  float64 gradient mean, and that every replica ends the step bit-identical.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, PAPER_CONFIGS, Reslim
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    VirtualCluster,
    plan_comm_costs,
)

from benchmarks.common import write_table


def test_generate_fig5_cost_table(benchmark):
    cfg = PAPER_CONFIGS["1B"]
    plan = CompositePlan(VirtualCluster(32), tp=8, fsdp=2, tiles=2, ddp=1)
    plan.validate()
    rows = benchmark(lambda: plan_comm_costs(plan, cfg))
    hierarchy = plan.communication_hierarchy()
    lines = [
        "Fig. 5: composite-plan communication costs, 1B model on 32 GPUs",
        "tp=8 (in-node) x fsdp=2 (neighbour nodes) x tiles=2 x ddp=1",
        "-" * 64,
        f"{'level':>6s} {'size':>5s} {'link':>10s} {'op':>15s} "
        f"{'calls':>6s} {'MB/call':>9s} {'time':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row['level']:>6s} {row['group_size']:5d} {row['link']:>10s} "
            f"{row['op']:>15s} {row['calls']:6d} "
            f"{row['bytes_per_call'] / 1e6:9.2f} {row['time_s']:7.4f}s")
    write_table("fig5_composite_stack", lines)

    # the Fig. 5 placement invariants: TP stays on the fast in-node link,
    # everything wider crosses the fabric
    assert hierarchy["tp"] == "SAME_NODE"
    assert hierarchy["fsdp"] == "CROSS_NODE"
    by_level = {(r["level"], r["op"]): r for r in rows}
    assert by_level[("tp", "all_reduce")]["calls"] == 4 * cfg.depth
    # gradient traffic dominates activation traffic at this model size
    assert (by_level[("tiles", "all_reduce")]["bytes_per_call"]
            > by_level[("tp", "all_reduce")]["bytes_per_call"])


def test_composite_stack_end_to_end(benchmark):
    """Measured: a full step of the composed stack on 16 virtual ranks
    matches the unpartitioned float64 reference gradient."""
    cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=8)
    plan = CompositePlan(VirtualCluster(16), tp=2, fsdp=2, tiles=2, ddp=2)
    strategy = CompositeStrategy(plan, loss_fn=_mse, halo=2, factor=2)
    strategy.setup(lambda u: Reslim(cfg, 2, 1, factor=2, max_tokens=256,
                                    rng=np.random.default_rng(7 + u)))

    rng = np.random.default_rng(0)
    x = rng.standard_normal((plan.ddp, 2, 16, 16)).astype(np.float32)
    y = rng.standard_normal((plan.ddp, 1, 32, 32)).astype(np.float32)

    def step():
        strategy.forward_backward(x, y)
        strategy.reduce_gradients()
        return strategy.unit_grads()

    strategy.comm_summary(reset=True)  # zero the accounting before measuring
    grads = benchmark.pedantic(step, rounds=1, iterations=1)

    ref = Reslim(cfg, 2, 1, factor=2, max_tokens=256,
                 rng=np.random.default_rng(7))
    ref_grads = strategy.reference_step(ref, x, y)
    # the reduction raised unless all eight units ended with one gradient
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-4, atol=1e-5)

    summary = strategy.comm_summary(reset=True)
    for level in ("fsdp", "tiles", "ddp"):
        assert summary[f"{level}_level_bytes"] > 0
    assert summary["tp_level_bytes"] > 0  # modelled activation all-reduces


def _mse(pred, target):
    d = pred - target
    return (d * d).mean()
