"""Ablation: the communication bill of every parallelism strategy.

Sec. II-III argue ORBIT-2's stack (TILES + FSDP + TP/Hybrid-OP + DDP)
against the alternatives — Ulysses-style sequence parallelism and
pipeline parallelism.  One table puts numbers behind the argument:
per-step bytes per rank, collective frequency, and idle fraction for the
paper's 112→28 km workload on 16 ranks.  The Pipeline row, like the
FSDP row, is modeled: a closed form with no engine behind it (no
pipeline engine runs here, and the FSDP row bills the paper's
gather-before-use FSDP, which the repository does not yet execute).
"""

import numpy as np
import pytest

from repro.core import PAPER_CONFIGS, transformer_param_count
from repro.distributed import (
    ProcessGroup,
    UlyssesAttention,
    pipeline_activation_traffic,
    pipeline_bubble_fraction,
    split_sequence,
    tiles_comm_volume,
    ulysses_comm_volume,
)

from benchmarks.common import write_table

WORLD = 16
SEQ = 777_660        # the 112->28 km ViT-counted sequence
DIM = 256            # 9.5M model width
LAYERS = 6


@pytest.fixture(scope="module")
def bills():
    params = transformer_param_count(PAPER_CONFIGS["9.5M"])
    return {
        "TILES": {
            "bytes": tiles_comm_volume(2 * params, WORLD),
            "collectives": 1,                      # one grad all-reduce/batch
            "idle": 0.0,
        },
        "Ulysses SP": {
            "bytes": ulysses_comm_volume(SEQ, DIM, LAYERS, WORLD),
            "collectives": 4 * LAYERS * 2,         # fwd+bwd all-to-alls
            "idle": 0.0,
        },
        "Pipeline": {
            "bytes": pipeline_activation_traffic(SEQ * DIM // WORLD, WORLD, 16),
            "collectives": 2 * (WORLD - 1) * 16,   # p2p sends fwd+bwd
            "idle": pipeline_bubble_fraction(WORLD, 16),
        },
        "FSDP": {
            "bytes": 3.0 * (WORLD - 1) / WORLD * params * 2,
            "collectives": 3 * LAYERS,             # gather x2 + reduce-scatter
            "idle": 0.0,
        },
    }


def test_strategy_comparison_table(benchmark, bills):
    benchmark(lambda: ulysses_comm_volume(SEQ, DIM, LAYERS, WORLD))
    lines = [
        f"Parallelism strategies on the 112->28 km task ({WORLD} ranks, 9.5M model)",
        "-" * 66,
        f"{'strategy':12s} {'bytes/rank/step':>16s} {'collectives':>12s} {'idle':>7s}",
    ]
    for name, b in bills.items():
        lines.append(f"{name:12s} {b['bytes']:16.3g} {b['collectives']:12d} "
                     f"{b['idle'] * 100:6.1f}%")
    write_table("ablation_parallelism_strategies", lines)

    # the design argument: TILES moves the least data at the lowest
    # frequency; Ulysses pays per-layer; pipelining pays per-microbatch
    # AND idles in the bubble
    assert bills["TILES"]["bytes"] < bills["Ulysses SP"]["bytes"]
    assert bills["TILES"]["bytes"] < bills["Pipeline"]["bytes"]
    assert bills["TILES"]["collectives"] <= min(
        b["collectives"] for n, b in bills.items() if n != "TILES")
    assert bills["Pipeline"]["idle"] > 0.4


def test_ulysses_exactness_vs_tiles_approximation(benchmark):
    """What Ulysses buys for its traffic: exactness.  Distributed Ulysses
    attention is bit-comparable to single-device attention; TILES is a
    locality approximation needing halos.  Both facts measured."""
    world, L, H, D = 4, 32, 8, 8
    rng = np.random.default_rng(0)
    q, k, v = [rng.standard_normal((L, H, D)).astype(np.float32) for _ in range(3)]
    group = ProcessGroup(list(range(world)))
    ua = UlyssesAttention(group, num_heads=H)
    out = benchmark(lambda: np.concatenate(ua.forward(
        split_sequence(q, world), split_sequence(k, world),
        split_sequence(v, world))))
    ref = ua.reference(q, k, v)
    err = float(np.abs(out - ref).max())
    lines = [
        "Ulysses exactness: max |distributed - single-device| = "
        f"{err:.2e} (exact to fp32)",
        "TILES, by contrast, truncates attention range — exactness only "
        "within a tile + halo (see bench_ablation_halo).",
    ]
    write_table("ablation_ulysses_exactness", lines)
    assert err < 1e-4
