#!/usr/bin/env python
"""Exascale scaling study via the simulated cluster + performance model.

Walks through the paper's HPC results without needing Frontier:

* the orthogonal parallelism layout (Fig. 5) on a virtual 64-GPU cluster,
  with real collectives verifying DDP gradient equivalence;
* maximum sequence-length scaling (Table III);
* TILES speedup across GPU counts (Fig. 6a);
* strong scaling efficiency and sustained throughput for all four model
  sizes, 512 → 32,768 GPUs (Fig. 6b).

Run:  python examples/scaling_study.py
"""

import numpy as np

from repro.core import PAPER_CONFIGS
from repro.data import Grid
from repro.distributed import (
    CompositePlan,
    DownscalingWorkload,
    VirtualCluster,
    max_output_tokens,
    strong_scaling_efficiency,
    sustained_flops,
    time_per_sample,
)


def show_layout():
    print("=" * 72)
    print("Orthogonal parallelism layout (Fig. 5) on a 64-GPU virtual cluster")
    print("=" * 72)
    plan = CompositePlan(VirtualCluster(64), tp=8, fsdp=2, tiles=1, ddp=4)
    plan.validate()
    print(f"  tensor parallel : {plan.tp} GPUs (one node)")
    print(f"  FSDP            : {plan.fsdp} ranks (paired across neighbour nodes)")
    print(f"  TILES           : {plan.tiles} tile(s) per sample")
    print(f"  DDP             : {plan.ddp} groups of {plan.tp * plan.fsdp} GPUs")
    for name, level in plan.communication_hierarchy().items():
        print(f"  {name:16s}-> {level}")


def show_max_sequence():
    print("\n" + "=" * 72)
    print("Maximum sequence-length scaling (Table III, modelled)")
    print("=" * 72)
    rows = [
        ("ViT", "9.5M", 1, 1.0, 8, False),
        ("Reslim", "9.5M", 1, 1.0, 8, True),
        ("Reslim", "9.5M", 16, 4.0, 8, True),
        ("Reslim", "9.5M", 16, 4.0, 128, True),
        ("Reslim", "10B", 1, 1.0, 8, True),
        ("Reslim", "10B", 16, 4.0, 512, True),
    ]
    print(f"{'arch':8s} {'model':6s} {'tiles':>5s} {'comp':>5s} {'GPUs':>5s} "
          f"{'max tokens':>12s} {'resolution':>11s}")
    for arch, model, tiles, comp, gpus, flash in rows:
        w = max_output_tokens(PAPER_CONFIGS[model], gpus,
                              architecture=arch.lower(), tiles=tiles,
                              compression=comp, flash_attention=flash)
        km = Grid(*w.fine_shape).resolution_km
        print(f"{arch:8s} {model:6s} {tiles:5d} {comp:5.0f} {gpus:5d} "
              f"{w.output_tokens:12.3g} {km:9.1f} km")


def show_tiles_speedup():
    print("\n" + "=" * 72)
    print("TILES sequence-scaling speedup vs 8-GPU untiled baseline (Fig. 6a)")
    print("=" * 72)
    cfg = PAPER_CONFIGS["9.5M"]
    base = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3)
    t8 = time_per_sample(base, 8)
    tiled = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3, tiles=16)
    for n in (8, 32, 128, 512, 2048):
        print(f"  {n:5d} GPUs: {t8 / time_per_sample(tiled, n):8.1f}x")
    print("  (paper: 1.9x at 8 GPUs, 515x at 2048 GPUs)")


def show_strong_scaling():
    print("\n" + "=" * 72)
    print("Strong scaling and sustained throughput (Fig. 6b, modelled)")
    print("=" * 72)
    gpu_counts = [512, 2048, 8192, 32768]
    print(f"{'model':6s} " + " ".join(f"{n:>9d}" for n in gpu_counts) +
          f" {'sustained @32k':>15s}")
    for name in ("9.5M", "126M", "1B", "10B"):
        w = DownscalingWorkload(PAPER_CONFIGS[name], (180, 360), factor=4,
                                out_channels=3, tiles=16)
        eff = strong_scaling_efficiency(w, gpu_counts)
        rate = sustained_flops(w, 32768)
        unit = f"{rate / 1e18:.2f} EF" if rate >= 1e17 else f"{rate / 1e15:.0f} PF"
        print(f"{name:6s} " + " ".join(f"{eff[n] * 100:8.1f}%" for n in gpu_counts) +
              f" {unit:>15s}")
    print("  (paper: 92-98% efficiency; 363 PF / 1.3 EF / 1.5 EF / 1.8 EF)")


def verify_ddp_equivalence():
    print("\n" + "=" * 72)
    print("DDP gradient equivalence on the simulated cluster (real collectives)")
    print("=" * 72)
    from repro.core import ModelConfig, Reslim
    from repro.distributed import CompositeStrategy
    from repro.nn import flatten_grads
    from repro.tensor import Tensor

    cfg = ModelConfig("demo", embed_dim=16, depth=1, num_heads=2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 5, 8, 8)).astype(np.float32)
    y = rng.standard_normal((4, 2, 16, 16)).astype(np.float32)

    def loss_fn(pred, target):
        d = pred - target
        return (d * d).mean()

    ref = Reslim(cfg, 5, 2, factor=2, max_tokens=64, rng=np.random.default_rng(1))
    loss_fn(ref(Tensor(x)), Tensor(y)).backward()
    ref_grads = flatten_grads(ref)

    ddp = CompositeStrategy(CompositePlan(VirtualCluster(4), ddp=4), loss_fn)
    ddp.setup(lambda r: Reslim(cfg, 5, 2, factor=2, max_tokens=64,
                               rng=np.random.default_rng(1)))
    ddp.step(x, y)
    err = np.abs(ddp.unit_grads(0) - ref_grads).max()
    print(f"  max |DDP grad - single-process grad| = {err:.2e}  "
          f"({'OK' if err < 1e-4 else 'MISMATCH'})")


if __name__ == "__main__":
    show_layout()
    show_max_sequence()
    show_tiles_speedup()
    show_strong_scaling()
    verify_ddp_equivalence()
