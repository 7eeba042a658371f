"""Command-line interface: train / evaluate / scale / export.

Entry points for downstream users who want results without writing code:

* ``repro train``    — train a Reslim downscaler on a synthetic world and
  save a checkpoint;
* ``repro evaluate`` — score a checkpoint on held-out years (Table-IV
  style metric rows);
* ``repro scale``    — print the modelled exascale tables (Table III,
  Fig. 6) for a chosen model size;
* ``repro plan``     — validate a TP x FSDP x TILES x DDP composite plan
  and print its per-level communication cost table (Fig. 5 mapping);
* ``repro profile``  — run training steps under the ``repro.obs`` tracer
  and write a Perfetto-loadable Chrome trace + metrics summary;
* ``repro trace``    — modeled per-rank timeline of one composite step
  (no execution), exported in the same Chrome trace format;
* ``repro serve``    — run a traffic scenario through the downscaling
  service (queue, dynamic batching, tile cache, replicas) and print the
  latency/throughput/utilization report; ``--replicas 0`` sizes the
  fleet against the SLO via ``repro.serve.serve_report``;
* ``repro monitor`` — run a seeded health-monitoring scenario (clean or
  fault-injected) and print the alert timeline + verdict; optionally
  write the flight-recorder dump and an alert-annotated Chrome trace;
* ``repro health``  — render a flight-recorder dump as a one-screen
  health summary;
* ``repro export``   — materialize a dataset split to a ``.npz`` archive.

Run ``python -m repro.cli <command> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ORBIT-2 reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a Reslim downscaler")
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--embed-dim", type=int, default=32)
    t.add_argument("--depth", type=int, default=2)
    t.add_argument("--heads", type=int, default=4)
    t.add_argument("--factor", type=int, default=4)
    t.add_argument("--grid", type=int, nargs=2, default=(32, 64),
                   metavar=("NLAT", "NLON"), help="fine grid shape")
    t.add_argument("--years", type=int, default=5)
    t.add_argument("--samples-per-year", type=int, default=6)
    t.add_argument("--lr", type=float, default=4e-3)
    t.add_argument("--bf16", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--output", default="reslim.ckpt")

    e = sub.add_parser("evaluate", help="evaluate a checkpoint")
    e.add_argument("checkpoint")
    e.add_argument("--embed-dim", type=int, default=32)
    e.add_argument("--depth", type=int, default=2)
    e.add_argument("--heads", type=int, default=4)
    e.add_argument("--factor", type=int, default=4)
    e.add_argument("--grid", type=int, nargs=2, default=(32, 64))
    e.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("scale", help="print modelled exascale results")
    s.add_argument("--model", choices=["9.5M", "126M", "1B", "10B"], default="9.5M")
    s.add_argument("--gpus", type=int, nargs="+",
                   default=[512, 2048, 8192, 32768])
    s.add_argument("--tiles", type=int, default=16)
    s.add_argument("--plan", action="store_true",
                   help="also print the composite-plan comm cost table at "
                        "the largest GPU count")

    p = sub.add_parser("plan", help="validate and cost a composite plan")
    p.add_argument("--model", choices=["9.5M", "126M", "1B", "10B"], default="1B")
    p.add_argument("--world", type=int, default=16)
    p.add_argument("--tp", type=int, default=1)
    p.add_argument("--fsdp", type=int, default=1)
    p.add_argument("--tiles", type=int, default=1)
    p.add_argument("--ddp", type=int, default=0,
                   help="DDP ways (default: world / (tp*fsdp*tiles))")
    p.add_argument("--tokens-per-tile", type=int, default=4096)
    p.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two layouts (tp=N,fsdp=N,tiles=N,ddp=N "
                        "specs): per-op comm-cost delta + modeled reshard "
                        "downtime")

    pr = sub.add_parser("profile", help="trace training steps, write "
                                        "Chrome trace JSON + summary")
    pr.add_argument("--embed-dim", type=int, default=32)
    pr.add_argument("--depth", type=int, default=2)
    pr.add_argument("--heads", type=int, default=4)
    pr.add_argument("--factor", type=int, default=4)
    pr.add_argument("--grid", type=int, nargs=2, default=(32, 64),
                    metavar=("NLAT", "NLON"), help="fine grid shape")
    pr.add_argument("--steps", type=int, default=3)
    pr.add_argument("--quick", action="store_true",
                    help="tiny config, 1 step (CI smoke profile)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--compile", action="store_true",
                    help="profile the compiled-replay step (engine/capture "
                         "+ engine/replay spans, bit-identical to eager)")
    pr.add_argument("--trace-out", default="profile_trace.json")
    pr.add_argument("--metrics-out", default=None,
                    help="also dump the flat metrics registry to this path")

    tr = sub.add_parser("trace", help="modeled per-rank timeline of one "
                                      "composite step (no execution)")
    tr.add_argument("--model", choices=["9.5M", "126M", "1B", "10B"],
                    default="1B")
    tr.add_argument("--plan", default="tp=2,fsdp=2,tiles=2,ddp=2",
                    help="comma-separated level sizes, e.g. tp=2,fsdp=2,"
                         "tiles=1,ddp=4 (world = their product)")
    tr.add_argument("--tokens-per-tile", type=int, default=4096)
    tr.add_argument("--overlap", action="store_true",
                    help="two-stream schedule: bucketed reduce collectives "
                         "on per-level comm streams, overlapped with compute")
    tr.add_argument("--n-buckets", type=int, default=8,
                    help="gradient buckets for the overlapped schedule")
    tr.add_argument("--output", default="plan_trace.json")

    sv = sub.add_parser("serve", help="run a traffic scenario through the "
                                      "downscaling service")
    sv.add_argument("--scenario",
                    choices=["steady", "diurnal", "burst", "rolling"],
                    default="burst")
    sv.add_argument("--model", choices=["9.5M", "126M", "1B", "10B"],
                    default="1B", help="model config pricing the replicas")
    sv.add_argument("--rate", type=float, default=40.0,
                    help="mean arrival rate, requests/s")
    sv.add_argument("--duration", type=float, default=30.0,
                    help="scenario length, simulated seconds")
    sv.add_argument("--replicas", type=int, default=2,
                    help="model replicas (0: size against the SLO via "
                         "serve_report)")
    sv.add_argument("--gpus-per-replica", type=int, default=8)
    sv.add_argument("--max-batch", type=int, default=8)
    sv.add_argument("--max-wait", type=float, default=0.05,
                    help="batching max wait, seconds")
    sv.add_argument("--cache-capacity", type=int, default=64,
                    help="LRU tile cache entries (0: cache off)")
    sv.add_argument("--slo-p99", type=float, default=0.5,
                    help="p99 latency SLO, seconds")
    sv.add_argument("--n-inputs", type=int, default=16,
                    help="distinct coarse fields in the traffic")
    sv.add_argument("--tiles", type=int, default=1,
                    help="tile-granular serving: split every request "
                         "into N halo tiles (>= 2 enables the tile path)")
    sv.add_argument("--halo", type=int, default=0,
                    help="halo width in coarse pixels for --tiles")
    sv.add_argument("--coarse-grid", type=int, nargs=2, default=None,
                    help="coarse grid (h w) of the tile plan; defaults "
                         "to the executed dataset's grid, or (32, 64) "
                         "latency-only")
    sv.add_argument("--tile-update-rate", type=float, default=4.0,
                    help="rolling scenario: tile content updates per "
                         "second")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--execute", action="store_true",
                    help="serve a real (tiny) model on synthetic data "
                         "instead of the latency-only scheduler")
    sv.add_argument("--compile", action="store_true",
                    help="with --execute: replay a captured forward "
                         "program per input shape (bit-identical outputs)")
    sv.add_argument("--trace-out", default=None,
                    help="also write the serving timeline as Chrome "
                         "trace JSON")
    sv.add_argument("--metrics-out", default=None,
                    help="dump the service metrics registry to this path")

    mo = sub.add_parser("monitor", help="run a seeded health-monitoring "
                                        "scenario, print the alert "
                                        "timeline + verdict")
    mo.add_argument("--scenario", choices=["train", "elastic", "serve"],
                    default="train")
    mo.add_argument("--inject", default="none",
                    help="fault to inject: none | nan | loss-spike | "
                         "thrash (train), rank-death (elastic), "
                         "burst (serve)")
    mo.add_argument("--steps", type=int, default=12,
                    help="train/elastic steps to run")
    mo.add_argument("--quick", action="store_true",
                    help="fewest steps that still trip the injected rules "
                         "(CI smoke run)")
    mo.add_argument("--seed", type=int, default=0)
    mo.add_argument("--dump-out", default=None,
                    help="write the flight-recorder dump JSON here")
    mo.add_argument("--trace-out", default=None,
                    help="also write a Chrome trace with alert "
                         "annotations (train/elastic scenarios)")
    mo.add_argument("--wall-metrics", action="store_true",
                    help="keep wall-clock-derived series (step_s, "
                         "samples_per_s); off by default so the alert "
                         "timeline and dump are bitwise-reproducible")

    he = sub.add_parser("health", help="one-screen health summary from a "
                                       "flight-recorder dump")
    he.add_argument("dump", help="flight-recorder dump JSON "
                                 "(from repro monitor --dump-out or an "
                                 "auto-dump)")

    x = sub.add_parser("export", help="export a dataset split to .npz")
    x.add_argument("--grid", type=int, nargs=2, default=(32, 64))
    x.add_argument("--factor", type=int, default=4)
    x.add_argument("--years", type=int, default=2)
    x.add_argument("--samples-per-year", type=int, default=4)
    x.add_argument("--seed", type=int, default=0)
    x.add_argument("--output", default="dataset.npz")
    return parser


def _make_dataset(grid, factor, n_years, samples_per_year, seed):
    from repro.data import DatasetSpec, DownscalingDataset, Grid

    years = tuple(range(2000, 2000 + n_years))
    spec = DatasetSpec(name="cli", fine_grid=Grid(*grid), factor=factor,
                       years=years, samples_per_year=samples_per_year,
                       seed=seed, output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=years)


def _cmd_train(args) -> int:
    from repro.core import ModelConfig, Reslim
    from repro.train import TrainConfig, Trainer, save_checkpoint

    config = ModelConfig("cli", embed_dim=args.embed_dim, depth=args.depth,
                         num_heads=args.heads)
    ds = _make_dataset(args.grid, args.factor, args.years,
                       args.samples_per_year, args.seed)
    model = Reslim(config, in_channels=23, out_channels=3, factor=args.factor,
                   max_tokens=4096, rng=np.random.default_rng(args.seed))
    print(f"training {model.num_parameters():,}-parameter Reslim on "
          f"{len(ds)} samples ({args.epochs} epochs)")
    trainer = Trainer(model, ds, TrainConfig(epochs=args.epochs, batch_size=4,
                                             lr=args.lr, bf16=args.bf16,
                                             seed=args.seed))
    history = trainer.fit()
    print(f"loss: {history.train_loss[0]:.4f} -> {history.train_loss[-1]:.4f}")
    save_checkpoint(model, args.output,
                    extra={"epochs": args.epochs,
                           "config": {"embed_dim": args.embed_dim,
                                      "depth": args.depth, "heads": args.heads,
                                      "factor": args.factor}})
    print(f"checkpoint written to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    from repro.core import ModelConfig, Reslim
    from repro.train import evaluate_downscaling, load_checkpoint, predict_dataset

    config = ModelConfig("cli", embed_dim=args.embed_dim, depth=args.depth,
                         num_heads=args.heads)
    model = Reslim(config, in_channels=23, out_channels=3, factor=args.factor,
                   max_tokens=4096, rng=np.random.default_rng(args.seed))
    load_checkpoint(model, args.checkpoint)
    # held-out years: disjoint from the default training range
    ds = _make_dataset(args.grid, args.factor, 1, 4, args.seed)
    ds.world.seed = args.seed
    ds.fit_normalizer()
    preds, targets = predict_dataset(model, ds)
    rows = evaluate_downscaling(preds, targets,
                                ["t2m", "tmin", "total_precipitation"])
    print(f"{'variable':24s} {'R2':>8s} {'RMSE':>8s} {'SSIM':>8s} {'PSNR':>8s}")
    for name, row in rows.items():
        print(f"{name:24s} {row['r2']:8.3f} {row['rmse']:8.3f} "
              f"{row['ssim']:8.3f} {row['psnr']:8.2f}")
    return 0


def _cmd_scale(args) -> int:
    from repro.core import PAPER_CONFIGS
    from repro.distributed import (
        DownscalingWorkload,
        max_output_tokens,
        strong_scaling_efficiency,
        sustained_flops,
    )

    cfg = PAPER_CONFIGS[args.model]
    w = DownscalingWorkload(cfg, (180, 360), factor=4, out_channels=3,
                            tiles=args.tiles)
    eff = strong_scaling_efficiency(w, args.gpus)
    print(f"model {args.model} ({cfg.embed_dim}-dim x {cfg.depth} layers), "
          f"{args.tiles} tiles, 112->28 km task")
    print(f"{'GPUs':>8s} {'efficiency':>11s}")
    for n in args.gpus:
        print(f"{n:8d} {eff[n] * 100:10.1f}%")
    rate = sustained_flops(w, max(args.gpus))
    unit = f"{rate / 1e18:.2f} ExaFLOPS" if rate > 1e17 else f"{rate / 1e15:.0f} PetaFLOPS"
    print(f"sustained at {max(args.gpus)} GPUs: {unit} (modelled)")
    best = max_output_tokens(cfg, max(args.gpus), tiles=args.tiles, compression=4.0)
    print(f"max sequence at {max(args.gpus)} GPUs (4x compression): "
          f"{best.output_tokens:.3g} tokens")
    if args.plan:
        from repro.distributed import CompositePlan, VirtualCluster

        # Fig. 5: one node of TP, FSDP pairs across two nodes, then tiles x ddp
        world = max(args.gpus)
        groups = world // 16
        tiles = args.tiles if groups % args.tiles == 0 else 1
        plan = CompositePlan(VirtualCluster(world), tp=8, fsdp=2, tiles=tiles,
                             ddp=groups // tiles)
        print()
        _print_plan_costs(plan, cfg)
    return 0


def _print_plan_costs(plan, cfg, tokens_per_tile: int = 4096) -> None:
    from repro.distributed import overlap_report, plan_comm_costs

    sizes = plan.level_sizes()
    print(f"composite plan on {plan.cluster.world_size} GPUs: "
          + " x ".join(f"{k}={sizes[k]}" for k in ("tp", "fsdp", "tiles", "ddp")))
    rows = plan_comm_costs(plan, cfg, tokens_per_tile=tokens_per_tile)
    print(f"{'level':<6s} {'size':>5s} {'link':>10s} {'op':>15s} "
          f"{'calls':>6s} {'MB/call':>10s} {'ms/step':>10s}")
    total = 0.0
    level_time: dict[str, float] = {}
    for row in rows:
        total += row["time_s"]
        level_time[row["level"]] = (level_time.get(row["level"], 0.0)
                                    + row["time_s"])
        print(f"{row['level']:<6s} {row['group_size']:>5d} {row['link']:>10s} "
              f"{row['op']:>15s} {row['calls']:>6d} "
              f"{row['bytes_per_call'] / 1e6:>10.2f} "
              f"{row['time_s'] * 1e3:>10.3f}")
    print("modelled time per level:")
    for level in ("tp", "fsdp", "tiles", "ddp"):
        t = level_time.get(level, 0.0)
        share = t / total if total else 0.0
        print(f"  {level:<6s} {t * 1e3:>10.3f} ms  ({share:5.1%})")
    print(f"modelled comm time per step: {total:.4f}s")
    op_calls: dict[str, int] = {}
    for row in rows:
        op_calls[row["op"]] = op_calls.get(row["op"], 0) + row["calls"]
    print("calls per op: " + ", ".join(f"{op}={n}"
                                       for op, n in sorted(op_calls.items())))
    rep = overlap_report(plan, cfg, tokens_per_tile=tokens_per_tile)
    print(f"overlap: step {rep['step_time_barrier'] * 1e3:.3f} -> "
          f"{rep['step_time_overlap'] * 1e3:.3f} ms "
          f"(modeled speedup {rep['speedup']:.2f}x)")
    print(f"  exposed comm {rep['exposed_comm_time'] * 1e3:.3f} ms, "
          f"hidden under compute {rep['overlapped_fraction']:.1%}")


def _cmd_plan(args) -> int:
    from repro.core import PAPER_CONFIGS
    from repro.distributed import CompositePlan, VirtualCluster

    cfg = PAPER_CONFIGS[args.model]
    if args.diff:
        return _plan_diff(args.diff[0], args.diff[1], cfg,
                          tokens_per_tile=args.tokens_per_tile)
    ddp = args.ddp or max(1, args.world // (args.tp * args.fsdp * args.tiles))
    try:
        plan = CompositePlan(VirtualCluster(args.world), tp=args.tp,
                             fsdp=args.fsdp, tiles=args.tiles, ddp=ddp)
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 1
    plan.validate()
    print(f"plan valid: every rank appears exactly once per level "
          f"(model {args.model})")
    _print_plan_costs(plan, cfg, tokens_per_tile=args.tokens_per_tile)
    return 0


def _plan_diff(old_spec: str, new_spec: str, cfg,
               tokens_per_tile: int = 4096) -> int:
    from repro.distributed import CompositePlan, VirtualCluster, plan_cost_diff

    def build(spec: str) -> CompositePlan:
        sizes = _parse_plan_spec(spec)
        world = sizes["tp"] * sizes["fsdp"] * sizes["tiles"] * sizes["ddp"]
        return CompositePlan(VirtualCluster(world), **sizes)

    try:
        old, new = build(old_spec), build(new_spec)
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 1
    diff = plan_cost_diff(old, new, cfg, tokens_per_tile=tokens_per_tile)
    print(f"plan diff: {old_spec}  ->  {new_spec} "
          f"(world {old.world} -> {new.world})")
    print(f"{'level':<6s} {'op':>15s} {'size':>9s} {'MB/step':>19s} "
          f"{'ms/step':>19s} {'delta_ms':>9s}")
    for row in diff["rows"]:
        size = f"{row['old_group_size']}->{row['new_group_size']}"
        mb = (f"{row['old_bytes'] / 1e6:8.2f}->"
              f"{row['new_bytes'] / 1e6:<8.2f}")
        ms = (f"{row['old_time_s'] * 1e3:8.3f}->"
              f"{row['new_time_s'] * 1e3:<8.3f}")
        print(f"{row['level']:<6s} {row['op']:>15s} {size:>9s} {mb:>19s} "
              f"{ms:>19s} {row['delta_time_s'] * 1e3:>+9.3f}")
    print(f"modelled comm time per step: {diff['old_total_s'] * 1e3:.3f} -> "
          f"{diff['new_total_s'] * 1e3:.3f} ms "
          f"({diff['delta_total_s'] * 1e3:+.3f} ms)")
    rs = diff["reshard"]
    print(f"reshard cost: {rs['state_bytes'] / 1e6:.1f} MB canonical state, "
          f"{rs['bytes_moved'] / 1e6:.1f} MB moved")
    print(f"  export {rs['export_s'] * 1e3:.3f} ms + import "
          f"{rs['import_s'] * 1e3:.3f} ms + revalidate "
          f"{rs['revalidate_s'] * 1e3:.3f} ms "
          f"= downtime {rs['downtime_s'] * 1e3:.3f} ms")
    return 0


def _cmd_profile(args) -> int:
    from repro.core import ModelConfig, Reslim
    from repro.obs import Tracer, span_coverage, step_summary
    from repro.train import TrainConfig, Trainer

    if args.quick:
        args.embed_dim, args.depth, args.heads = 16, 2, 4
        args.grid, args.steps = (16, 32), 1
    config = ModelConfig("profile", embed_dim=args.embed_dim,
                         depth=args.depth, num_heads=args.heads)
    ds = _make_dataset(args.grid, args.factor, 1, 4, args.seed)
    model = Reslim(config, in_channels=23, out_channels=3, factor=args.factor,
                   max_tokens=4096, rng=np.random.default_rng(args.seed))
    trainer = Trainer(model, ds, TrainConfig(epochs=1, batch_size=2,
                                             seed=args.seed),
                      compile=args.compile)
    batches = list(ds.batches(2))
    trainer.train_step(batches[0])  # warm caches outside the trace
    with Tracer() as tracer:
        for i in range(args.steps):
            trainer.train_step(batches[i % len(batches)])
    tracer.export_chrome(args.trace_out)
    print(f"trace written to {args.trace_out} "
          f"(load at https://ui.perfetto.dev)")
    print()
    print(tracer.summary())
    summary = step_summary(tracer)
    print("per-step summary:")
    for key in sorted(summary):
        print(f"  {key:<16s} {summary[key]:.6g}")
    coverage = span_coverage(tracer.spans, "train/step")
    print(f"span coverage of train/step: {coverage:.1%}")
    if args.metrics_out:
        from pathlib import Path
        Path(args.metrics_out).write_text(tracer.metrics.dump())
        print(f"metrics written to {args.metrics_out}")
    return 0


def _parse_plan_spec(spec: str) -> dict[str, int]:
    sizes = {"tp": 1, "fsdp": 1, "tiles": 1, "ddp": 1}
    for part in spec.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in sizes or not value.strip().isdigit():
            raise ValueError(
                f"bad plan component {part!r}; expected tp=N,fsdp=N,"
                f"tiles=N,ddp=N")
        sizes[key] = int(value)
    return sizes


def _cmd_trace(args) -> int:
    from repro.core import PAPER_CONFIGS
    from repro.distributed import (CompositePlan, VirtualCluster,
                                   modeled_step_timeline, overlap_report)
    from repro.obs import write_chrome_trace

    cfg = PAPER_CONFIGS[args.model]
    try:
        sizes = _parse_plan_spec(args.plan)
        world = sizes["tp"] * sizes["fsdp"] * sizes["tiles"] * sizes["ddp"]
        plan = CompositePlan(VirtualCluster(world), **sizes)
    except ValueError as exc:
        print(f"invalid plan: {exc}", file=sys.stderr)
        return 1
    spans = modeled_step_timeline(plan, cfg,
                                 tokens_per_tile=args.tokens_per_tile,
                                 overlap=args.overlap,
                                 n_buckets=args.n_buckets)
    write_chrome_trace(args.output, spans)
    step_end = max(sp.end_s for sp in spans)
    by_cat: dict[str, float] = {}
    for sp in spans:
        if sp.rank == 0:
            by_cat[sp.cat] = by_cat.get(sp.cat, 0.0) + sp.dur_s
    print(f"modeled timeline for {args.model} on "
          + " x ".join(f"{k}={sizes[k]}" for k in ("tp", "fsdp", "tiles", "ddp"))
          + f" (world={world})")
    print(f"  spans: {len(spans)} over {world} ranks"
          + (" (two streams per rank)" if args.overlap else ""))
    for cat in sorted(by_cat):
        print(f"  rank-0 {cat:<8s} {by_cat[cat] * 1e3:>10.3f} ms")
    print(f"  modeled step time: {step_end * 1e3:.3f} ms")
    if args.overlap:
        rep = overlap_report(plan, cfg, tokens_per_tile=args.tokens_per_tile,
                             n_buckets=args.n_buckets)
        print(f"  barrier step time: {rep['step_time_barrier'] * 1e3:.3f} ms "
              f"(modeled speedup {rep['speedup']:.2f}x)")
        print(f"  exposed comm: {rep['exposed_comm_time'] * 1e3:.3f} ms; "
              f"hidden under compute: {rep['overlapped_fraction']:.1%}")
    print(f"trace written to {args.output} (load at https://ui.perfetto.dev)")
    return 0


def _cmd_serve(args) -> int:
    from repro.core import PAPER_CONFIGS
    from repro.serve import (BatchPolicy, DownscalingService, TileCache,
                             TrafficGenerator, serve_report, service_time_model)

    cfg = PAPER_CONFIGS[args.model]
    tiled = args.tiles > 1
    if args.execute:
        if args.coarse_grid:
            coarse_shape = tuple(args.coarse_grid)
        else:
            # the tiled plan needs room for a halo inside each tile
            coarse_shape = (8, 16) if tiled else (4, 8)
    else:
        coarse_shape = tuple(args.coarse_grid) if args.coarse_grid \
            else (32, 64)
    n_replicas = args.replicas
    if n_replicas == 0:
        report = serve_report(
            cfg, scenario=args.scenario, rate_rps=args.rate,
            duration_s=args.duration, slo_p99_s=args.slo_p99,
            gpus_per_replica=args.gpus_per_replica,
            max_batch=args.max_batch, max_wait_s=args.max_wait,
            seed=args.seed, n_tiles=args.tiles, halo=args.halo,
            coarse_shape=coarse_shape if tiled else None)
        print(f"replica pricing for {args.scenario} @ {args.rate:g} rps, "
              f"SLO p99 <= {args.slo_p99:g}s "
              f"(model {args.model}, {args.gpus_per_replica} GPUs/replica):")
        print(f"{'replicas':>9s} {'GPUs':>6s} {'p50_s':>9s} {'p99_s':>9s} "
              f"{'util':>7s} {'SLO':>5s}")
        for row in report["rows"]:
            print(f"{row['replicas']:>9d} {row['gpus']:>6d} "
                  f"{row['p50_s']:>9.4f} {row['p99_s']:>9.4f} "
                  f"{row['utilization_mean']:>6.1%} "
                  f"{'ok' if row['meets_slo'] else 'MISS':>5s}")
        for srow in report.get("hit_rate_sensitivity", ()):
            rec = srow["recommended_replicas"]
            p99 = srow["p99_at_recommended_s"]
            print(f"  at {srow['hit_rate']:4.0%} tile hit rate: "
                  + (f"{rec} replicas (p99 {p99:.4f}s)"
                     if rec is not None else "no count meets the SLO"))
        if report["recommended_replicas"] is None:
            print("no replica count meets the SLO; raise --replicas range "
                  "or relax --slo-p99", file=sys.stderr)
            return 1
        n_replicas = report["recommended_replicas"]
        print(f"recommended: {n_replicas} replicas\n")

    gen = TrafficGenerator(args.scenario, args.rate, args.duration,
                           seed=args.seed, n_inputs=args.n_inputs,
                           n_tiles=args.tiles if tiled else 16,
                           tile_update_rate=args.tile_update_rate)
    cache = TileCache(args.cache_capacity) if args.cache_capacity else None
    policy = BatchPolicy(max_batch=args.max_batch, max_wait_s=args.max_wait)
    service_time = service_time_model(
        cfg, n_tiles=args.tiles if tiled else 1, halo=args.halo,
        coarse_shape=coarse_shape, gpus_per_replica=args.gpus_per_replica)
    if args.execute:
        from repro.core import ModelConfig, Reslim

        fine_grid = (coarse_shape[0] * 4, coarse_shape[1] * 4)
        ds = _make_dataset(fine_grid, 4, 1, max(4, args.n_inputs // 4),
                           args.seed)
        ds.fit_normalizer()
        inputs = [ds.normalizer.normalize(ds.raw_pair(i % len(ds))[0])
                  for i in range(args.n_inputs)]
        model = Reslim(ModelConfig("serve", embed_dim=16, depth=1, num_heads=2),
                       23, 3, factor=4, max_tokens=64,
                       rng=np.random.default_rng(args.seed))
        service = DownscalingService(
            model, n_replicas=n_replicas,
            gpus_per_replica=args.gpus_per_replica, policy=policy,
            cache=cache, target_normalizer=ds.target_normalizer,
            n_tiles=args.tiles, halo=args.halo, coarse_shape=coarse_shape,
            tile_serving=tiled, service_time=service_time,
            compile=args.compile)
        requests = gen.generate(
            inputs=inputs[:1] if args.scenario == "rolling" else inputs)
    else:
        service = DownscalingService(
            n_replicas=n_replicas, gpus_per_replica=args.gpus_per_replica,
            policy=policy, cache=cache, n_tiles=args.tiles, halo=args.halo,
            coarse_shape=coarse_shape if tiled else None,
            tile_serving=tiled, service_time=service_time)
        requests = gen.generate()
    result = service.run(requests)
    s = result.summary()
    mode = "executed" if args.execute else "latency-only"
    print(f"served {s['requests']} requests ({args.scenario}, {mode}) on "
          f"{n_replicas} replicas x {s['gpus_per_replica']} GPUs "
          f"in {s['duration_s']:.2f}s simulated")
    print(f"  throughput:   {s['throughput_rps']:10.1f} rps")
    print(f"  latency p50:  {s['latency_p50_s'] * 1e3:10.2f} ms")
    print(f"  latency p99:  {s['latency_p99_s'] * 1e3:10.2f} ms   "
          f"(SLO {args.slo_p99 * 1e3:g} ms: "
          f"{'ok' if s['latency_p99_s'] <= args.slo_p99 else 'MISS'})")
    print(f"  queue depth:  {s['queue_depth_max']:10.0f} max, "
          f"{s['queue_depth_p99']:.0f} p99")
    print(f"  batches:      {s['batches']:10.0f} "
          f"(mean size {s['batch_size_mean']:.2f})")
    if cache is not None and not tiled:
        print(f"  cache:        {s['cache_hit_rate']:10.1%} hit rate "
              f"({s['cache_hits']:.0f} hits, {s['cache_evictions']:.0f} "
              f"evictions)")
    if tiled and "tile_hit_rate" in s:
        # the request-level cache line is suppressed: with tile-granular
        # serving the per-tile numbers are the meaningful ones
        print(f"  tiles:        {s['tile_hit_rate']:10.1%} tile hit rate "
              f"({s['tile_hits']:.0f} hits, {s['tile_coalesced']:.0f} "
              f"coalesced, {s['cache_evictions']:.0f} evictions, "
              f"batch occupancy {s['tile_batch_occupancy_mean']:.2f})")
    print(f"  utilization:  {s['utilization_mean']:10.1%} mean over replicas")
    if args.trace_out:
        result.export_chrome(args.trace_out)
        print(f"trace written to {args.trace_out} "
              f"(load at https://ui.perfetto.dev)")
    if args.metrics_out:
        from pathlib import Path
        Path(args.metrics_out).write_text(result.metrics.dump())
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_monitor(args) -> int:
    from repro.obs.scenarios import run_monitor_scenario

    steps = 8 if args.quick else args.steps
    try:
        result = run_monitor_scenario(
            args.scenario, args.inject, steps=steps, seed=args.seed,
            wall_metrics=args.wall_metrics, trace=bool(args.trace_out))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    monitor = result.monitor
    print(f"monitor scenario: {args.scenario} (inject={args.inject}, "
          f"seed={args.seed})")
    print(monitor.timeline_text(), end="")
    status = "ok" if result.ok else "UNEXPECTED"
    print(f"verdict: {monitor.verdict()}  [{status}]")
    if result.expected_rules:
        fired = [r for r in result.expected_rules if monitor.fired(r)]
        line = (f"expected rules fired: {len(fired)}/"
                f"{len(result.expected_rules)}")
        if result.missing_rules:
            line += f"  (missing: {', '.join(result.missing_rules)})"
        print(line)
    if args.dump_out:
        path = monitor.dump(args.dump_out,
                            reason=f"cli:{args.scenario}:{args.inject}")
        print(f"flight-recorder dump written to {path}")
    if args.trace_out and result.tracer is not None:
        result.tracer.export_chrome(args.trace_out,
                                    alerts=monitor.alert_timeline())
        print(f"trace with {len(monitor.alerts)} alert annotation(s) "
              f"written to {args.trace_out} "
              f"(load at https://ui.perfetto.dev)")
    return 0 if result.ok else 1


def _cmd_health(args) -> int:
    import json
    from pathlib import Path

    from repro.obs import health_summary

    try:
        doc = json.loads(Path(args.dump).read_text())
        summary = health_summary(doc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary, end="")
    return 0


def _cmd_export(args) -> int:
    from repro.data.io import export_dataset

    ds = _make_dataset(args.grid, args.factor, args.years,
                       args.samples_per_year, args.seed)
    path = export_dataset(ds, args.output)
    print(f"exported {len(ds)} samples to {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"train": _cmd_train, "evaluate": _cmd_evaluate,
                "scale": _cmd_scale, "plan": _cmd_plan,
                "profile": _cmd_profile, "trace": _cmd_trace,
                "serve": _cmd_serve, "monitor": _cmd_monitor,
                "health": _cmd_health, "export": _cmd_export}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
