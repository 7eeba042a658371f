"""Parallel-equivalence oracle.

ORBIT-2's parallelisms are only worth their communication savings if they
compute the *same thing* as single-rank execution.  This module turns
that claim into a callable check: :func:`check_parallel_equivalence` runs
a tiny Reslim (or the strategy's natural micro-workload) under a
single-rank reference path and under one of the simulated-cluster
engines, then compares outputs, gradients, and post-SGD-step parameters.

Every row is one :class:`OracleSpec` in one table: a builder, a note
and a tolerance.  Training rows (output, gradients, params) are all a
:class:`~repro.distributed.strategy.CompositeStrategy` on some plan
(``ddp`` / ``fsdp`` / ``tiles`` put the whole world on one level) and
share one runner.  The forward-only rows (tensor parallel, Ulysses,
Hybrid-OP) build their engine directly and hand back its
output next to the engine's single-rank reference; the oracle compares
the two.  Adding a parallelism to the oracle is one table entry.

Exactness tiers (recorded per comparison in the returned report):

* **bit-for-bit** — byte-identical arrays.  Holds wherever no collective
  reorders a floating-point reduction: every strategy at ``world == 1``,
  FSDP at every world size (its reduce-scatter accumulates in float64,
  and a mean of identical contributions is exact), and DDP/TILES
  *outputs* at every world size — a forward crosses no collective, and
  every kernel (``linear``, ``conv2d``, ``flash_attention``) computes
  each sample as its own GEMMs, so a sample's bits do not depend on how
  the batch was split across ranks.  The oracle model's head is warmed
  (:func:`warm_head`), so these rows cover the encoder too.
* **tolerance-bounded** — ring all-reduce chunks reductions in rank
  order, so DDP/TP/TILES *gradients* at ``world > 1`` agree only to
  float32 rounding; Hybrid-OP's reference intentionally runs in float64,
  so it is tolerance-bounded even serially.

Any disagreement beyond the strategy's tolerance raises
:class:`EquivalenceFailure`; the report is for inspection and for tests
that want to *assert* bit-exactness where it is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..core import ModelConfig, Reslim
from ..distributed import (
    CompositePlan,
    CompositeStrategy,
    HybridOpChain,
    ProcessGroup,
    UlyssesAttention,
    VirtualCluster,
    merge_sequence,
    split_sequence,
)
from ..tensor import Tensor, gelu

__all__ = [
    "PARALLELISMS",
    "Comparison",
    "EquivalenceReport",
    "EquivalenceFailure",
    "OracleSpec",
    "check_parallel_equivalence",
    "oracle_config",
    "warm_head",
]

#: world → (tp, fsdp, tiles, ddp) for the composite oracle runs.  Chosen
#: so every level with headroom is exercised: world 8 runs a genuine
#: three-level FSDP×TILES×DDP stack, world 16 adds tensor parallelism.
_COMPOSITE_FACTORS: dict[int, tuple[int, int, int, int]] = {
    1: (1, 1, 1, 1),
    2: (1, 1, 2, 1),
    4: (1, 1, 2, 2),
    8: (1, 2, 2, 2),
    16: (2, 2, 2, 2),
}


class EquivalenceFailure(AssertionError):
    """A parallel execution disagreed with its single-rank reference."""


@dataclass(frozen=True)
class Comparison:
    """One quantity compared between parallel and reference execution."""

    quantity: str          # 'output' | 'gradients' | 'params'
    max_abs_err: float
    bit_exact: bool

    def __str__(self) -> str:
        tag = "bit-exact" if self.bit_exact else f"max_abs_err={self.max_abs_err:.3g}"
        return f"{self.quantity}: {tag}"


@dataclass
class EquivalenceReport:
    """Everything one oracle run measured."""

    strategy: str
    world: int
    comparisons: list[Comparison] = field(default_factory=list)
    notes: str = ""

    @property
    def bit_exact(self) -> bool:
        """True when every compared quantity matched byte-for-byte."""
        return all(c.bit_exact for c in self.comparisons)

    def comparison(self, quantity: str) -> Comparison:
        for c in self.comparisons:
            if c.quantity == quantity:
                return c
        raise KeyError(f"no {quantity!r} comparison in report")

    def summary(self) -> str:
        body = "; ".join(str(c) for c in self.comparisons)
        return f"{self.strategy}@world={self.world}: {body}"


def oracle_config() -> ModelConfig:
    """The tiny Reslim config every oracle run shares.

    ``embed_dim=16, num_heads=8`` keeps head count and the 4x MLP hidden
    width (64) divisible by every world size up to 8, so one config
    serves the whole {1, 2, 4, 8} x strategy matrix.
    """
    return ModelConfig("oracle-tiny", embed_dim=16, depth=1, num_heads=8)


def _mse(pred: Tensor, target: Tensor) -> Tensor:
    diff = pred - target
    return (diff * diff).mean()


def warm_head(model: Reslim, seed: int = 0) -> Reslim:
    """Seed ``N(0, 0.05²)`` into every ``head_x*`` weight and bias.

    Reslim zero-initialises its decoder heads ("at step 0 the model IS
    the residual path"), so on a freshly built model the encoder
    contributes exact zeros to the output and receives exact-zero
    gradients — a bitwise oracle run on one cannot see the transformer
    (``use_flash=True`` and ``False`` agree to the bit).  Oracles that
    mean to cover attention warm the head first.  Returns ``model``.
    """
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if name.startswith("head_x"):
            p.data[...] = rng.normal(0.0, 0.05, p.data.shape)
    return model


def _make_model(config: ModelConfig, seed: int) -> Reslim:
    model = Reslim(config, in_channels=2, out_channels=1, factor=2,
                   max_tokens=256, rng=np.random.default_rng(seed))
    return warm_head(model, seed)


def flatten_params(model) -> np.ndarray:
    """Concatenate all parameters into one flat float32 vector."""
    return np.concatenate([p.data.reshape(-1) for p in model.parameters()]).astype(np.float32)


def _apply_flat_sgd(model, flat_grads: np.ndarray, lr: float) -> None:
    """SGD on a model from a flat gradient vector (the reference step)."""
    offset = 0
    for p in model.parameters():
        n = p.data.size
        p.data -= lr * flat_grads[offset:offset + n].reshape(p.data.shape)
        offset += n


def _compare(quantity: str, actual: np.ndarray, expected: np.ndarray,
             rtol: float, atol: float, context: str) -> Comparison:
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        raise EquivalenceFailure(
            f"{context}: {quantity} shape {actual.shape} != reference {expected.shape}")
    err = np.abs(actual.astype(np.float64) - expected.astype(np.float64))
    bound = atol + rtol * np.abs(expected.astype(np.float64))
    beyond = ~(err <= bound)  # NaN is beyond
    if np.any(beyond):
        worst = np.unravel_index(int(np.argmax(err)), err.shape)
        raise EquivalenceFailure(
            f"{context}: {quantity} diverged — {int(np.sum(beyond))} elements "
            f"beyond rtol={rtol} atol={atol}; worst at {list(worst)}: "
            f"parallel={actual[worst]:.6g} reference={expected[worst]:.6g}")
    return Comparison(quantity, float(err.max()) if err.size else 0.0,
                      bool(np.array_equal(actual, expected)))


# --------------------------------------------------------------------- #
# the per-strategy table: how to build each strategy's micro-workload
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OracleSpec:
    """One oracle entry: a builder, the note for its report, and the
    row's ``(rtol, atol)``.

    A training row's builder returns ``(strategy, (x, y))`` with a
    :class:`CompositeStrategy`; a forward-only row's builder runs its
    engine and returns ``(parallel_output, reference_output)``.
    """

    build: Callable  # (world, config, seed, rng) -> (strategy, data) | (out, ref)
    note: str
    #: float32 ring-reduction rounding; Hybrid-OP compares against a
    #: float64 reference so it needs headroom
    tol: tuple[float, float] = (1e-4, 1e-5)


def _diverse_factory(config: ModelConfig, seed: int):
    """Replica factory with deliberately diverse init seeds: the oracle
    passes only if the strategy runs ``factory(0)``'s weights alone."""
    return lambda r: _make_model(config, seed if r == 0 else seed + 100 + r)


def _oracle_workload(world: int, level: str | None):
    """``(plan, batch, coarse side)`` of one training row.

    ``level`` puts the whole world on one axis — plain DDP, FSDP or
    TILES as a degenerate plan: DDP on ``lcm(8, world)`` samples (so a
    rank holds several until world 8), FSDP on a batch of 4, TILES on
    one 16x16 sample.  ``None`` is the mixed plan of
    ``_COMPOSITE_FACTORS`` on one sample per data-parallel rank.
    """
    cluster = VirtualCluster(world)
    if level == "ddp":
        return CompositePlan(cluster, ddp=world), int(np.lcm(8, world)), 8
    if level == "fsdp":
        return CompositePlan(cluster, fsdp=world), 4, 8
    if level == "tiles":
        return CompositePlan(cluster, tiles=world), 1, 16
    tp, fsdp, tiles, ddp = _COMPOSITE_FACTORS.get(world, (1, 1, 1, world))
    return CompositePlan(cluster, tp=tp, fsdp=fsdp, tiles=tiles, ddp=ddp), ddp, 16


def _batch(rng, batch: int, side: int):
    x = rng.standard_normal((batch, 2, side, side)).astype(np.float32)
    y = rng.standard_normal((batch, 1, 2 * side, 2 * side)).astype(np.float32)
    return x, y


def _build_composite(world, config, seed, rng, level=None,
                     overlap=False, compile=False):
    plan, batch, side = _oracle_workload(world, level)
    strat = CompositeStrategy(plan, _mse, halo=2, factor=2,
                              overlap=overlap, bucket_bytes=1 << 12,
                              compile=compile)
    strat.setup(_diverse_factory(config, seed))
    return strat, _batch(rng, batch, side)


def _build_elastic(world, config, seed, rng, grow=True, compile=False):
    """Composite strategy built at a *different* world, then resharded.

    ``grow`` starts at half the target world (4→8 at world 8), shrink at
    double (8→4 at world 4).  The oracle then drives the resharded
    strategy exactly like a fresh composite — passing means the live
    reshard left no trace.  The compiled variant captures step programs
    at the start world first: a reshard that keeps the tile count keeps
    them (any rank's rows replay a tile's plan), one that changes it
    releases them and the next step recaptures.
    """
    start_plan, start_batch, side = _oracle_workload(
        max(1, world // 2) if grow else world * 2, None)
    strat = CompositeStrategy(start_plan, _mse, halo=2, factor=2,
                              bucket_bytes=1 << 12, compile=compile)
    strat.setup(_diverse_factory(config, seed))
    if compile:
        # capture programs at the start world; the reshard keeps them
        # unless it changes the tile count
        strat.forward_backward(
            *_batch(np.random.default_rng(seed + 7), start_batch, side))
    plan, batch, side = _oracle_workload(world, None)
    strat.reshard(plan)
    return strat, _batch(rng, batch, side)


def _gelu(x: np.ndarray) -> np.ndarray:
    return gelu(Tensor(x)).data


def _build_tp(world, config, seed, rng):
    """Megatron's MLP (column fc1 → GELU → row fc2): the one-pair
    Hybrid-OP chain, against the unsharded float32 computation."""
    d = config.embed_dim
    hidden = int(config.mlp_ratio * d)
    w1 = rng.standard_normal((hidden, d)).astype(np.float32) * 0.3
    b1 = rng.standard_normal(hidden).astype(np.float32)
    w2 = rng.standard_normal((d, hidden)).astype(np.float32) * 0.3
    b2 = rng.standard_normal(d).astype(np.float32)
    x = rng.standard_normal((5, d)).astype(np.float32)
    mlp = HybridOpChain([w1, w2], ProcessGroup(list(range(world))),
                        biases=[b1, b2], activation=_gelu)
    return mlp.forward(x), (_gelu(x @ w1.T + b1) @ w2.T + b2).astype(np.float32)


def _build_ulysses(world, config, seed, rng):
    heads = config.num_heads
    head_dim = config.embed_dim // heads
    q, k, v = (rng.standard_normal((16, heads, head_dim)).astype(np.float32)
               for _ in range(3))
    attn = UlyssesAttention(ProcessGroup(list(range(world))), num_heads=heads)
    out = merge_sequence(attn.forward(split_sequence(q, world),
                                      split_sequence(k, world),
                                      split_sequence(v, world)))
    return out, attn.reference(q, k, v)


def _build_hybrid_op(world, config, seed, rng):
    d = config.embed_dim
    hidden = int(config.mlp_ratio * d)
    dims = [d, hidden, d, hidden, d]
    weights = [rng.standard_normal((dims[i + 1], dims[i])).astype(np.float32) * 0.3
               for i in range(len(dims) - 1)]
    x = rng.standard_normal((3, d)).astype(np.float32)
    chain = HybridOpChain(weights, ProcessGroup(list(range(world))))
    return chain.forward(x), chain.reference(x)


_SPECS: dict[str, OracleSpec] = {
    "ddp": OracleSpec(
        partial(_build_composite, level="ddp"),
        "gradients averaged by ring all-reduce (float32 chunk order); the "
        "forward crosses no reduction and every kernel is batch-invariant, "
        "so outputs are bit-exact at every world, encoder included"),
    "fsdp": OracleSpec(
        partial(_build_composite, level="fsdp"),
        "reduce-scatter accumulates in float64; identical contributions → exact"),
    "tp": OracleSpec(
        _build_tp, "forward-only engine: one all-reduce of row-parallel partials",
        tol=(1e-4, 1e-4)),
    "ulysses": OracleSpec(
        _build_ulysses,
        "per-head attention is rank-local; all-to-alls only permute data"),
    "hybrid_op": OracleSpec(
        _build_hybrid_op,
        "reference runs in float64, so agreement is tolerance-bounded by design",
        tol=(1e-3, 1e-4)),
    "tiles": OracleSpec(
        partial(_build_composite, level="tiles"),
        "reference is the serial TiledDownscaler (same tiling, one rank): "
        "outputs bit-exact at every world, encoder included"),
    "composite": OracleSpec(
        _build_composite,
        "TP×FSDP×TILES×DDP composed; reference is the per-(rank, tile) "
        "float64 gradient mean"),
    "ddp_overlap": OracleSpec(
        partial(_build_composite, level="ddp", overlap=True),
        "phases 1-2 launch per bucket on size-1 groups under backward; "
        "the one real collective is the eager whole-shard DDP all-reduce"),
    "fsdp_overlap": OracleSpec(
        partial(_build_composite, level="fsdp", overlap=True),
        "per-bucket async reduce-scatter; elementwise float64 reduction "
        "makes any bucket partition exact"),
    "composite_overlap": OracleSpec(
        partial(_build_composite, overlap=True),
        "phases 1-2 launched bucket-by-bucket under backward; aligned "
        "sub-range all-reduces keep the eager schedule's float32 rounding"),
    "ddp_compiled": OracleSpec(
        partial(_build_composite, level="ddp", compile=True),
        "per-rank CompiledStep replay — bit-identical to the eager "
        "tape walk, so the row matches wherever plain ddp does"),
    "composite_compiled": OracleSpec(
        partial(_build_composite, compile=True),
        "per-(sample, tile) CompiledStep replay inside the composite "
        "schedule; reduce phases unchanged"),
    "composite_overlap_compiled": OracleSpec(
        partial(_build_composite, overlap=True, compile=True),
        "compiled replay firing the bucketer's ready-hooks from the "
        "backward program; overlap schedule bit-identical to eager"),
    "grow": OracleSpec(
        partial(_build_elastic, grow=True),
        "composite resharded up from half the world (4→8 at world 8); "
        "the canonical remap is pure slicing, so the grown strategy "
        "matches the reference exactly where fresh composite does"),
    "shrink": OracleSpec(
        partial(_build_elastic, grow=False),
        "composite resharded down from double the world (8→4 at world "
        "4); FSDP is the shrink axis — float64 reduce-scatter makes the "
        "repartition exact"),
    "grow_compiled": OracleSpec(
        partial(_build_elastic, grow=True, compile=True),
        "programs captured at the start world survive a reshard that "
        "keeps the tile count and replay at the new world; a tile-count "
        "change releases them and the next step recaptures"),
}

#: Every row the oracle knows how to drive.  The ``*_overlap``
#: variants run the same plans with backward-driven bucketed async
#: reduction — the oracle is the proof they are numerically the same
#: schedule.  The ``*_compiled`` variants replay captured step programs
#: (:mod:`repro.tensor.compile`) instead of re-walking the tape; the
#: bitwise-vs-eager claim is asserted separately in the test suite.
PARALLELISMS: tuple[str, ...] = tuple(_SPECS)


# --------------------------------------------------------------------- #
# the training-row runner
# --------------------------------------------------------------------- #
def _run_trainable(strategy: CompositeStrategy, data, config, seed, lr,
                   rtol, atol, ctx):
    x, y = data
    ref = _make_model(config, seed)
    comparisons = [
        _compare("output", strategy.forward(x),
                 strategy.reference_forward(ref, x), rtol, atol, ctx)
    ]
    strategy.step(x, y)
    ref_grads = strategy.reference_step(ref, x, y)
    comparisons.append(_compare("gradients", strategy.unit_grads(),
                                ref_grads, rtol, atol, ctx))
    strategy.apply_sgd(lr)
    _apply_flat_sgd(ref, ref_grads, lr)
    comparisons.append(_compare("params", strategy.unit_params(),
                                flatten_params(ref), rtol, atol, ctx))
    return comparisons


def check_parallel_equivalence(strategy: str, world: int,
                               config: ModelConfig | None = None,
                               seed: int = 0, lr: float = 0.05,
                               rtol: float | None = None,
                               atol: float | None = None) -> EquivalenceReport:
    """Run one strategy at one world size and compare against single-rank.

    Raises :class:`EquivalenceFailure` on any out-of-tolerance element;
    returns an :class:`EquivalenceReport` whose per-quantity
    ``bit_exact`` flags record where agreement was byte-identical.
    """
    if strategy not in _SPECS:
        raise ValueError(f"unknown strategy {strategy!r}; known: {sorted(_SPECS)}")
    if world < 1:
        raise ValueError("world must be >= 1")
    config = config or oracle_config()
    spec = _SPECS[strategy]
    rtol = spec.tol[0] if rtol is None else rtol
    atol = spec.tol[1] if atol is None else atol
    rng = np.random.default_rng(seed)
    built, data = spec.build(world, config, seed, rng)
    ctx = f"{strategy}@world={world}"
    if isinstance(built, CompositeStrategy):
        comparisons = _run_trainable(built, data, config, seed, lr, rtol, atol, ctx)
    else:
        comparisons = [_compare("output", built, data, rtol, atol, ctx)]
    return EquivalenceReport(strategy=strategy, world=world,
                             comparisons=comparisons, notes=spec.note)
