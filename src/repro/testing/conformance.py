"""Collective-conformance oracle for the simulated communicator.

Every ``ProcessGroup`` collective is validated two ways:

* **values** — against a naive float64 NumPy reference (literal sum /
  concatenate / slice semantics, no ring algorithm), so the ring
  reduce-scatter + all-gather implementation is checked for correctness
  independent of its own chunking arithmetic;
* **accounting** — the ``sent_bytes_per_rank`` each call records must
  equal the analytic volume formulas that ``distributed/perf_model.py``
  prices, byte for byte.  If an implementation change altered real
  traffic without updating the formula (or vice versa), the performance
  tables would silently drift from the simulation.

``all_reduce`` and ``reduce_scatter`` work in place, so each check
hands the collective copies of its inputs and also requires their
results to live in each rank's own buffer.
:func:`check_in_place` pins the in-place ring all-reduce bitwise to a
copy-then-reduce ring written out here, with and without explicit
``chunks``, and checks the aliasing guard.

Ring algorithms commonly break off the power-of-two path, so the default
sweep includes odd world sizes and ragged (prime-dimensioned,
non-contiguous-friendly) buffer shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..distributed import ProcessGroup

__all__ = [
    "COLLECTIVES",
    "ASYNC_COLLECTIVES",
    "CollectiveResult",
    "ConformanceReport",
    "ConformanceFailure",
    "expected_sent_bytes",
    "check_collective",
    "check_async_collective",
    "check_in_place",
    "run_conformance",
    "run_async_conformance",
    "run_in_place_conformance",
]

#: Every collective the communicator implements.
COLLECTIVES: tuple[str, ...] = (
    "all_reduce", "all_gather", "reduce_scatter", "all_to_all",
)

#: World sizes for the default sweep — primes 3/5/7 exercise the
#: non-power-of-two ring paths.
DEFAULT_WORLDS: tuple[int, ...] = (1, 2, 3, 4, 5, 7, 8)

#: Collectives that work in place in the callers' buffers.
IN_PLACE_COLLECTIVES: tuple[str, ...] = ("all_reduce", "reduce_scatter")

#: World sizes of the in-place all-reduce sweep.
IN_PLACE_WORLDS: tuple[int, ...] = (2, 3, 4, 8)

#: Collectives with an async (``Work``-handle) variant.
ASYNC_COLLECTIVES: tuple[str, ...] = (
    "all_reduce", "reduce_scatter",
)

#: float32 ring reductions reorder additions; everything else is a copy.
_VALUE_TOLS: dict[str, tuple[float, float]] = {
    "all_reduce": (1e-5, 1e-6),
    "all_gather": (0.0, 0.0),
    "reduce_scatter": (1e-6, 1e-7),
    "all_to_all": (0.0, 0.0),
}


class ConformanceFailure(AssertionError):
    """A collective disagreed with the reference or the byte formula."""


def expected_sent_bytes(op: str, world: int, buffer_nbytes: int) -> float:
    """Analytic bytes each rank sends for one collective call.

    These are the canonical ring/tree volumes the performance model uses
    (``ProcessGroup.collective_time`` prices the same expressions):
    ring all-reduce ``2(P-1)/P·n``; ring all-gather ``(P-1)·n`` with *n*
    the per-rank shard; reduce-scatter and pairwise all-to-all
    ``(P-1)/P·n``.
    """
    p = world
    n = buffer_nbytes
    if op == "all_reduce":
        return 2 * (p - 1) / p * n
    if op == "all_gather":
        return (p - 1) * n
    if op in ("reduce_scatter", "all_to_all"):
        return (p - 1) / p * n
    raise ValueError(f"unknown collective {op!r}; known: {sorted(COLLECTIVES)}")


# --------------------------------------------------------------------- #
# naive float64 references — literal semantics, no ring algorithm
# --------------------------------------------------------------------- #
def _reference(op: str, buffers: list[np.ndarray], world: int) -> list[np.ndarray]:
    xs = [b.astype(np.float64) for b in buffers]
    if op == "all_reduce":  # mean, matching the engines' default
        mean = np.sum(xs, axis=0) / world
        return [mean.copy() for _ in range(world)]
    if op == "all_gather":
        full = np.concatenate(xs, axis=0)
        return [full.copy() for _ in range(world)]
    if op == "reduce_scatter":  # sum, the ProcessGroup default
        total = np.sum(xs, axis=0)
        return [s.copy() for s in np.array_split(total, world, axis=0)]
    if op == "all_to_all":
        split = [np.array_split(x, world, axis=0) for x in xs]
        return [np.concatenate([split[j][i] for j in range(world)], axis=0)
                for i in range(world)]
    raise ValueError(f"unknown collective {op!r}")


def _invoke(group: ProcessGroup, op: str, buffers: list[np.ndarray]) -> list[np.ndarray]:
    if op == "all_reduce":
        return group.all_reduce(buffers, op="mean")
    if op == "all_gather":
        return group.all_gather(buffers)
    if op == "reduce_scatter":
        return group.reduce_scatter(buffers, op="sum")
    if op == "all_to_all":
        return group.all_to_all(buffers)
    raise ValueError(f"unknown collective {op!r}")


def _sweep_shapes(op: str, world: int, rng: np.random.Generator
                  ) -> list[tuple[int, ...]]:
    """Ragged default shapes: primes and mixed ranks, nothing aligned to
    the world size except where the collective's contract demands it."""
    if op in ("reduce_scatter", "all_to_all"):
        # contract: leading dim divisible by world — scale odd multiples
        return [(world * 1,), (world * 3,), (world * 2, 3), (world, 5, 2)]
    return [(1,), (37,), (5, 3), (2, 3, 5)]


@dataclass(frozen=True)
class CollectiveResult:
    """One (collective, world, shape) conformance check."""

    op: str
    world: int
    shape: tuple[int, ...]
    max_abs_err: float
    recorded_bytes: float
    expected_bytes: float


@dataclass
class ConformanceReport:
    results: list[CollectiveResult] = field(default_factory=list)

    @property
    def checks(self) -> int:
        return len(self.results)

    def summary(self) -> str:
        ops = sorted({r.op for r in self.results})
        worlds = sorted({r.world for r in self.results})
        worst = max((r.max_abs_err for r in self.results), default=0.0)
        return (f"{self.checks} conformance checks over ops={ops} "
                f"worlds={worlds}; worst value error {worst:.3g}")


def check_collective(op: str, world: int, shape: Sequence[int],
                     seed: int = 0) -> CollectiveResult:
    """Validate one collective call's values and byte accounting.

    Raises :class:`ConformanceFailure` if any rank's output strays from
    the naive reference beyond the op's tolerance, or if the recorded
    ``sent_bytes_per_rank`` differs from :func:`expected_sent_bytes`.
    """
    if op not in COLLECTIVES:
        raise ValueError(f"unknown collective {op!r}; known: {sorted(COLLECTIVES)}")
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    buffers = [rng.standard_normal(shape).astype(np.float32) for _ in range(world)]
    group = ProcessGroup(list(range(world)))
    rank_buffers = [b.copy() for b in buffers]
    outs = _invoke(group, op, rank_buffers)
    refs = _reference(op, buffers, world)
    ctx = f"{op}@world={world} shape={shape}"

    if len(outs) != world:
        raise ConformanceFailure(f"{ctx}: {len(outs)} outputs for {world} ranks")
    if op in IN_PLACE_COLLECTIVES:
        for rank, (got, own) in enumerate(zip(outs, rank_buffers)):
            if not np.shares_memory(got, own):
                raise ConformanceFailure(
                    f"{ctx}: rank {rank} result is not in its own buffer")
    rtol, atol = _VALUE_TOLS[op]
    max_err = 0.0
    for rank, (got, ref) in enumerate(zip(outs, refs)):
        if got.shape != ref.shape:
            raise ConformanceFailure(
                f"{ctx}: rank {rank} output shape {got.shape} != {ref.shape}")
        err = np.abs(got.astype(np.float64) - ref)
        if np.any(~(err <= atol + rtol * np.abs(ref))):  # NaN is beyond
            raise ConformanceFailure(
                f"{ctx}: rank {rank} value mismatch, max_abs_err={err.max():.3g} "
                f"(rtol={rtol} atol={atol})")
        max_err = max(max_err, float(err.max()) if err.size else 0.0)

    recorded = group.stats.bytes_per_rank.get(op, 0.0)
    expected = expected_sent_bytes(op, world, buffers[0].nbytes)
    if not np.isclose(recorded, expected, rtol=1e-12, atol=1e-9):
        raise ConformanceFailure(
            f"{ctx}: recorded sent_bytes_per_rank {recorded} != analytic {expected}")
    if group.stats.calls.get(op, 0) != 1:
        raise ConformanceFailure(
            f"{ctx}: expected exactly one recorded {op} call, "
            f"got {group.stats.calls.get(op, 0)}")
    return CollectiveResult(op, world, shape, max_err, recorded, expected)


def _invoke_async(group: ProcessGroup, op: str, buffers: list[np.ndarray]):
    if op == "all_reduce":
        return group.all_reduce_async(buffers, op="mean")
    if op == "reduce_scatter":
        return group.reduce_scatter_async(buffers, op="sum")
    raise ValueError(f"collective {op!r} has no async variant; "
                     f"known: {sorted(ASYNC_COLLECTIVES)}")


def check_async_collective(op: str, world: int, shape: Sequence[int],
                           seed: int = 0) -> CollectiveResult:
    """Validate one async collective against its sync twin.

    The contract is strict bit-identity, not a tolerance: the async
    launch runs the *same* reduction math as the sync path, so
    ``wait()``'s results must equal the sync outputs array-for-array,
    the recorded ``sent_bytes_per_rank`` must match byte for byte, and
    the launch must be counted in both ``calls`` and
    ``async_launches``.  Raises :class:`ConformanceFailure` otherwise.
    """
    if op not in ASYNC_COLLECTIVES:
        raise ValueError(f"collective {op!r} has no async variant; "
                         f"known: {sorted(ASYNC_COLLECTIVES)}")
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in shape)
    buffers = [rng.standard_normal(shape).astype(np.float32) for _ in range(world)]
    ctx = f"{op}_async@world={world} shape={shape}"

    sync_group = ProcessGroup(list(range(world)))
    sync_outs = _invoke(sync_group, op, [b.copy() for b in buffers])
    async_group = ProcessGroup(list(range(world)))
    work = _invoke_async(async_group, op, [b.copy() for b in buffers])
    async_outs = work.wait()
    again = work.wait()  # wait() must be idempotent

    if len(async_outs) != len(sync_outs):
        raise ConformanceFailure(
            f"{ctx}: {len(async_outs)} async outputs vs {len(sync_outs)} sync")
    for rank, (got, ref, rep) in enumerate(zip(async_outs, sync_outs, again)):
        if not np.array_equal(got, ref):
            raise ConformanceFailure(
                f"{ctx}: rank {rank} async result is not bit-identical to sync")
        if rep is not got:
            raise ConformanceFailure(
                f"{ctx}: rank {rank} second wait() returned different objects")
    recorded = async_group.stats.bytes_per_rank.get(op, 0.0)
    expected = sync_group.stats.bytes_per_rank.get(op, 0.0)
    if recorded != expected:
        raise ConformanceFailure(
            f"{ctx}: async sent_bytes_per_rank {recorded} != sync {expected}")
    if async_group.stats.calls.get(op, 0) != 1:
        raise ConformanceFailure(
            f"{ctx}: expected exactly one recorded {op} call, "
            f"got {async_group.stats.calls.get(op, 0)}")
    if async_group.stats.async_launches.get(op, 0) != 1:
        raise ConformanceFailure(
            f"{ctx}: expected exactly one async launch, "
            f"got {async_group.stats.async_launches.get(op, 0)}")
    max_err = max((float(np.abs(g.astype(np.float64) - r.astype(np.float64)).max())
                   for g, r in zip(async_outs, sync_outs) if g.size), default=0.0)
    return CollectiveResult(op, world, shape, max_err, recorded,
                            expected_sent_bytes(op, world, buffers[0].nbytes))


def run_async_conformance(worlds: Sequence[int] = DEFAULT_WORLDS,
                          ops: Sequence[str] = ASYNC_COLLECTIVES,
                          seed: int = 0) -> ConformanceReport:
    """Sweep async == sync bit-identity over every (op, world, shape).

    The default worlds include the odd sizes (3, 5, 7) where ring-chunk
    arithmetic is raggedest.  Raises :class:`ConformanceFailure` at the
    first disagreeing combination.
    """
    unknown = set(ops) - set(ASYNC_COLLECTIVES)
    if unknown:
        raise ValueError(f"collectives with no async variant: {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    report = ConformanceReport()
    for op in ops:
        for world in worlds:
            for shape in _sweep_shapes(op, world, rng):
                report.results.append(
                    check_async_collective(op, world, shape,
                                           seed=seed + 7919 * len(report.results)))
    return report


def run_conformance(worlds: Sequence[int] = DEFAULT_WORLDS,
                    ops: Sequence[str] = COLLECTIVES,
                    seed: int = 0) -> ConformanceReport:
    """Sweep every (op, world, ragged shape) combination.

    Returns the report on full success; raises
    :class:`ConformanceFailure` at the first failing combination.
    """
    unknown = set(ops) - set(COLLECTIVES)
    if unknown:
        raise ValueError(f"unknown ops {sorted(unknown)}")
    rng = np.random.default_rng(seed)
    report = ConformanceReport()
    for op in ops:
        for world in worlds:
            for shape in _sweep_shapes(op, world, rng):
                report.results.append(
                    check_collective(op, world, shape,
                                     seed=seed + 7919 * len(report.results)))
    return report


# --------------------------------------------------------------------- #
# in-place all-reduce: bitwise against copy-then-reduce
# --------------------------------------------------------------------- #
def _copy_ring_mean(inputs: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """The ring all-reduce's float32 mean on copies, chunk by chunk
    (``sizes`` elements each, in order): chunk ``c``'s cyclic sum starts
    at rank ``c`` and adds ranks ``c+1, c+2, …`` in turn, then divides
    by the world size."""
    p = len(inputs)
    out = np.empty_like(inputs[0])
    edges = np.cumsum([0] + sizes)
    for c, (lo, hi) in enumerate(zip(edges, edges[1:])):
        acc = inputs[c][lo:hi].copy()
        for j in range(1, p):
            acc = acc + inputs[(c + j) % p][lo:hi]
        out[lo:hi] = acc / np.float32(p)
    return out


def check_in_place(world: int, n: int, chunks: bool = False,
                   seed: int = 0) -> CollectiveResult:
    """Validate the in-place ring all-reduce against copy-then-reduce.

    The mean lands in the callers' own buffers, is returned as them,
    and equals :func:`_copy_ring_mean` on copies of the inputs *bit for
    bit*, under the default chunk partition or (``chunks=True``) a
    random ascending one with empty runs, like a bucket's aligned
    chunks.  The recorded bytes are the analytic volume, and rank
    buffers that share memory are refused.  Raises
    :class:`ConformanceFailure` otherwise.
    """
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(n).astype(np.float32) for _ in range(world)]
    if chunks:
        edges = [0, *np.sort(rng.integers(0, n + 1, world - 1)).tolist(), n]
        part = [np.arange(lo, hi) for lo, hi in zip(edges, edges[1:])]
    else:
        part = None
    sizes = [len(c) for c in (part or np.array_split(np.arange(n), world))]
    want = _copy_ring_mean(inputs, sizes)
    bufs = [x.copy() for x in inputs]
    group = ProcessGroup(list(range(world)))
    outs = group.all_reduce(bufs, op="mean", chunks=part)
    ctx = f"in-place all_reduce@world={world} n={n} chunks={chunks}"
    for rank, (got, own) in enumerate(zip(outs, bufs)):
        if got is not own:
            raise ConformanceFailure(
                f"{ctx}: rank {rank} result is not its own buffer")
        if got.tobytes() != want.tobytes():
            raise ConformanceFailure(
                f"{ctx}: rank {rank} differs from copy-then-reduce")
    recorded = group.stats.bytes_per_rank.get("all_reduce", 0.0)
    expected = expected_sent_bytes("all_reduce", world, inputs[0].nbytes)
    if recorded != expected:
        raise ConformanceFailure(
            f"{ctx}: recorded sent_bytes_per_rank {recorded} != {expected}")
    try:
        group.all_reduce([bufs[0]] * world, op="mean")
    except ValueError:
        pass
    else:
        raise ConformanceFailure(f"{ctx}: aliased rank buffers accepted")
    return CollectiveResult("all_reduce", world, (n,), 0.0, recorded, expected)


def run_in_place_conformance(worlds: Sequence[int] = IN_PLACE_WORLDS,
                             sizes: Sequence[int] = (1, 37, 1031),
                             seed: int = 0) -> ConformanceReport:
    """:func:`check_in_place` over every (world, size), with and without
    explicit chunks; raises at the first failing combination."""
    report = ConformanceReport()
    for world in worlds:
        for n in sizes:
            for chunks in (False, True):
                report.results.append(check_in_place(
                    world, n, chunks, seed=seed + 7919 * len(report.results)))
    return report
