"""Simulated communicator: real collective algorithms on virtual ranks.

Each collective operates on a list of per-rank NumPy buffers and runs the
*actual distributed algorithm* (ring all-reduce = reduce-scatter +
all-gather over chunks; pairwise all-to-all), not just a
mathematical shortcut — so chunking, ordering, and floating-point
reduction order match a real ring implementation.  Every call also logs
the bytes each rank sends, which the cost model converts into time on a
given topology.

This follows the mpi4py buffer-communication idiom from the guides:
collectives take explicit ndarray buffers, never pickled objects.  The
reductions are **in place** (the ``MPI_IN_PLACE`` / NCCL in-place
idiom): ``all_reduce`` leaves the result in every rank's float32
buffer and ``reduce_scatter`` writes rank ``r``'s block over block
``r`` of its own buffer.  Both return views of the callers' buffers,
so a caller that needs its inputs intact copies them first.
``all_gather`` and ``all_to_all`` return new buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.tracer import active_tracer
from .topology import FrontierTopology

__all__ = ["CommStats", "ProcessGroup", "VirtualCluster", "Work"]


@dataclass
class CommStats:
    """Per-group communication accounting."""

    calls: dict[str, int] = field(default_factory=dict)
    bytes_per_rank: dict[str, float] = field(default_factory=dict)
    async_launches: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, sent_bytes_per_rank: float) -> None:
        self.calls[op] = self.calls.get(op, 0) + 1
        self.bytes_per_rank[op] = self.bytes_per_rank.get(op, 0.0) + sent_bytes_per_rank

    def record_async(self, op: str) -> None:
        self.async_launches[op] = self.async_launches.get(op, 0) + 1

    def total_bytes(self) -> float:
        return sum(self.bytes_per_rank.values())

    def reset(self) -> None:
        self.calls.clear()
        self.bytes_per_rank.clear()
        self.async_launches.clear()


class Work:
    """Handle for an asynchronously launched collective.

    The simulated collective's *values* are computed eagerly at launch,
    in place (sharing the exact ring arithmetic with the synchronous
    path, so the results are bit-identical), but its *time* is scheduled
    on the member ranks' comm streams.  ``wait()`` returns the result
    views and charges each member's compute clock only for the
    **exposed** residual — the part of the collective that had not yet
    finished when the rank stopped to wait.  ``wait()`` is idempotent.
    """

    def __init__(self, results, handle=None):
        self._results = results
        self._handle = handle  # tracer token from collective_async, or None
        self._done = False

    def wait(self):
        """Complete the collective and return its result buffers."""
        if not self._done:
            self._done = True
            if self._handle is not None:
                tracer = active_tracer()
                if tracer is not None:
                    tracer.complete_async(self._handle)
        return self._results


def _ring_spans(n: int, p: int, chunks) -> list[slice]:
    """The ring's ``p`` chunks of ``[0, n)`` as slices: ``np.array_split``'s
    by default, else ``chunks``, index arrays that must be ascending
    contiguous runs (empty allowed) tiling ``[0, n)`` in order."""
    if chunks is None:
        base, extra = divmod(n, p)
        sizes = [base + (i < extra) for i in range(p)]
    elif len(chunks) != p:
        raise ValueError(f"expected {p} chunk index arrays, got {len(chunks)}")
    else:
        sizes = [len(c) for c in chunks]
    edges = np.cumsum([0] + sizes).tolist()
    if edges[-1] != n or chunks is not None and not all(
            np.array_equal(c, np.arange(lo, hi))
            for c, lo, hi in zip(chunks, edges, edges[1:])):
        raise ValueError(f"chunks are not ascending contiguous runs tiling [0, {n})")
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


class ProcessGroup:
    """A subset of cluster ranks participating in collectives together."""

    def __init__(self, ranks: list[int], topology: FrontierTopology | None = None):
        if len(set(ranks)) != len(ranks) or not ranks:
            raise ValueError(f"invalid rank list {ranks}")
        self.ranks = list(ranks)
        self.topology = topology or FrontierTopology()
        self.stats = CommStats()

    @property
    def size(self) -> int:
        return len(self.ranks)

    def _check_buffers(self, buffers: list[np.ndarray],
                       in_place: bool = True) -> None:
        """One buffer per member, of one shape and dtype; in place, also
        writable C-contiguous float32 (every reshape is then a view)."""
        if not buffers:
            raise ValueError("no rank buffers")
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        shape, dtype = buffers[0].shape, buffers[0].dtype
        for i, b in enumerate(buffers):
            if b.shape != shape or b.dtype != dtype:
                raise ValueError(f"rank {i} buffer {b.shape}/{b.dtype} != rank 0 {shape}/{dtype}")
        if in_place and not (dtype == np.float32 and all(
                b.flags.c_contiguous and b.flags.writeable for b in buffers)):
            raise ValueError("in-place collectives need writable C-contiguous "
                             f"float32 rank buffers, got {dtype}")

    def _block_rows(self, buffers: list[np.ndarray]) -> int:
        """Rows of axis 0 per rank block (the leading dim must split)."""
        rows, rest = divmod(buffers[0].shape[0], self.size)
        if rest:
            raise ValueError(f"leading dim {buffers[0].shape[0]} not "
                             f"divisible by group size {self.size}")
        return rows

    def bill(self, op: str, buffers: list[np.ndarray], launch: bool = False,
             results=None) -> Work | None:
        """Account one ``op`` over ``buffers`` without moving values: the
        bytes each rank sends, then a span on the members' compute clocks
        or, with ``launch=True``, a comm-stream launch whose
        :class:`Work` carries ``results``.  The payload is ``buffers[0]``;
        ``collective_time`` prices the full buffer, as ``plan_comm_costs``
        does: the payload, or for ``all_gather`` the ``P`` gathered
        shards.  Every collective bills itself; a caller whose ranks'
        shared buffers already hold the result bills the group alone.
        Size-1 groups send nothing and emit no span."""
        p, payload = self.size, buffers[0].nbytes
        sent = {"all_reduce": 2 * (p - 1) / p, "all_gather": p - 1,
                "reduce_scatter": (p - 1) / p,
                "all_to_all": (p - 1) / p}[op] * payload
        self.stats.record(op, sent)
        priced = p * payload if op == "all_gather" else payload
        tracer = active_tracer() if p > 1 else None
        if not launch:
            if tracer is not None:
                tracer.collective(op, self.ranks, payload,
                                  self.collective_time(op, priced),
                                  sent_bytes=sent)
            return None
        self.stats.record_async(op)
        handle = None
        if tracer is not None:
            handle = tracer.collective_async(
                op, self.ranks, payload, self.collective_time(op, priced),
                sent_bytes=sent)
        return Work(results, handle)

    # ------------------------------------------------------------------ #
    # collectives — each takes one buffer per group member, in group order
    # ------------------------------------------------------------------ #
    def _all_reduce_values(self, buffers: list[np.ndarray], op: str,
                           chunks=None) -> list[np.ndarray]:
        """Shared in-place ring all-reduce arithmetic (sync and async).

        ``chunks`` optionally overrides the ring's chunk partition with an
        explicit list of P index arrays (empty arrays allowed).  A chunk
        assignment determines where each element's cyclic summation
        starts, hence its float32 rounding — bucketed reductions pass the
        *globally aligned* partition so a bucket-sized all-reduce is
        bit-identical to the corresponding slice of a whole-buffer
        all-reduce.  The chunks must be ascending contiguous runs that
        tile the buffer in order; anything else raises ``ValueError``,
        and so do rank buffers that share memory: the ring would read
        a partial sum as another rank's input.
        """
        self._check_buffers(buffers)
        if op not in ("mean", "sum"):
            raise ValueError(f"unsupported op {op!r}")
        p = self.size
        if any(np.shares_memory(a, b)
               for i, a in enumerate(buffers) for b in buffers[:i]):
            raise ValueError("rank buffers share memory")
        if p == 1:
            return list(buffers)
        flat = [b.reshape(-1) for b in buffers]
        spans = _ring_spans(flat[0].size, p, chunks)
        # reduce-scatter phase: after p-1 steps rank r owns the full
        # reduction of chunk (r+1) mod p
        for step in range(p - 1):
            for r in range(p):
                span = spans[(r - step) % p]
                flat[(r + 1) % p][span] += flat[r][span]
        # after reduce-scatter, the full reduction of chunk k lives on
        # rank (k - 1) mod p; all-gather circulates the reduced chunks
        for chunk_id, span in enumerate(spans):
            owner = (chunk_id - 1) % p
            for r in range(p):
                if r != owner:
                    flat[r][span] = flat[owner][span]
        if op == "mean":
            for f in flat:
                f /= p
        return list(buffers)

    def all_reduce(self, buffers: list[np.ndarray], op: str = "mean",
                   chunks=None) -> list[np.ndarray]:
        """Ring all-reduce in place: reduce-scatter then all-gather over
        P chunks; returns ``buffers``.

        Each rank sends 2·(P−1)/P of its buffer — the canonical
        bandwidth-optimal volume.  Reduction order follows the ring, so
        float32 rounding matches a real NCCL/RCCL ring.
        """
        results = self._all_reduce_values(buffers, op, chunks)
        self.bill("all_reduce", buffers)
        return results

    def all_gather(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Ring all-gather: every rank ends with the concatenation
        (axis 0) of all ranks' buffers in group order."""
        self._check_buffers(buffers, in_place=False)
        full = np.concatenate(buffers, axis=0)
        # ring all-gather: each rank forwards its shard (p-1) hops
        self.bill("all_gather", buffers)
        return [full.copy() for _ in range(self.size)]

    def _reduce_scatter_values(self, buffers: list[np.ndarray],
                               op: str) -> list[np.ndarray]:
        """Element-wise float64 reduction, rank ``r``'s 1/P block of it
        written in place over block ``r`` of its own buffer.

        Unlike the ring all-reduce, each element is reduced over *all*
        ranks at once, in rank order, so any partition of the parameter
        space into buckets reduces bit-identically to one whole-buffer
        call.  Every input is read before any block is written, so ranks
        may pass one shared buffer.  Returns the block views.
        """
        self._check_buffers(buffers)
        k = self._block_rows(buffers)
        if op not in ("mean", "sum"):
            raise ValueError(f"unsupported op {op!r}")
        total = buffers[0].astype(np.float64)
        for b in buffers[1:]:
            total += b
        if op == "mean":
            total /= self.size
        for r, b in enumerate(buffers):
            b[r * k:(r + 1) * k] = total[r * k:(r + 1) * k]
        return [b[r * k:(r + 1) * k] for r, b in enumerate(buffers)]

    def reduce_scatter(self, buffers: list[np.ndarray], op: str = "sum") -> list[np.ndarray]:
        """Each rank ends with its 1/P block of the element-wise reduction,
        in place; returns the block views.

        Buffers must have leading dimension divisible by the group size.
        """
        results = self._reduce_scatter_values(buffers, op)
        self.bill("reduce_scatter", buffers)
        return results

    def all_to_all(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Pairwise exchange: rank i's output j-th slice = rank j's i-th slice.

        Each buffer's leading dimension must be divisible by group size.
        This is the collective sequence parallelism (Ulysses-style) needs
        every attention layer — the overhead TILES avoids.
        """
        self._check_buffers(buffers, in_place=False)
        self._block_rows(buffers)
        split = [np.array_split(b, self.size, axis=0) for b in buffers]
        out = [np.concatenate([split[j][i] for j in range(self.size)], axis=0)
               for i in range(self.size)]
        self.bill("all_to_all", buffers)
        return out

    # ------------------------------------------------------------------ #
    # async collectives — same math, comm-stream timing
    # ------------------------------------------------------------------ #
    def all_reduce_async(self, buffers: list[np.ndarray], op: str = "mean",
                         chunks=None) -> Work:
        """Asynchronous in-place ring all-reduce; ``Work.wait()`` returns
        ``buffers``.  The span starts at the latest member's position;
        member compute clocks do not advance until ``wait()``."""
        results = self._all_reduce_values(buffers, op, chunks)
        return self.bill("all_reduce", buffers, launch=True, results=results)

    def reduce_scatter_async(self, buffers: list[np.ndarray],
                             op: str = "sum") -> Work:
        """Asynchronous in-place reduce-scatter; ``Work.wait()`` returns
        the block views."""
        results = self._reduce_scatter_values(buffers, op)
        return self.bill("reduce_scatter", buffers, launch=True,
                         results=results)

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def collective_time(self, op: str, nbytes: int) -> float:
        """Modelled wall-clock of one collective on this group's topology.

        Ring model: T = steps · latency + volume / bottleneck_bandwidth,
        with the canonical per-op volumes (all_reduce 2·(P−1)/P·n, etc.).
        """
        p = self.size
        if p == 1:
            return 0.0
        bw, lat = self.topology.group_bottleneck(self.ranks)
        if op == "all_reduce":
            steps, volume = 2 * (p - 1), 2 * (p - 1) / p * nbytes
        elif op in ("all_gather", "reduce_scatter", "all_to_all"):
            steps, volume = p - 1, (p - 1) / p * nbytes
        elif op == "broadcast":
            steps, volume = int(np.ceil(np.log2(p))), nbytes
        else:
            raise ValueError(f"unknown collective {op!r}")
        return steps * lat + volume / bw


class VirtualCluster:
    """A set of virtual ranks and the process groups built over them.

    Ranks are integers 0..world_size-1 laid out densely over the
    topology (8 per node); :meth:`group` builds a group over any of
    them, which is how ``CompositePlan`` maps Fig. 5's parallelism
    levels onto the machine.
    """

    def __init__(self, world_size: int, topology: FrontierTopology | None = None):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.topology = topology or FrontierTopology()

    def group(self, ranks: list[int]) -> ProcessGroup:
        for r in ranks:
            if not 0 <= r < self.world_size:
                raise ValueError(f"rank {r} outside world of {self.world_size}")
        return ProcessGroup(ranks, self.topology)
