"""Simulated communicator: real collective algorithms on virtual ranks.

Each collective operates on a list of per-rank NumPy buffers and runs the
*actual distributed algorithm* (ring all-reduce = reduce-scatter +
all-gather over chunks; tree broadcast; pairwise all-to-all), not just a
mathematical shortcut — so chunking, ordering, and floating-point
reduction order match a real ring implementation.  Every call also logs
the bytes each rank sends, which the cost model converts into time on a
given topology.

This follows the mpi4py buffer-communication idiom from the guides:
collectives take/return explicit ndarray buffers, never pickled objects.
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

    The simulated collective's *values* are computed eagerly at launch
    (sharing the exact ring arithmetic with the synchronous path, so the
    results are bit-identical), but its *time* is scheduled on the
    member ranks' comm streams.  ``wait()`` returns the result buffers
    and charges each member's compute clock only for the **exposed**
    residual — the part of the collective that had not yet finished when
    the rank stopped to wait.  ``wait()`` is idempotent.
    """

    def __init__(self, op: str, results, ranks: list[int], handle=None):
        self.op = op
        self.ranks = list(ranks)
        self._results = results
        self._handle = handle  # tracer token from collective_async, or None
        self._done = False

    @property
    def completed(self) -> bool:
        return self._done

    def wait(self):
        """Complete the collective and return its result buffers."""
        if not self._done:
            self._done = True
            if self._handle is not None:
                tracer = active_tracer()
                if tracer is not None:
                    tracer.complete_async(self._handle)
        return self._results


def _check_buffers(buffers: list[np.ndarray]) -> None:
    if not buffers:
        raise ValueError("no rank buffers")
    shape, dtype = buffers[0].shape, buffers[0].dtype
    for i, b in enumerate(buffers):
        if b.shape != shape or b.dtype != dtype:
            raise ValueError(f"rank {i} buffer {b.shape}/{b.dtype} != rank 0 {shape}/{dtype}")


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

    def _trace(self, op: str, payload_nbytes: float, sent: float) -> None:
        """Emit a per-rank span for one collective when a tracer is active.

        ``payload_nbytes`` is the per-rank buffer size — the quantity
        ``collective_time`` and ``perf_model.plan_comm_costs`` both price,
        so traced bytes/durations match the planner exactly.  Size-1
        groups are skipped: nothing moves, and trivial plans would
        otherwise drown the timeline in zero-duration spans.
        """
        if self.size == 1:
            return
        tracer = active_tracer()
        if tracer is None:
            return
        tracer.collective(op, self.ranks, payload_nbytes,
                          self.collective_time(op, payload_nbytes),
                          sent_bytes=sent)

    # ------------------------------------------------------------------ #
    # collectives — each takes one buffer per group member, in group order
    # ------------------------------------------------------------------ #
    def _all_reduce_values(self, buffers: list[np.ndarray], op: str,
                           chunks=None) -> list[np.ndarray]:
        """Shared ring all-reduce arithmetic (sync and async paths).

        ``chunks`` optionally overrides the ring's chunk partition with an
        explicit list of P index arrays (empty arrays allowed).  A chunk
        assignment determines where each element's cyclic summation
        starts, hence its float32 rounding — bucketed reductions pass the
        *globally aligned* partition so a bucket-sized all-reduce is
        bit-identical to the corresponding slice of a whole-buffer
        all-reduce.  The chunks must be ascending contiguous runs that
        tile the buffer in order; anything else raises ``ValueError``.
        """
        _check_buffers(buffers)
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        if op not in ("mean", "sum"):
            raise ValueError(f"unsupported op {op!r}")
        p = self.size
        if p == 1:
            return [buffers[0].copy()]
        flat = [b.astype(np.float32, order="C").reshape(-1) for b in buffers]
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
        return [f.reshape(buffers[0].shape) for f in flat]

    def all_reduce(self, buffers: list[np.ndarray], op: str = "mean",
                   chunks=None) -> list[np.ndarray]:
        """Ring all-reduce: reduce-scatter then all-gather over P chunks.

        Each rank sends 2·(P−1)/P of its buffer — the canonical
        bandwidth-optimal volume.  Reduction order follows the ring, so
        float32 rounding matches a real NCCL/RCCL ring.
        """
        results = self._all_reduce_values(buffers, op, chunks)
        if self.size == 1:
            self.stats.record("all_reduce", 0.0)
            return results
        sent = 2 * (self.size - 1) / self.size * buffers[0].nbytes
        self.stats.record("all_reduce", sent)
        self._trace("all_reduce", buffers[0].nbytes, sent)
        return results

    def _all_gather_values(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        _check_buffers(buffers)
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        full = np.concatenate(buffers, axis=0)
        return [full.copy() for _ in range(self.size)]

    def all_gather(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Ring all-gather: every rank ends with the concatenation
        (axis 0) of all ranks' buffers in group order."""
        results = self._all_gather_values(buffers)
        # ring all-gather: each rank forwards its shard (p-1) hops
        sent = (self.size - 1) * buffers[0].nbytes
        self.stats.record("all_gather", sent)
        self._trace("all_gather", buffers[0].nbytes, sent)
        return results

    def _reduce_scatter_values(self, buffers: list[np.ndarray],
                               op: str) -> list[np.ndarray]:
        """Element-wise float64 reduction then 1/P split.

        Unlike the ring all-reduce, the reduction here is element-wise
        over *all* ranks at once, so any partition of the parameter space
        into buckets reduces bit-identically to one whole-buffer call.
        """
        _check_buffers(buffers)
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        if buffers[0].shape[0] % self.size:
            raise ValueError(
                f"leading dim {buffers[0].shape[0]} not divisible by group size {self.size}"
            )
        total = np.sum([b.astype(np.float64) for b in buffers], axis=0)
        if op == "mean":
            total /= self.size
        elif op != "sum":
            raise ValueError(f"unsupported op {op!r}")
        shards = np.array_split(total.astype(np.float32), self.size, axis=0)
        return [s.copy() for s in shards]

    def reduce_scatter(self, buffers: list[np.ndarray], op: str = "sum") -> list[np.ndarray]:
        """Each rank ends with its 1/P slice of the element-wise reduction.

        Buffers must have leading dimension divisible by the group size.
        """
        results = self._reduce_scatter_values(buffers, op)
        sent = (self.size - 1) / self.size * buffers[0].nbytes
        self.stats.record("reduce_scatter", sent)
        self._trace("reduce_scatter", buffers[0].nbytes, sent)
        return results

    def broadcast(self, buffer: np.ndarray, root_index: int = 0) -> list[np.ndarray]:
        """Binomial-tree broadcast from the group member at ``root_index``."""
        if not 0 <= root_index < self.size:
            raise ValueError(f"root index {root_index} outside group of {self.size}")
        sent = buffer.nbytes * np.log2(max(self.size, 2)) / self.size
        self.stats.record("broadcast", sent)
        self._trace("broadcast", buffer.nbytes, sent)
        return [buffer.copy() for _ in range(self.size)]

    def all_to_all(self, buffers: list[np.ndarray]) -> list[np.ndarray]:
        """Pairwise exchange: rank i's output j-th slice = rank j's i-th slice.

        Each buffer's leading dimension must be divisible by group size.
        This is the collective sequence parallelism (Ulysses-style) needs
        every attention layer — the overhead TILES avoids.
        """
        _check_buffers(buffers)
        if len(buffers) != self.size:
            raise ValueError(f"expected {self.size} buffers, got {len(buffers)}")
        if buffers[0].shape[0] % self.size:
            raise ValueError("leading dim not divisible by group size")
        split = [np.array_split(b, self.size, axis=0) for b in buffers]
        out = [np.concatenate([split[j][i] for j in range(self.size)], axis=0)
               for i in range(self.size)]
        sent = (self.size - 1) / self.size * buffers[0].nbytes
        self.stats.record("all_to_all", sent)
        self._trace("all_to_all", buffers[0].nbytes, sent)
        return out

    # ------------------------------------------------------------------ #
    # async collectives — same math, comm-stream timing
    # ------------------------------------------------------------------ #
    def _launch_async(self, op: str, results, payload_nbytes: float,
                      sent: float) -> Work:
        """Record stats and schedule the collective on the comm stream.

        Values were already computed (eagerly, bit-identically to the
        sync path); here we only account for the *time*: the span starts
        at the latest member's current position (compute clock or comm
        frontier, whichever is later) and the member compute clocks are
        NOT advanced — ``Work.wait()`` charges only the exposed residual.
        """
        self.stats.record(op, sent)
        self.stats.record_async(op)
        handle = None
        if self.size > 1:
            tracer = active_tracer()
            if tracer is not None:
                handle = tracer.collective_async(
                    op, self.ranks, payload_nbytes,
                    self.collective_time(op, payload_nbytes),
                    sent_bytes=sent)
        return Work(op, results, self.ranks, handle)

    def all_reduce_async(self, buffers: list[np.ndarray], op: str = "mean",
                         chunks=None) -> Work:
        """Asynchronous ring all-reduce; result via ``Work.wait()``."""
        results = self._all_reduce_values(buffers, op, chunks)
        if self.size == 1:
            self.stats.record("all_reduce", 0.0)
            self.stats.record_async("all_reduce")
            return Work("all_reduce", results, self.ranks)
        sent = 2 * (self.size - 1) / self.size * buffers[0].nbytes
        return self._launch_async("all_reduce", results, buffers[0].nbytes, sent)

    def reduce_scatter_async(self, buffers: list[np.ndarray],
                             op: str = "sum") -> Work:
        """Asynchronous reduce-scatter; result via ``Work.wait()``."""
        results = self._reduce_scatter_values(buffers, op)
        sent = (self.size - 1) / self.size * buffers[0].nbytes
        return self._launch_async("reduce_scatter", results,
                                  buffers[0].nbytes, sent)

    def all_gather_async(self, buffers: list[np.ndarray]) -> Work:
        """Asynchronous ring all-gather; result via ``Work.wait()``."""
        results = self._all_gather_values(buffers)
        sent = (self.size - 1) * buffers[0].nbytes
        return self._launch_async("all_gather", results,
                                  buffers[0].nbytes, sent)

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
    """A set of virtual ranks with hierarchical group construction.

    Ranks are integers 0..world_size-1 laid out densely over the
    topology (8 per node).  Groups are contiguous or strided rank sets,
    matching Fig. 5's mapping of parallelism levels onto the machine.
    """

    def __init__(self, world_size: int, topology: FrontierTopology | None = None):
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.topology = topology or FrontierTopology()

    @property
    def n_nodes(self) -> int:
        return (self.world_size + self.topology.gpus_per_node - 1) // self.topology.gpus_per_node

    def world_group(self) -> ProcessGroup:
        return ProcessGroup(list(range(self.world_size)), self.topology)

    def group(self, ranks: list[int]) -> ProcessGroup:
        for r in ranks:
            if not 0 <= r < self.world_size:
                raise ValueError(f"rank {r} outside world of {self.world_size}")
        return ProcessGroup(ranks, self.topology)

    def contiguous_groups(self, group_size: int) -> list[ProcessGroup]:
        """Partition the world into contiguous groups of ``group_size``."""
        if self.world_size % group_size:
            raise ValueError(f"world {self.world_size} not divisible by {group_size}")
        return [self.group(list(range(s, s + group_size)))
                for s in range(0, self.world_size, group_size)]

    def strided_groups(self, group_size: int) -> list[ProcessGroup]:
        """Partition into groups of ranks with stride world/group_size
        (the orthogonal complement of contiguous grouping)."""
        if self.world_size % group_size:
            raise ValueError(f"world {self.world_size} not divisible by {group_size}")
        stride = self.world_size // group_size
        return [self.group(list(range(offset, self.world_size, stride)))
                for offset in range(stride)]
