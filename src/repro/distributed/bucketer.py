"""Backward-driven gradient bucketing over flat parameter buffers.

Real DDP implementations do not wait for the whole backward pass before
reducing gradients: parameters are packed into fixed-size *buckets* in
reverse registration order (gradients become final roughly tail-first on
the tape walk), and each bucket's collective launches the moment its
last member gradient is accumulated.  The tail of backward then runs
concurrently with the reduction of earlier buckets — the overlap that
ORBIT-2's strong scaling on Frontier depends on.

:class:`GradBucketer` reproduces that machinery on the virtual cluster:

* buckets are contiguous ``[lo, hi)`` slices of a
  :class:`~repro.nn.flat.FlatParamBuffer` (reverse-parameter-order
  packing makes each bucket a contiguous tail-first range);
* per-parameter *ready hooks* are armed on the autograd leaves, firing
  exactly once per backward when the leaf's gradient is final;
* a bucket whose every member fired invokes the launch callback; a
  post-backward :meth:`flush` covers parameters that never received a
  gradient (the "last bucket flush").

Bit-identity with the eager whole-buffer path is preserved by
:func:`aligned_ring_chunks`: a ring all-reduce's float32 rounding is
determined by its chunk partition, so bucketed calls pass the global
partition's intersection with the bucket instead of re-chunking.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..nn.flat import FlatParamBuffer

__all__ = ["GradBucket", "GradBucketer", "aligned_ring_chunks"]


def aligned_ring_chunks(lo: int, hi: int, total: int,
                        group_size: int) -> list[np.ndarray]:
    """Ring chunk partition for the slice ``[lo, hi)`` of a flat buffer.

    Returns ``group_size`` index arrays (relative to ``lo``; empty arrays
    allowed) — the intersection of the bucket with the *global* partition
    ``np.array_split(np.arange(total), group_size)``.  Passing these to
    ``ProcessGroup.all_reduce(..., chunks=...)`` makes the bucket-sized
    ring reduction start each element's cyclic summation at the same
    chunk as the whole-buffer call would, so float32 results match the
    corresponding slice bit for bit.
    """
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"bucket [{lo}, {hi}) outside buffer of {total}")
    base, extra = divmod(total, group_size)
    edges = np.cumsum([0] + [base + 1 if i < extra else base
                             for i in range(group_size)])
    out: list[np.ndarray] = []
    for g_lo, g_hi in zip(edges[:-1], edges[1:]):
        s, e = max(lo, int(g_lo)), min(hi, int(g_hi))
        if e > s:
            out.append(np.arange(s, e, dtype=np.int64) - lo)
        else:
            out.append(np.empty(0, dtype=np.int64))
    return out


class GradBucket:
    """One contiguous slice of the flat gradient buffer awaiting reduction."""

    __slots__ = ("index", "lo", "hi", "params", "pending", "launched")

    def __init__(self, index: int, lo: int, hi: int, params: list):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.params = params
        self.pending = len(params)
        self.launched = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GradBucket({self.index}, [{self.lo}, {self.hi}), "
                f"{len(self.params)} params)")


class GradBucketer:
    """Fixed-size reverse-order gradient buckets over one flat buffer.

    Parameters
    ----------
    buffer:
        The :class:`FlatParamBuffer` whose gradient the buckets slice.
    bucket_bytes:
        Target bucket size.  A bucket closes once it reaches this many
        bytes (a single oversized parameter still gets its own bucket,
        as in torch DDP).
    """

    def __init__(self, buffer: FlatParamBuffer, bucket_bytes: int = 1 << 16):
        if bucket_bytes < 4:
            raise ValueError("bucket_bytes must hold at least one float32")
        self.buffer = buffer
        self.bucket_bytes = int(bucket_bytes)
        self.buckets: list[GradBucket] = []
        members: list = []
        hi = buffer.size
        lo = hi
        # reverse registration order: gradients finalize roughly
        # tail-first, and reversed parameters are contiguous from the
        # buffer's tail, so every bucket is one contiguous [lo, hi) slice
        for p, (p_lo, _p_hi) in zip(reversed(buffer.params),
                                    reversed(buffer.spans)):
            members.append(p)
            lo = p_lo
            if 4 * (hi - lo) >= self.bucket_bytes:
                self.buckets.append(
                    GradBucket(len(self.buckets), lo, hi, members))
                members, hi = [], lo
        if members:
            self.buckets.append(GradBucket(len(self.buckets), lo, hi, members))
        self._param_bucket = {id(p): b for b in self.buckets for p in b.params}
        self._launch: Callable[[GradBucket], None] | None = None

    # ------------------------------------------------------------------ #
    # hook lifecycle
    # ------------------------------------------------------------------ #
    def arm(self, launch: Callable[[GradBucket], None]) -> None:
        """Install ready hooks; ``launch(bucket)`` fires on the tape walk
        as soon as every member gradient of a bucket is final."""
        self._launch = launch
        for b in self.buckets:
            b.pending = len(b.params)
            b.launched = False
        for b in self.buckets:
            for p in b.params:
                p._ready_hook = self._on_ready

    def _on_ready(self, param) -> None:
        bucket = self._param_bucket[id(param)]
        bucket.pending -= 1
        if bucket.pending == 0 and not bucket.launched:
            bucket.launched = True
            self._launch(bucket)

    def flush(self) -> None:
        """Launch every bucket the tape walk never completed.

        Covers parameters outside the graph (no gradient contribution)
        and the partially-filled head bucket.  Launch order stays the
        bucket order (tail-first) for a deterministic schedule.
        """
        for b in self.buckets:
            if not b.launched:
                b.launched = True
                self._launch(b)

    def disarm(self) -> None:
        """Remove the ready hooks (restores the zero-overhead tape walk)."""
        for b in self.buckets:
            for p in b.params:
                p._ready_hook = None
        self._launch = None
