"""Poisoned replay, the oracle for a compiled plan's liveness: NaN
shows a read of shared slab bytes that stale bytes can hide."""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from ..tensor.tensor import PERSISTENT

__all__ = ["poisoned_replay"]


def poisoned_replay(step, *arrays) -> tuple[np.ndarray, ...]:
    """Replay ``step`` on ``arrays``, which it holds a plan for, with every
    region of its shared slab NaN-filled just before its writer runs (an
    input's before the copy-in) and again once its last forward reader
    has run, and every shared byte no end-live buffer covers NaN-filled
    after the forward program.  In a shared arena any of those bytes may
    hold another plan's data, so none may be read before its writer or
    after its planned end; the persistent slab is left as it is.
    Returns the step's outputs."""
    arrays = [np.asarray(a) for a in arrays]
    if not step.captured or step._guard_key(arrays) != step._key:
        raise ValueError("poisoned_replay needs a plan captured for these inputs")
    plan, slab, program = step._plan, step._slab, step._fwd_program
    writers = [j for j, rec in enumerate(step._records) if rec[3] != "view"]
    regions: dict[int, list[tuple[int, int]]] = {}   # record -> poison first
    for off, b, (_, hi) in zip(plan.offsets, plan.buffers, plan.intervals):
        if b.kind == PERSISTENT:
            continue
        region = (off, off + b.nbytes)
        regions.setdefault(b.writer, []).append(region)   # an input's: -1
        k = bisect_right(writers, hi)
        if hi < len(step._records) and k < len(writers):   # ended mid-forward
            regions.setdefault(writers[k], []).append(region)

    def poisoned(thunk, owned):
        def run():
            for lo, hi in owned:
                slab[lo:hi] = 0xFF   # all bits set: NaN in float32
            thunk()
        return run

    if set(regions) - set(writers) - {-1}:
        raise ValueError("a shared buffer has no forward writer to poison it before")
    kept = sorted((off, off + b.nbytes) for off, b, (_, hi) in
                  zip(plan.offsets, plan.buffers, plan.intervals)
                  if b.kind != PERSISTENT and hi == len(step._records))
    ended = zip([0] + [e for _, e in kept], [o for o, _ in kept] + [slab.nbytes])
    poisoned(lambda: None, regions.pop(-1, []))()   # before the copy-in
    step._fwd_program = [poisoned(t, regions[j]) if j in regions else t
                         for t, j in zip(program, writers)]
    step._fwd_program.append(poisoned(lambda: None, list(ended)))
    try:
        return step(*arrays)
    finally:
        step._fwd_program = program
