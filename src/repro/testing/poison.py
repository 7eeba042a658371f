"""Poisoned replay, the oracle for a compiled plan's liveness: NaN
shows a read of reused slab bytes that stale bytes can hide."""

from __future__ import annotations

import numpy as np

__all__ = ["poisoned_replay"]


def poisoned_replay(step, *arrays) -> tuple[np.ndarray, ...]:
    """Replay ``step`` on ``arrays``, which it holds a plan for, with every
    reused slab region (one another buffer shares bytes of) NaN-filled
    just before the op that writes it runs.  Returns the step's outputs."""
    arrays = [np.asarray(a) for a in arrays]
    if not step.captured or step._guard_key(arrays) != step._key:
        raise ValueError("poisoned_replay needs a plan captured for these inputs")
    plan, slab, program = step._plan, step._slab, step._fwd_program
    spans = [(o, o + b.nbytes) for o, b in zip(plan.offsets, plan.buffers)]
    regions: dict[int, list[tuple[int, int]]] = {}
    for i, (lo, hi) in enumerate(spans):
        if any(j != i and lo < e and o < hi for j, (o, e) in enumerate(spans)):
            regions.setdefault(plan.buffers[i].writer, []).append((lo, hi))

    def poisoned(thunk, owned):
        def run():
            for lo, hi in owned:
                slab[lo:hi] = 0xFF   # all bits set: NaN in float32
            thunk()
        return run

    writers = [j for j, rec in enumerate(step._records) if rec[3] != "view"]
    step._fwd_program = [poisoned(t, regions[j]) if j in regions else t
                         for t, j in zip(program, writers)]
    try:
        return step(*arrays)
    finally:
        step._fwd_program = program
