"""Poisoned replay, the oracle for a compiled plan's liveness: NaN
shows a read of shared slab bytes that stale bytes can hide."""

from __future__ import annotations

import numpy as np

from ..tensor.tensor import PERSISTENT

__all__ = ["poisoned_replay"]


def poisoned_replay(step, *arrays) -> tuple[np.ndarray, ...]:
    """Replay ``step`` on ``arrays``, which it holds a plan for, with every
    region of its shared slab NaN-filled just before the op that writes it
    runs, and every shared byte no end-live buffer covers NaN-filled after
    the forward program.  In a shared arena any of those bytes may hold
    another plan's data, so none may be read before its writer or after
    its planned end; the plan's own slab of persistent buffers is left as
    it is.  Returns the step's outputs."""
    arrays = [np.asarray(a) for a in arrays]
    if not step.captured or step._guard_key(arrays) != step._key:
        raise ValueError("poisoned_replay needs a plan captured for these inputs")
    plan, slab, program = step._plan, step._slab, step._fwd_program
    regions: dict[int, list[tuple[int, int]]] = {}
    for off, b in zip(plan.offsets, plan.buffers):
        if b.kind != PERSISTENT:
            regions.setdefault(b.writer, []).append((off, off + b.nbytes))

    def poisoned(thunk, owned):
        def run():
            for lo, hi in owned:
                slab[lo:hi] = 0xFF   # all bits set: NaN in float32
            thunk()
        return run

    writers = [j for j, rec in enumerate(step._records) if rec[3] != "view"]
    if set(regions) - set(writers):
        raise ValueError("a shared buffer has no forward writer to poison it before")
    kept = sorted((off, off + b.nbytes) for off, b, (_, hi) in
                  zip(plan.offsets, plan.buffers, plan.intervals)
                  if b.kind != PERSISTENT and hi == len(step._records))
    ended = zip([0] + [e for _, e in kept], [o for o, _ in kept] + [slab.nbytes])
    step._fwd_program = [poisoned(t, regions[j]) if j in regions else t
                         for t, j in zip(program, writers)]
    step._fwd_program.append(poisoned(lambda: None, list(ended)))
    try:
        return step(*arrays)
    finally:
        step._fwd_program = program
