"""Elastic re-planning: the plan-independent state record and fault
scripts.

A :class:`~repro.distributed.strategy.CompositePlan` fixes how flat
parameter and optimizer state is sliced across ranks: every rank
``(p, f, t, d)`` owns FSDP shard ``f`` of its unit's padded flat vector
(``FlatParamBuffer.padded_size(F) // F`` elements per shard).
Growing or shrinking the world mid-run moves that state onto a
*different* slicing without perturbing a single bit of it.

All plans share one **canonical form**: the unpadded float32 vectors
in the model's deterministic ``named_parameters()`` order.  The
process holds the parameters and AdamW moments once, in that layout,
so :meth:`DistributedEngine.replan
<repro.train.engine.DistributedEngine.replan>` moves no bytes: it
rebuilds the process groups through ``CompositeStrategy.reshard``.
A :class:`CanonicalState` (``CompositeStrategy.export_state`` plus the
AdamW moments) carries the run into a fresh engine at the new world,
which then takes a bitwise-identical next step.

:class:`FaultPlan` scripts rank failures at chosen step boundaries, so
recovery runs through the same replan path deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "CanonicalState",
    "FaultPlan",
]


@dataclass
class CanonicalState:
    """Plan-independent snapshot of one training run's flat state.

    ``data`` is the flat parameter vector; ``adam_m`` / ``adam_v`` are
    the AdamW moment vectors (``None`` when no optimizer state rides
    along); ``adam_t`` the optimizer's bias-correction step count and
    ``step`` the scheduler position.  ``extra`` carries small scalars
    (e.g. the AMP loss scale).  All vectors share the canonical
    ``named_parameters()`` layout, so importing onto any valid plan is
    pure slicing.
    """

    data: np.ndarray
    adam_m: np.ndarray | None = None
    adam_v: np.ndarray | None = None
    adam_t: int = 0
    step: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        for name in ("adam_m", "adam_v"):
            vec = getattr(self, name)
            if vec is not None:
                vec = np.ascontiguousarray(vec, dtype=np.float32).reshape(-1)
                if vec.size != self.data.size:
                    raise ValueError(
                        f"{name} has {vec.size} elements, params have "
                        f"{self.data.size}")
                setattr(self, name, vec)

    @property
    def nbytes(self) -> int:
        """Total state bytes the reshard must move."""
        total = self.data.nbytes
        for vec in (self.adam_m, self.adam_v):
            if vec is not None:
                total += vec.nbytes
        return int(total)


@dataclass(frozen=True)
class FaultPlan:
    """Scripted rank failures at chosen step boundaries.

    ``failures`` maps a step index to the ranks that die *at that step's
    boundary* — i.e. before step ``s`` executes.  The engine detects the
    failure when it reaches the boundary, shrinks the plan to the
    surviving world through :meth:`CompositePlan.shrink_to`, and
    replans through the same reshard path a voluntary resize uses, so
    recovery completes within one step boundary.
    """

    failures: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        for step, ranks in self.failures.items():
            if step < 0:
                raise ValueError(f"fault step {step} must be >= 0")
            if not ranks:
                raise ValueError(f"fault at step {step} kills no ranks")
            if len(set(ranks)) != len(ranks):
                raise ValueError(f"fault at step {step} repeats ranks")

    def dead_at(self, step: int) -> tuple[int, ...]:
        """Ranks that die at the boundary of ``step`` (empty if none)."""
        return tuple(self.failures.get(step, ()))
