"""Elastic re-planning: the pure state-remap layer.

A :class:`~repro.distributed.strategy.CompositePlan` fixes how flat
parameter and optimizer state is sliced across ranks: every rank
``(p, f, t, d)`` owns FSDP shard ``f`` of its unit's padded flat vector
(the partition :meth:`CompositeStrategy.reduce_gradients` reduce-scatters
into).  Growing or shrinking the world mid-run means moving that state
onto a *different* slicing — without perturbing a single bit of it.

This module is the remap's pure core.  The **canonical form** of one
flat state vector is simply the unpadded float32 vector in the model's
deterministic ``named_parameters()`` order — the one layout every plan
shares.  Around it:

* :func:`shard_slices` — each rank's ``(lo, hi)`` window into the padded
  canonical vector under a plan;
* :func:`shard_state` — export: canonical vector → per-rank shards;
* :func:`unshard_state` — import: per-rank shards → canonical vector,
  verifying the cross-unit replicas agree byte-for-byte;
* :func:`remap_state` — old plan's shards → new plan's shards, the
  composition the round-trip property test pins bitwise.

:class:`CanonicalState` bundles the three flat vectors a training run
carries (parameters + the two AdamW moments) with the optimizer step
count and scheduler position, and :class:`FaultPlan` scripts rank
failures at chosen step boundaries so recovery can be driven through
the same reshard path deterministically.

Everything here is NumPy on plain vectors — no collectives, no models —
so the bitwise round-trip guarantee is structural: export and import are
pure slicing, and float32 bytes are never re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .strategy import CompositePlan

__all__ = [
    "CanonicalState",
    "FaultPlan",
    "shard_slices",
    "shard_state",
    "unshard_state",
    "remap_state",
]


def _padded(size: int, fsdp: int) -> int:
    return -(-size // fsdp) * fsdp


def shard_slices(plan: CompositePlan, size: int) -> dict[int, tuple[int, int]]:
    """Each rank's ``(lo, hi)`` window into the padded canonical vector.

    Rank ``(p, f, t, d)`` owns FSDP shard ``f`` of its unit's flat state
    — the exact partition the 4-phase reduction scatters gradients into,
    replicated across the tensor-parallel, tile, and sample axes.
    """
    if size < 1:
        raise ValueError("state size must be >= 1")
    ln = _padded(size, plan.fsdp) // plan.fsdp
    out: dict[int, tuple[int, int]] = {}
    for d in range(plan.ddp):
        for t in range(plan.tiles):
            for f in range(plan.fsdp):
                for p in range(plan.tp):
                    out[plan.rank(p, f, t, d)] = (f * ln, (f + 1) * ln)
    return out


def shard_state(plan: CompositePlan, vec: np.ndarray) -> dict[int, np.ndarray]:
    """Export a canonical flat vector to every rank's shard (copies)."""
    vec = np.ascontiguousarray(vec, dtype=np.float32).reshape(-1)
    padded = np.zeros(_padded(vec.size, plan.fsdp), dtype=np.float32)
    padded[: vec.size] = vec
    return {rank: padded[lo:hi].copy()
            for rank, (lo, hi) in shard_slices(plan, vec.size).items()}


def unshard_state(plan: CompositePlan, shards: Mapping[int, np.ndarray],
                  size: int) -> np.ndarray:
    """Import per-rank shards back into the canonical flat vector.

    The shard of each FSDP index is replicated across every unit and
    tensor-parallel rank; all replicas must agree byte-for-byte (a
    diverged replica means the plan's synchronization invariant broke,
    and silently picking one copy would hide it).
    """
    slices = shard_slices(plan, size)
    missing = set(slices) - set(shards)
    if missing:
        raise ValueError(f"missing shards for ranks {sorted(missing)}")
    ln = _padded(size, plan.fsdp) // plan.fsdp
    padded = np.zeros(_padded(size, plan.fsdp), dtype=np.float32)
    filled: dict[int, int] = {}
    for rank, (lo, hi) in slices.items():
        shard = np.asarray(shards[rank], dtype=np.float32).reshape(-1)
        if shard.size != ln:
            raise ValueError(
                f"rank {rank} shard has {shard.size} elements, expected {ln}")
        owner = filled.get(lo)
        if owner is None:
            padded[lo:hi] = shard
            filled[lo] = rank
        elif padded[lo:hi].tobytes() != shard.tobytes():  # NaN-safe
            raise ValueError(
                f"rank {rank} shard diverged from rank {owner}'s replica")
    return padded[:size].copy()


def remap_state(old_plan: CompositePlan, new_plan: CompositePlan,
                shards: Mapping[int, np.ndarray], size: int
                ) -> dict[int, np.ndarray]:
    """Re-slice one plan's shards onto another plan — bitwise.

    ``old → canonical → new`` is pure slicing of the same float32 bytes,
    so composing with the inverse direction returns the input shards
    unchanged (the property test in ``tests/distributed/test_elastic.py``
    pins this over random layouts and odd worlds).
    """
    return shard_state(new_plan, unshard_state(old_plan, shards, size))


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
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Total state bytes the reshard must move."""
        total = self.data.nbytes
        for vec in (self.adam_m, self.adam_v):
            if vec is not None:
                total += vec.nbytes
        return int(total)

    def vectors(self) -> dict[str, np.ndarray]:
        out = {"data": self.data}
        if self.adam_m is not None:
            out["adam_m"] = self.adam_m
        if self.adam_v is not None:
            out["adam_v"] = self.adam_v
        return out

    def copy(self) -> "CanonicalState":
        return CanonicalState(
            data=self.data.copy(),
            adam_m=None if self.adam_m is None else self.adam_m.copy(),
            adam_v=None if self.adam_v is None else self.adam_v.copy(),
            adam_t=self.adam_t, step=self.step, extra=dict(self.extra))


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

    @property
    def last_step(self) -> int:
        return max(self.failures, default=-1)
