"""The simulated clock: wall time for real work, modeled time for comms.

Every span timestamp in :mod:`repro.obs` comes from a :class:`SimClock`.
For real NumPy compute the clock is simply a monotonic wall clock, so a
traced train step shows genuine measured phase durations.  For the
virtual cluster's collectives there is nothing real to measure — the
"network" is a Python loop — so the tracer *advances* the clock by the
analytic ring-model duration instead (``ProcessGroup.collective_time``,
the same pricing ``perf_model.plan_comm_costs`` uses).  The result is a
per-rank timeline that reads as if the step had run on Frontier: compute
segments at their measured length, collectives at their modeled length.

Offsets are tracked per virtual rank, so ranks that participate in
different collectives drift apart exactly as their modeled traffic says
they should.
"""

from __future__ import annotations

import time

__all__ = ["SimClock"]


class SimClock:
    """Monotonic wall clock plus per-rank modeled-time offsets.

    ``now(rank)`` = seconds of wall time since construction + the sum of
    all modeled durations ``advance``\\ d onto that rank.  Rank 0 is the
    driver timeline (the process actually executing); other ranks exist
    only through their modeled offsets and the spans placed on them.
    """

    def __init__(self, wall=time.perf_counter):
        self._wall = wall
        self._t0 = wall()
        self._offsets: dict[int, float] = {}

    def now(self, rank: int = 0) -> float:
        """Current simulated time (seconds) on ``rank``'s timeline."""
        return self._wall() - self._t0 + self._offsets.get(rank, 0.0)

    def advance(self, rank: int, seconds: float) -> None:
        """Add ``seconds`` of modeled time to ``rank``'s timeline."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds}s")
        self._offsets[rank] = self._offsets.get(rank, 0.0) + seconds

    def offset(self, rank: int = 0) -> float:
        """Total modeled seconds accumulated on ``rank`` so far."""
        return self._offsets.get(rank, 0.0)
