"""Synthetic request traffic: steady, diurnal, and burst scenarios.

"Millions of users" means the *queue*, not the model, is the system
under test — so the serving layer is exercised by a seeded arrival
process rather than a dataset loop.  Three canonical load shapes:

* ``steady``  — homogeneous Poisson arrivals at ``rate_rps``;
* ``diurnal`` — a day-curve: sinusoidal rate between
  ``rate·(1−a)`` and ``rate·(1+a)`` with mean ``rate`` (one full period
  over the scenario duration by default);
* ``burst``   — steady background plus a ``burst_factor``× spike over a
  fraction of the window (a viral region, an incoming cyclone).

Arrivals are drawn by Lewis–Shedler thinning of a homogeneous Poisson
process at the peak rate, from a seeded generator — the same
``(scenario, rate, duration, seed)`` always reproduces the same request
list, which is what lets the serving equivalence tests enumerate
scenario × replica × cache grids deterministically.

Each request references one of ``n_inputs`` distinct coarse fields with
Zipf-skewed popularity (exponent ``popularity``), so a content-keyed
cache sees realistic repeat traffic: a few hot regions requested over
and over, a long tail requested rarely.

A fourth, temporally-correlated scenario exercises tile-granular
serving:

* ``rolling`` — one global forecast state evolving in place: arrivals
  are steady Poisson, and between them a seeded tile-update process
  (rate ``tile_update_rate`` updates/s) rewrites the content of one
  coarse tile at a time.  Every request asks for the *current* state,
  so consecutive requests share most of their grid — a whole-request
  content cache misses on every update while a per-tile cache pays only
  for the tiles that actually changed.  Latency-only requests carry
  ``tile_versions`` (the per-tile version vector at arrival) so the
  scheduler can key tiles without materializing arrays; executed
  requests carry the evolved field itself, built by re-noising the
  updated tile's core region of the base input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["Request", "ROLLING", "SCENARIOS", "TrafficGenerator"]

SCENARIOS = ("steady", "diurnal", "burst")
ROLLING = "rolling"


@dataclass(frozen=True)
class Request:
    """One inference request: a coarse field wanted at fine resolution.

    ``sample`` identifies which of the generator's distinct inputs this
    request carries; ``input`` is the coarse array itself (normalized,
    ``(C, h, w)``) or ``None`` in latency-only simulations, where the
    scheduler runs but no model executes.
    """

    rid: int
    arrival_s: float
    sample: int
    input: np.ndarray | None = field(default=None, repr=False)
    #: rolling-forecast scenarios: the per-tile version vector at
    #: arrival time, the latency-only stand-in for content identity
    #: (tile i's key changes exactly when tile_versions[i] does)
    tile_versions: tuple[int, ...] | None = None


class TrafficGenerator:
    """Seeded arrival-process generator for the three load scenarios."""

    def __init__(self, scenario: str, rate_rps: float, duration_s: float,
                 *, seed: int = 0, n_inputs: int = 16,
                 popularity: float = 1.0, diurnal_amplitude: float = 0.8,
                 period_s: float | None = None, burst_factor: float = 6.0,
                 burst_start: float = 0.4, burst_width: float = 0.2,
                 n_tiles: int = 16, tile_update_rate: float = 4.0):
        if scenario not in SCENARIOS + (ROLLING,):
            raise ValueError(f"unknown scenario {scenario!r}; "
                             f"expected one of {SCENARIOS + (ROLLING,)}")
        if rate_rps <= 0 or duration_s <= 0:
            raise ValueError("rate_rps and duration_s must be positive")
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not (0.0 <= burst_start <= 1.0 and 0.0 < burst_width <= 1.0):
            raise ValueError("burst window fractions out of range")
        if n_inputs < 1:
            raise ValueError("need at least one distinct input")
        if scenario == ROLLING:
            if n_tiles < 1:
                raise ValueError("rolling scenario needs n_tiles >= 1")
            if tile_update_rate < 0.0:
                raise ValueError("tile_update_rate must be >= 0")
        self.n_tiles = n_tiles
        self.tile_update_rate = float(tile_update_rate)
        #: rolling only: the distinct evolved states generate() produced
        #: (index == Request.sample); arrays when inputs were given,
        #: else None placeholders.  The bitwise serving gates build
        #: their reference predictions from this list.
        self.states: list[np.ndarray | None] = []
        self.state_versions: list[tuple[int, ...]] = []
        self.scenario = scenario
        self.rate_rps = float(rate_rps)
        self.duration_s = float(duration_s)
        self.seed = seed
        self.n_inputs = n_inputs
        self.popularity = float(popularity)
        self.diurnal_amplitude = float(diurnal_amplitude)
        self.period_s = float(period_s) if period_s else float(duration_s)
        self.burst_factor = float(burst_factor)
        self.burst_start_s = burst_start * self.duration_s
        self.burst_end_s = min(self.duration_s,
                               self.burst_start_s + burst_width * self.duration_s)

    # ------------------------------------------------------------------ #
    # the rate function lambda(t)
    # ------------------------------------------------------------------ #
    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate (requests/s) at scenario time ``t``."""
        if self.scenario in ("steady", ROLLING):
            return self.rate_rps
        if self.scenario == "diurnal":
            # trough at t=0, peak mid-period; time-average is rate_rps
            phase = 2.0 * np.pi * t / self.period_s
            return self.rate_rps * (1.0 - self.diurnal_amplitude * np.cos(phase))
        if self.burst_start_s <= t < self.burst_end_s:
            return self.rate_rps * self.burst_factor
        return self.rate_rps

    @property
    def peak_rate_rps(self) -> float:
        if self.scenario in ("steady", ROLLING):
            return self.rate_rps
        if self.scenario == "diurnal":
            return self.rate_rps * (1.0 + self.diurnal_amplitude)
        return self.rate_rps * self.burst_factor

    @property
    def expected_requests(self) -> float:
        """Integral of the rate over the window (mean of the Poisson count)."""
        if self.scenario == "burst":
            burst_len = self.burst_end_s - self.burst_start_s
            return self.rate_rps * (self.duration_s
                                    + (self.burst_factor - 1.0) * burst_len)
        # steady and diurnal are mean-preserving by construction
        return self.rate_rps * self.duration_s

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def _sample_weights(self) -> np.ndarray:
        ranks = np.arange(1, self.n_inputs + 1, dtype=np.float64)
        w = ranks ** -self.popularity
        return w / w.sum()

    def generate(self, inputs: Sequence[np.ndarray] | None = None) -> list[Request]:
        """The full request list for this scenario, sorted by arrival time.

        ``inputs`` (optional) is a sequence of distinct coarse fields; it
        must have ``n_inputs`` entries and is attached per-request so the
        service can execute for real.  Without it requests carry
        ``input=None`` (latency-only mode).

        The ``rolling`` scenario interprets ``inputs`` differently: a
        single base field ``[base]`` that the seeded tile-update process
        evolves in place — see :meth:`_generate_rolling`.
        """
        if self.scenario == ROLLING:
            return self._generate_rolling(inputs)
        if inputs is not None and len(inputs) != self.n_inputs:
            raise ValueError(f"{len(inputs)} inputs for n_inputs={self.n_inputs}")
        rng = np.random.default_rng(self.seed)
        peak = self.peak_rate_rps
        times: list[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / peak)
            if t >= self.duration_s:
                break
            # Lewis-Shedler thinning: keep with probability lambda(t)/peak
            if rng.random() <= self.rate_at(t) / peak:
                times.append(t)
        samples = rng.choice(self.n_inputs, size=len(times),
                             p=self._sample_weights())
        return [
            Request(rid=i, arrival_s=float(ts), sample=int(s),
                    input=None if inputs is None else inputs[int(s)])
            for i, (ts, s) in enumerate(zip(times, samples))
        ]

    def _generate_rolling(self, inputs: Sequence[np.ndarray] | None) -> list[Request]:
        """The rolling-forecast request list (temporally correlated).

        One global state evolves over the window: a homogeneous Poisson
        update process at ``tile_update_rate`` bumps one uniformly-drawn
        tile's version per event (and, in executed mode, re-noises that
        tile's core region of the base field).  Each steady-Poisson
        arrival requests the state current at its arrival time.
        Distinct states are deduplicated: ``Request.sample`` indexes
        ``self.states`` / ``self.state_versions``, so equal states share
        one array and the bitwise gates need only one reference
        prediction per state.
        """
        if inputs is not None and len(inputs) != 1:
            raise ValueError(
                f"rolling takes a single base field, got {len(inputs)} inputs")
        base = None if inputs is None else np.asarray(inputs[0])
        rng = np.random.default_rng(self.seed)
        # draw order is fixed (arrivals, update times, update tiles) so
        # the same seed reproduces the same timeline exactly
        times: list[float] = []
        t = 0.0
        while True:
            t += rng.exponential(1.0 / self.rate_rps)
            if t >= self.duration_s:
                break
            times.append(t)
        update_times: list[float] = []
        if self.tile_update_rate > 0.0:
            t = 0.0
            while True:
                t += rng.exponential(1.0 / self.tile_update_rate)
                if t >= self.duration_s:
                    break
                update_times.append(t)
        update_tiles = rng.integers(0, self.n_tiles, size=len(update_times))

        plan = None
        if base is not None:
            from ..core.tiles import TilePlan
            plan = TilePlan.build(base.shape[-2:], self.n_tiles, 0, 1)

        versions = [0] * self.n_tiles
        current = base
        self.states = []
        self.state_versions = []
        state_index: dict[tuple[int, ...], int] = {}
        requests: list[Request] = []
        next_update = 0
        for rid, ts in enumerate(times):
            while next_update < len(update_times) and update_times[next_update] <= ts:
                tile = int(update_tiles[next_update])
                versions[tile] += 1
                if current is not None:
                    ys, xs = plan.specs[tile].fine_core(1)
                    current = current.copy()
                    current[..., ys, xs] = rng.standard_normal(
                        current[..., ys, xs].shape).astype(current.dtype)
                next_update += 1
            vt = tuple(versions)
            sample = state_index.get(vt)
            if sample is None:
                sample = len(self.states)
                state_index[vt] = sample
                self.states.append(current)
                self.state_versions.append(vt)
            requests.append(Request(
                rid=rid, arrival_s=float(ts), sample=sample,
                input=self.states[sample], tile_versions=vt))
        return requests
