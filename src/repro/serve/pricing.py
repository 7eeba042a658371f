"""The service-time model: what one dispatched batch costs a replica.

One rule prices every batch the scheduler dispatches, whole requests and
tiles alike: a fixed per-dispatch cost plus, per unit, the inference
roofline over the unit's tokens.  A whole request is the one-tile case —
its one unit covers the whole grid and has the signature ``()`` — while a
tile is priced by its *halo-extended* shape, its ``TilePlan.signature``
(ORBIT-2 Sec. III-B: a tile's forward covers its halo, so interior tiles
cost more than clamped edge tiles).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..core.config import ModelConfig
from ..core.tiles import TilePlan
from ..distributed.perf_model import roofline_rate, transformer_flops
from ..distributed.topology import FRONTIER, FrontierTopology

__all__ = ["SERVE_DISPATCH_S", "ServiceTimeModel", "DEFAULT_SERVICE_TIME",
           "service_time_model", "cache_aware_service_time"]

#: host-side cost of one dispatched batch: staging the coarse fields to
#: the replica, kernel launches, and output writeback — paid once per
#: batch, which is exactly the overhead dynamic coalescing amortizes
SERVE_DISPATCH_S = 2.0e-3


@dataclass(frozen=True)
class ServiceTimeModel:
    """Modeled wall time of one coalesced batch: ``model(n, sig)`` is
    ``dispatch_s + n · unit_s[sig]`` for ``n`` units of batching
    signature ``sig``.

    The scheduler batches units of one signature at a time, so each call
    carries one.  Every time is checked ``>= 0`` here; the service checks
    that the model prices every signature it will batch.
    """

    dispatch_s: float
    unit_s: dict

    def __post_init__(self):
        if not self.unit_s:
            raise ValueError("unit_s must price at least one signature")
        if self.dispatch_s < 0.0 or any(v < 0.0 for v in self.unit_s.values()):
            raise ValueError("service times must be >= 0")

    def __call__(self, n: int, sig: tuple = ()) -> float:
        if n < 1:
            raise ValueError("batch_size must be >= 1")
        return self.dispatch_s + n * self.unit_s[sig]


#: generic fallback when no model config is supplied: a 126M-class
#: replica on a single GCD (~20 ms/sample at 4096 tokens)
DEFAULT_SERVICE_TIME = ServiceTimeModel(dispatch_s=SERVE_DISPATCH_S,
                                        unit_s={(): 2.0e-2})


def service_time_model(config: ModelConfig | None = None, *,
                       n_tiles: int = 1, halo: int = 0,
                       coarse_shape: tuple[int, int] | None = None,
                       tokens_per_sample: int = 4096,
                       gpus_per_replica: int = 1,
                       topology: FrontierTopology = FRONTIER,
                       ) -> ServiceTimeModel:
    """The :class:`ServiceTimeModel` of one replica of ``config``.

    ``n_tiles == 1`` prices the whole request under the signature ``()``.
    Otherwise each distinct halo-extended tile shape of the
    ``(coarse_shape, n_tiles, halo)`` plan is priced by its share of the
    grid's area: its tokens scale with that share, and the roofline rate
    is re-evaluated at the tile's own token count, so small tiles also
    pay the short-sequence underutilization penalty.  The replica's GPUs
    split the work evenly (no gradient traffic at inference).

    With ``config=None`` a unit costs its area share of
    :data:`DEFAULT_SERVICE_TIME`'s whole-request time.
    """
    if gpus_per_replica < 1:
        raise ValueError("gpus_per_replica must be >= 1")
    if n_tiles == 1:
        shares = {(): 1.0}
    elif coarse_shape is None:
        raise ValueError("pricing tiles needs coarse_shape=(h, w)")
    else:
        plan = TilePlan.build(coarse_shape, n_tiles, halo, 1)
        h, w = plan.coarse_shape
        shares = {s.halo_shape: (s.halo_shape[0] * s.halo_shape[1]) / (h * w)
                  for s in plan.specs}

    def unit_s(share: float) -> float:
        if config is None:
            return DEFAULT_SERVICE_TIME.unit_s[()] * share
        tokens = max(1.0, tokens_per_sample * share)
        rate = roofline_rate(tokens, config.embed_dim, topology)
        return (transformer_flops(tokens, config, training=False)
                / (gpus_per_replica * rate))

    return ServiceTimeModel(
        dispatch_s=SERVE_DISPATCH_S,
        unit_s={sig: unit_s(share) for sig, share in shares.items()})


def cache_aware_service_time(model: ServiceTimeModel, sigs: list[tuple],
                             hit_rate: float) -> ServiceTimeModel:
    """Whole-request pricing of tile serving at an assumed per-tile
    cache hit rate.

    ``sigs`` holds one signature per tile of the plan.  A cold request
    costs the sum over its tiles; in expectation a fraction ``hit_rate``
    of them hits and costs nothing on the replica.  The result prices
    the whole request, so :func:`repro.serve.sizing.serve_report` can size
    fleets across the hit-rate axis without running tile-level events.
    """
    if not 0.0 <= hit_rate <= 1.0:
        raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
    if not sigs:
        raise ValueError("sigs must list at least one tile")
    # k tiles of one signature cost k·t in one rounding, not k additions
    cold = sum(k * model.unit_s[sig] for sig, k in Counter(sigs).items())
    return ServiceTimeModel(dispatch_s=model.dispatch_s,
                            unit_s={(): (1.0 - hit_rate) * cold})
