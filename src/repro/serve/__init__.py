"""``repro.serve`` — the production downscaling service.

Turns the repo from a trainer into a system: a simulated-time request
queue with dynamic batch coalescing, an LRU tile cache keyed on
coarse-input content hashes, model replicas sharded across the virtual
cluster, and seeded traffic scenarios (steady / diurnal / burst).
Outputs are bit-identical to :func:`repro.train.predict_dataset` for
the same inputs — batching, caching, and placement are scheduling
decisions with zero numeric footprint, although a dispatched batch
really executes stacked, in pairs, against a reference that runs every
unit alone (see ``service.py`` for the determinism contract, and
DESIGN.md §11 for the architecture).

Replica-count pricing against a latency SLO lives in
:func:`repro.distributed.perf_model.serve_report`, which drives this
package's scheduler in latency-only mode.
"""

from .cache import CacheStats, TileCache, content_key
from .service import (
    AutoscalePolicy,
    BatchPolicy,
    DownscalingService,
    Response,
    ServeResult,
)
from .tiling import TilePlan
from .traffic import ROLLING, SCENARIOS, Request, TrafficGenerator

__all__ = [
    "CacheStats",
    "TileCache",
    "content_key",
    "AutoscalePolicy",
    "BatchPolicy",
    "DownscalingService",
    "Response",
    "ServeResult",
    "TilePlan",
    "ROLLING",
    "SCENARIOS",
    "Request",
    "TrafficGenerator",
]
