"""Per-tile cache keys, on the tile geometry every tiling path reads
(:class:`repro.core.tiles.TilePlan`).

A key joins a content hash over the tile's input region *including its
halo* (a tile's output depends on every coarse pixel the model sees),
the crop geometry (edge tiles with clamped halos crop differently) and
the service's plan epoch (so weight reshards invalidate every entry
without touching the cache).  Without an input array the key falls back
to ``tile_versions`` identity (the latency-only rolling scenario), else
to the sample id.
"""

from __future__ import annotations

import numpy as np

from ..core import tiles
from .cache import content_key

__all__ = ["TilePlan"]


class TilePlan(tiles.TilePlan):
    """The fixed tile geometry of one tile-granular service, with the
    cache key of each tile."""

    def __post_init__(self):
        super().__post_init__()
        # per tile, derived once: the crop geometry's ``g:`` key string
        object.__setattr__(self, "_geoms", tuple(
            ",".join(map(str, s.crop(self.factor))) for s in self.specs))

    def tile_key(self, i: int, *, input: np.ndarray | None = None,
                 versions: tuple[int, ...] | None = None,
                 sample: int | None = None, epoch: int = 0) -> str:
        """The cache key of tile ``i`` for one request.

        Content mode hashes the halo-extended input region — two
        requests whose grids differ only outside this region (plus its
        halo) produce the same key, which is the whole point: a
        rolling-forecast client pays only for the tiles whose content
        actually changed.  The crop geometry and plan epoch are folded
        in so clamped edge tiles never collide with interior ones and a
        reshard (epoch bump) invalidates everything at once.
        """
        geom = self._geoms[i]
        if input is not None:
            region = self.slice_halo(input, i)
            return f"tile:{content_key(region)}/g:{geom}/e:{epoch}"
        if versions is not None:
            if len(versions) != self.n_tiles:
                raise ValueError(
                    f"tile_versions has {len(versions)} entries for "
                    f"{self.n_tiles} tiles")
            return f"tilev:{i}/v:{versions[i]}/g:{geom}/e:{epoch}"
        return f"tiles:{sample}/t:{i}/e:{epoch}"
