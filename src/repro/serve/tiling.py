"""Tile-granular serving geometry: per-tile keys, splitting, reassembly.

ORBIT-2's inference pipeline is tile-native — a global downscaling is a
sweep of overlapping halo tiles — and :class:`TilePlan` makes the tile
the unit of *serving* too.  It pins down, once per service, everything
the tile-granular scheduler needs:

* the halo-padded :class:`~repro.core.tiles.TileSpec` partition of the
  coarse grid (the same ``make_tiles`` geometry every inference path
  uses, so served tiles and :class:`~repro.core.tiles.TiledDownscaler`
  tiles are byte-for-byte the same slices);
* **per-tile cache keys**: a content hash over the tile's input region
  *including its halo* (a tile's output depends on every coarse pixel
  the model sees, so the halo must participate or two tiles with equal
  cores but different neighbourhoods would collide), joined with the
  crop geometry (edge tiles with clamped halos crop differently) and
  the service's plan epoch (so weight reshards invalidate every entry
  without touching the cache);
* the crop-and-stitch arithmetic of ``stitch_tiles``, transcribed so a
  request reassembled from cached tile cores is bitwise-identical to a
  whole-grid :func:`~repro.train.global_inference` pass.

Keys come in three flavours, strongest available wins: content hashes
when the request carries a real input array, ``tile_versions`` identity
when a latency-only traffic generator tracks which tiles changed (the
rolling-forecast scenario), and a per-sample fallback otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.tiles import TileSpec, make_tiles
from .cache import content_key

__all__ = ["TilePlan"]


@dataclass(frozen=True)
class TilePlan:
    """The fixed tile geometry of one tile-granular service.

    ``specs`` are in row-major grid order — the same order
    ``make_tiles`` emits and ``stitch_tiles`` consumes, which is what
    lets :meth:`assemble` reproduce the stitched output bitwise.
    """

    coarse_shape: tuple[int, int]
    n_tiles: int
    halo: int
    factor: int
    specs: tuple[TileSpec, ...]
    # per tile, derived once: :meth:`crop`, its ``g:`` key string, and
    # :meth:`signature`
    _crops: tuple = field(init=False, repr=False, compare=False)
    _geoms: tuple = field(init=False, repr=False, compare=False)
    _sigs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = self.factor
        crops = tuple(((s.y0 - s.hy0) * f, (s.x0 - s.hx0) * f,
                       (s.y1 - s.y0) * f, (s.x1 - s.x0) * f)
                      for s in self.specs)
        object.__setattr__(self, "_crops", crops)
        object.__setattr__(self, "_geoms", tuple(
            f"{top},{left},{ch},{cw}" for top, left, ch, cw in crops))
        object.__setattr__(self, "_sigs",
                           tuple(s.halo_shape for s in self.specs))

    @classmethod
    def build(cls, coarse_shape: tuple[int, int], n_tiles: int, halo: int,
              factor: int) -> "TilePlan":
        h, w = int(coarse_shape[0]), int(coarse_shape[1])
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        specs = tuple(make_tiles(h, w, n_tiles, halo))
        return cls(coarse_shape=(h, w), n_tiles=n_tiles, halo=halo,
                   factor=int(factor), specs=specs)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def signature(self, i: int) -> tuple[int, int]:
        """Halo-extended input shape of tile ``i`` — the batching key.

        Interior tiles share one signature; edge and corner tiles carry
        clamped halos and therefore smaller ones.  Tiles in a coalesced
        batch must share a signature so they stack into fixed-shape
        forwards (one ``CompiledForward`` plan per width).
        """
        return self._sigs[i]

    def signatures(self) -> set[tuple[int, int]]:
        return set(self._sigs)

    def crop(self, i: int) -> tuple[int, int, int, int]:
        """(top, left, core_h, core_w) of tile ``i``'s core inside its
        halo-extended output, in *fine*-grid pixels."""
        return self._crops[i]

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def _geom(self, i: int) -> str:
        return self._geoms[i]

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

    # ------------------------------------------------------------------ #
    # splitting and reassembly
    # ------------------------------------------------------------------ #
    def slice_halo(self, x: np.ndarray, i: int) -> np.ndarray:
        """Halo-extended input region of tile ``i`` from a (C, h, w) field."""
        s = self.specs[i]
        return x[:, s.hy0:s.hy1, s.hx0:s.hx1]

    def crop_core(self, out: np.ndarray, i: int) -> np.ndarray:
        """Crop tile ``i``'s core from its (1, C', H_h, W_h) fine output.

        Returns a frozen contiguous copy — exactly what the tile cache
        stores (frozen inputs skip the cache's defensive copy).
        """
        top, left, ch, cw = self._crops[i]
        halo_h, halo_w = self._sigs[i]
        expected_h, expected_w = halo_h * self.factor, halo_w * self.factor
        if out.shape[-2] != expected_h or out.shape[-1] != expected_w:
            raise ValueError(
                f"tile output {out.shape[-2:]} != expected "
                f"{(expected_h, expected_w)}")
        core = out[:, :, top:top + ch, left:left + cw].copy()
        core.flags.writeable = False
        return core

    def assemble(self, cores: list[np.ndarray]) -> np.ndarray:
        """Stitch per-tile (1, C', ch·f, cw·f) cores into the (C', H, W)
        fine field.  Each core is copied once, to where ``stitch_tiles``'
        row-of-columns concatenation puts it, so the bytes match a
        whole-grid tiled forward.  Shapes are checked exactly: slice
        assignment would broadcast a mis-shaped core silently.
        """
        if len(cores) != self.n_tiles:
            raise ValueError(f"{len(cores)} cores for {self.n_tiles} tiles")
        f, (h, w), first = self.factor, self.coarse_shape, cores[0]
        channels = first.shape[1] if first.ndim == 4 else 0
        out = np.empty((channels, h * f, w * f), dtype=first.dtype)
        for core, s, (_, _, ch, cw) in zip(cores, self.specs, self._crops):
            want = (1, channels, ch, cw)
            if core.shape != want or core.dtype != first.dtype:
                raise ValueError(
                    f"tile ({s.row}, {s.col}) core {core.dtype}{core.shape} "
                    f"!= expected {first.dtype}{want}")
            out[:, s.y0 * f:s.y1 * f, s.x0 * f:s.x1 * f] = core[0]
        return out
