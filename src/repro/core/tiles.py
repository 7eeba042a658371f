"""TILES: Tile-wise Efficient Sequence Scaling (Sec. III-B, Fig. 4).

Downscaling is spatially local ("point spread" effect): a fine pixel
depends only on nearby coarse pixels, so long-range attention across the
whole globe can be dropped.  TILES partitions input and output into
spatial tiles, restricts self-attention within each tile (one tile per
GPU in the real system), and stitches the tile outputs back together.
Complexity falls from O(N²) to O(N²/T) — linear in N for fixed tile size.

Halo padding (Fig. 4b) restores context at tile borders: each tile's
input is extended by a fixed-width overlap into its neighbours, and the
corresponding output margin is discarded before stitching, so border
pixels see the same neighbourhood they would in the untiled model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nn import Module
from ..tensor import Tensor

__all__ = [
    "TileSpec",
    "tile_grid",
    "make_tiles",
    "extract_tile",
    "stitch_tiles",
    "TilePlan",
    "TiledDownscaler",
    "TileShapeError",
]


class TileShapeError(ValueError):
    """A tile shape the model cannot patch."""


@dataclass(frozen=True)
class TileSpec:
    """One tile: core region plus the halo-extended input region.

    Coordinates are in the coarse input grid.  ``hy0 <= y0 < y1 <= hy1``;
    halos are clamped at the image boundary, so edge tiles carry smaller
    halos on their outward sides.
    """

    y0: int
    y1: int
    x0: int
    x1: int
    hy0: int
    hy1: int
    hx0: int
    hx1: int
    row: int
    col: int

    @property
    def core_shape(self) -> tuple[int, int]:
        return (self.y1 - self.y0, self.x1 - self.x0)

    @property
    def halo_shape(self) -> tuple[int, int]:
        return (self.hy1 - self.hy0, self.hx1 - self.hx0)

    def crop(self, factor: int) -> tuple[int, int, int, int]:
        """(top, left, core_h, core_w) of the core inside this tile's
        halo-extended output, in fine pixels."""
        ch, cw = self.core_shape
        return ((self.y0 - self.hy0) * factor, (self.x0 - self.hx0) * factor,
                ch * factor, cw * factor)

    def fine_core(self, factor: int) -> tuple[slice, slice]:
        """(rows, cols) of this tile's core in the fine grid."""
        return (slice(self.y0 * factor, self.y1 * factor),
                slice(self.x0 * factor, self.x1 * factor))

    def core_of(self, out, factor: int):
        """The core of this tile's (B, C, H_h, W_h) fine output — a
        :class:`Tensor` (a differentiable view) or an array — after
        checking that its grid is the halo-extended extent × ``factor``.
        """
        want = (self.halo_shape[0] * factor, self.halo_shape[1] * factor)
        if tuple(out.shape[-2:]) != want:
            raise ValueError(
                f"tile output {tuple(out.shape[-2:])} != expected {want}")
        top, left, ch, cw = self.crop(factor)
        return out[:, :, top:top + ch, left:left + cw]


def tile_grid(n_tiles: int) -> tuple[int, int]:
    """Factor ``n_tiles`` into the most-square (rows, cols) grid."""
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    best = (1, n_tiles)
    for rows in range(1, int(np.sqrt(n_tiles)) + 1):
        if n_tiles % rows == 0:
            best = (rows, n_tiles // rows)
    return best


def _split_axis(extent: int, parts: int) -> list[tuple[int, int]]:
    """(start, stop) spans partitioning ``extent`` into ``parts`` pieces,
    the first ``extent % parts`` pieces one larger (np.array_split order)."""
    base, extra = divmod(extent, parts)
    spans, start = [], 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def make_tiles(h: int, w: int, n_tiles: int, halo: int = 0,
               uneven: bool = False) -> list[TileSpec]:
    """Partition an (h, w) grid into ``n_tiles`` halo-padded tiles.

    The grid must divide evenly into the (rows, cols) factorization of
    ``n_tiles`` unless ``uneven=True``, which falls back to
    ``np.array_split``-style boundaries (leading rows/columns one pixel
    larger).  Tiles are returned in row-major order either way.
    """
    rows, cols = tile_grid(n_tiles)
    if not uneven and (h % rows or w % cols):
        raise ValueError(f"grid {(h, w)} not divisible into {rows}x{cols} tiles")
    if rows > h or cols > w:
        raise ValueError(f"grid {(h, w)} too small for {rows}x{cols} tiles")
    if halo < 0:
        raise ValueError("halo must be non-negative")
    # the floor-division extent is the smallest tile either way (uneven
    # splits give the trailing rows/cols this size)
    th, tw = h // rows, w // cols
    if halo >= th or halo >= tw:
        raise ValueError(
            f"halo {halo} does not fit the tile extent ({th}x{tw}) of a "
            f"{rows}x{cols} tiling over grid {(h, w)}: a tile's halo-extended "
            f"slice would swallow its neighbours — use halo < {min(th, tw)} "
            f"or fewer tiles")
    row_spans = _split_axis(h, rows)
    col_spans = _split_axis(w, cols)
    tiles = []
    for r, (y0, y1) in enumerate(row_spans):
        for c, (x0, x1) in enumerate(col_spans):
            tiles.append(TileSpec(
                y0=y0, y1=y1, x0=x0, x1=x1,
                hy0=max(0, y0 - halo), hy1=min(h, y1 + halo),
                hx0=max(0, x0 - halo), hx1=min(w, x1 + halo),
                row=r, col=c,
            ))
    return tiles


def extract_tile(x: Tensor, spec: TileSpec) -> Tensor:
    """Slice the halo-extended tile input from an (B, C, H, W) tensor."""
    return x[:, :, spec.hy0 : spec.hy1, spec.hx0 : spec.hx1]


def stitch_tiles(outputs: list[Tensor], specs: list[TileSpec], factor: int) -> Tensor:
    """Discard halos and reassemble tile outputs into the full fine grid.

    ``outputs[i]`` must be the fine-resolution downscaling of the
    halo-extended tile ``specs[i]``; its core region is cropped out and
    the cores are concatenated back in grid order — fully differentiable.
    """
    if len(outputs) != len(specs):
        raise ValueError("outputs/specs length mismatch")
    rows = max(s.row for s in specs) + 1
    cols = max(s.col for s in specs) + 1
    by_pos = {(s.row, s.col): (o, s) for o, s in zip(outputs, specs)}
    if len(by_pos) != rows * cols:
        raise ValueError("tiles do not form a complete grid")
    row_tensors = []
    for r in range(rows):
        cores = [s.core_of(out, factor)
                 for out, s in (by_pos[(r, c)] for c in range(cols))]
        row_tensors.append(Tensor.concatenate(cores, axis=3))
    return Tensor.concatenate(row_tensors, axis=2)


@dataclass(frozen=True)
class TilePlan:
    """The tile geometry of one coarse grid: every tiling path reads it.

    :meth:`build` partitions ``coarse_shape`` with :func:`make_tiles`;
    ``specs`` are in its row-major order, which :meth:`stitch` (the
    differentiable reassembly, training and inference) and
    :meth:`assemble` (the array reassembly of served cores) both follow,
    so the two give the same bytes.
    """

    coarse_shape: tuple[int, int]
    n_tiles: int
    halo: int
    factor: int
    specs: tuple[TileSpec, ...]
    # per tile, derived once: :meth:`signature`
    _sigs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_sigs",
                           tuple(s.halo_shape for s in self.specs))

    @classmethod
    def build(cls, coarse_shape: tuple[int, int], n_tiles: int, halo: int,
              factor: int, uneven: bool = False) -> "TilePlan":
        """The plan of an (h, w) grid; raises every geometry error of
        :func:`make_tiles` (``uneven`` as there) and a factor below 1."""
        h, w = int(coarse_shape[0]), int(coarse_shape[1])
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        specs = tuple(make_tiles(h, w, n_tiles, halo, uneven=uneven))
        return cls(coarse_shape=(h, w), n_tiles=n_tiles, halo=halo,
                   factor=int(factor), specs=specs)

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

    def stitch(self, outputs: list[Tensor]) -> Tensor:
        """Differentiable reassembly of the tiles' fine outputs
        (:func:`stitch_tiles`)."""
        return stitch_tiles(outputs, self.specs, self.factor)

    def slice_halo(self, x: np.ndarray, i: int) -> np.ndarray:
        """Halo-extended input region of tile ``i`` from a (C, h, w) field."""
        s = self.specs[i]
        return x[:, s.hy0:s.hy1, s.hx0:s.hx1]

    def crop_core(self, out: np.ndarray, i: int) -> np.ndarray:
        """Crop tile ``i``'s core from its (1, C', H_h, W_h) fine output.

        Returns a frozen contiguous copy — exactly what the tile cache
        stores (frozen inputs skip the cache's defensive copy).
        """
        core = self.specs[i].core_of(out, self.factor).copy()
        core.flags.writeable = False
        return core

    def assemble(self, cores: list[np.ndarray]) -> np.ndarray:
        """Place per-tile (1, C', ch·f, cw·f) cores into the (C', H, W)
        fine field, each copied once to where :meth:`stitch` puts it, so
        the bytes match a whole-grid tiled forward.  Shapes are checked
        exactly: slice assignment would broadcast a mis-shaped core
        silently.
        """
        if len(cores) != self.n_tiles:
            raise ValueError(f"{len(cores)} cores for {self.n_tiles} tiles")
        f, (h, w), first = self.factor, self.coarse_shape, cores[0]
        channels = first.shape[1] if first.ndim == 4 else 0
        out = np.empty((channels, h * f, w * f), dtype=first.dtype)
        for core, s in zip(cores, self.specs):
            want = (1, channels, *s.crop(f)[2:])
            if core.shape != want or core.dtype != first.dtype:
                raise ValueError(
                    f"tile ({s.row}, {s.col}) core {core.dtype}{core.shape} "
                    f"!= expected {first.dtype}{want}")
            ys, xs = s.fine_core(f)
            out[:, ys, xs] = core[0]
        return out


class TiledDownscaler(Module):
    """Run a downscaling model tile-by-tile with halo padding.

    In the real system each tile lives on a separate GPU (a TILES
    sequence-parallel group); here tiles run sequentially through the
    same model instance, which is mathematically identical to the
    synchronous multi-GPU execution (gradients sum over tiles either
    way — the all-reduce is exercised by ``CompositeStrategy`` with
    ``tiles > 1``).

    Parameters
    ----------
    model:
        Any module mapping (B, C, h, w) → (B, C_out, h*factor, w*factor).
    n_tiles:
        Number of spatial tiles per sample.
    halo:
        Halo width in coarse pixels.  Must keep the halo-extended tiles
        divisible by the model's patch size; callers typically use a
        multiple of ``patch_size``.
    uneven:
        Allow grids that do not divide evenly into the tile layout
        (``np.array_split`` boundaries).  Only usable with patch-free
        models, since tile shapes then differ.
    """

    def __init__(self, model: Module, n_tiles: int, halo: int, factor: int,
                 uneven: bool = False):
        super().__init__()
        if n_tiles < 1:
            raise ValueError("n_tiles must be >= 1")
        self.model = model
        self.n_tiles = n_tiles
        self.halo = halo
        self.factor = factor
        self.uneven = uneven
        self.last_tile_sequence_lengths: list[int] = []

    def forward(self, x: Tensor) -> Tensor:
        if self.n_tiles == 1:
            return self.model(x)
        plan = TilePlan.build(x.shape[-2:], self.n_tiles, self.halo,
                              self.factor, uneven=self.uneven)
        outputs = []
        self.last_tile_sequence_lengths = []
        for spec in plan.specs:
            out = self.model(extract_tile(x, spec))
            seq = getattr(self.model, "last_sequence_length", None)
            if seq is not None:
                self.last_tile_sequence_lengths.append(seq)
            outputs.append(out)
        return plan.stitch(outputs)
