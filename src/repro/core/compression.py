"""Adaptive spatial compression via Canny-guided quad-trees (Sec. III-A).

After Reslim aggregates the variable dimension, the feature embedding is
projected back to image space and recursively partitioned into spatial
quadrants.  A quadrant keeps subdividing while its Canny edge density
exceeds a threshold, stopping at a minimum patch size — so feature-rich
regions get many small patches (fine-grained learning) and smooth regions
get few large ones (Fig. 3).  Every leaf becomes ONE token: large leaves
are block-averaged down to the base patch size, so the sequence length
equals the number of leaves instead of the uniform patch count.

The compression/decompression pair is linear, differentiable, and exactly
shape-inverse; the achieved ``compression_ratio`` is what Table II(b)
sweeps (8x/16x/32x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..tensor import Tensor
from .canny import canny_edges, edge_density

__all__ = ["QuadLeaf", "build_quadtree", "QuadTreeCompressor", "uniform_token_count"]


@dataclass(frozen=True)
class QuadLeaf:
    """One quad-tree leaf: a square region ``[y0:y0+size, x0:x0+size]``."""

    y0: int
    x0: int
    size: int


def uniform_token_count(h: int, w: int, patch: int) -> int:
    """Sequence length under conventional uniform patching (Fig. 3a)."""
    return (h // patch) * (w // patch)


def build_quadtree(
    feature_image: np.ndarray,
    min_patch: int,
    max_patch: int,
    density_threshold: float = 0.05,
    canny_sigma: float = 1.0,
) -> list[QuadLeaf]:
    """Partition a 2-D feature image into adaptive square leaves.

    The image is first covered by root cells of ``max_patch``; each cell
    recursively splits into four quadrants while its edge density exceeds
    ``density_threshold`` and it is larger than ``min_patch``.  Leaves are
    returned in row-major order of their origins (deterministic).
    """
    feature_image = np.asarray(feature_image)
    if feature_image.ndim != 2:
        raise ValueError("feature image must be 2-D")
    h, w = feature_image.shape
    for name, p in (("min_patch", min_patch), ("max_patch", max_patch)):
        if p <= 0 or (p & (p - 1)) != 0:
            raise ValueError(f"{name} must be a positive power of two, got {p}")
    if max_patch < min_patch:
        raise ValueError("max_patch must be >= min_patch")
    if h % max_patch or w % max_patch:
        raise ValueError(f"grid {(h, w)} not divisible by max_patch {max_patch}")

    edges = canny_edges(feature_image, sigma=canny_sigma)
    leaves: list[QuadLeaf] = []

    def recurse(y0: int, x0: int, size: int) -> None:
        if size <= min_patch:
            leaves.append(QuadLeaf(y0, x0, size))
            return
        region = edges[y0 : y0 + size, x0 : x0 + size]
        if edge_density(region) <= density_threshold:
            leaves.append(QuadLeaf(y0, x0, size))
            return
        half = size // 2
        recurse(y0, x0, half)
        recurse(y0, x0 + half, half)
        recurse(y0 + half, x0, half)
        recurse(y0 + half, x0 + half, half)

    for y0 in range(0, h, max_patch):
        for x0 in range(0, w, max_patch):
            recurse(y0, x0, max_patch)
    return leaves


class QuadTreeCompressor:
    """Compress/decompress NCHW tensors through a fixed leaf layout.

    Built once per sample from the aggregated feature image (the CPU-side
    quad-tree construction of Fig. 5); then applied to any tensor on the
    same grid.  ``compress`` yields tokens ``(B, L, C*p*p)`` with
    ``L = len(leaves)``; ``decompress`` reconstructs the grid by
    nearest-neighbour fill of each leaf from its token patch.
    """

    def __init__(self, leaves: list[QuadLeaf], grid_shape: tuple[int, int], patch: int):
        if not leaves:
            raise ValueError("empty leaf list")
        self.leaves = list(leaves)
        self.grid_shape = tuple(grid_shape)
        self.patch = int(patch)
        h, w = self.grid_shape
        cover = np.zeros((h, w), dtype=np.int32)
        for leaf in self.leaves:
            if leaf.size < patch:
                raise ValueError(f"leaf size {leaf.size} below patch {patch}")
            cover[leaf.y0 : leaf.y0 + leaf.size, leaf.x0 : leaf.x0 + leaf.size] += 1
        if not np.all(cover == 1):
            raise ValueError("leaves must tile the grid exactly once")

    @classmethod
    def from_feature_image(cls, feature_image: np.ndarray, patch: int,
                           max_patch: int | None = None,
                           density_threshold: float = 0.05) -> "QuadTreeCompressor":
        h, w = feature_image.shape
        if max_patch is None:
            max_patch = int(min(h, w))
            while (max_patch & (max_patch - 1)) != 0 or h % max_patch or w % max_patch:
                max_patch //= 2
                if max_patch < patch:
                    max_patch = patch
                    break
        leaves = build_quadtree(feature_image, patch, max_patch, density_threshold)
        return cls(leaves, (h, w), patch)

    # ------------------------------------------------------------------ #
    @property
    def num_tokens(self) -> int:
        return len(self.leaves)

    @property
    def compression_ratio(self) -> float:
        """Uniform-token count divided by adaptive-token count (>= 1)."""
        h, w = self.grid_shape
        return uniform_token_count(h, w, self.patch) / self.num_tokens

    # ------------------------------------------------------------------ #
    def compress(self, x: Tensor) -> Tensor:
        """(B, C, H, W) → (B, L, C*p*p); each leaf pooled to a p×p patch."""
        b, c, h, w = x.shape
        if (h, w) != self.grid_shape:
            raise ValueError(f"grid mismatch: {(h, w)} vs {self.grid_shape}")
        p = self.patch
        leaves = self.leaves
        data = x.data
        out = np.empty((b, len(leaves), c * p * p), dtype=np.float32)
        for i, leaf in enumerate(leaves):
            region = data[:, :, leaf.y0 : leaf.y0 + leaf.size, leaf.x0 : leaf.x0 + leaf.size]
            f = leaf.size // p
            pooled = region.reshape(b, c, p, f, p, f).mean(axis=(3, 5))
            out[:, i, :] = pooled.reshape(b, c * p * p)

        def backward(g):
            gx = np.zeros_like(data)
            for i, leaf in enumerate(leaves):
                f = leaf.size // p
                gp = g[:, i, :].reshape(b, c, p, 1, p, 1) / (f * f)
                gp = np.broadcast_to(gp, (b, c, p, f, p, f)).reshape(b, c, leaf.size, leaf.size)
                gx[:, :, leaf.y0 : leaf.y0 + leaf.size, leaf.x0 : leaf.x0 + leaf.size] += gp
            return (gx,)

        return Tensor._from_op(out, (x,), backward, "quadtree_compress")

    def decompress(self, tokens: Tensor, channels: int) -> Tensor:
        """(B, L, C*p*p) → (B, C, H, W) by nearest-neighbour leaf fill."""
        b, l, d = tokens.shape
        if l != len(self.leaves):
            raise ValueError(f"token count {l} != leaves {len(self.leaves)}")
        p = self.patch
        if d != channels * p * p:
            raise ValueError(f"token dim {d} != channels*patch^2 {channels * p * p}")
        h, w = self.grid_shape
        leaves = self.leaves
        data = tokens.data
        out = np.zeros((b, channels, h, w), dtype=np.float32)
        for i, leaf in enumerate(leaves):
            f = leaf.size // p
            patch_img = data[:, i, :].reshape(b, channels, p, p)
            filled = np.repeat(np.repeat(patch_img, f, axis=2), f, axis=3)
            out[:, :, leaf.y0 : leaf.y0 + leaf.size, leaf.x0 : leaf.x0 + leaf.size] = filled

        def backward(g):
            gt = np.empty((b, l, d), dtype=np.float32)
            for i, leaf in enumerate(leaves):
                f = leaf.size // p
                region = g[:, :, leaf.y0 : leaf.y0 + leaf.size, leaf.x0 : leaf.x0 + leaf.size]
                pooled = region.reshape(b, channels, p, f, p, f).sum(axis=(3, 5))
                gt[:, i, :] = pooled.reshape(b, channels * p * p)
            return (gt,)

        return Tensor._from_op(out, (tokens,), backward, "quadtree_decompress")
