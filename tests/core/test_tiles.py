"""TILES partition/halo/stitch tests (Sec. III-B invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ModelConfig,
    Reslim,
    TiledDownscaler,
    TilePlan,
    extract_tile,
    make_tiles,
    stitch_tiles,
    tile_grid,
)
from repro.nn import Module
from repro.tensor import Tensor, bilinear_upsample

RNG = np.random.default_rng(41)


class TestTileGrid:
    @pytest.mark.parametrize("n,expected", [(1, (1, 1)), (4, (2, 2)), (16, (4, 4)),
                                            (36, (6, 6)), (6, (2, 3)), (8, (2, 4))])
    def test_most_square_factorization(self, n, expected):
        assert tile_grid(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tile_grid(0)


class TestMakeTiles:
    def test_cores_tile_grid_exactly(self):
        tiles = make_tiles(16, 32, 8, halo=2)
        cover = np.zeros((16, 32), dtype=int)
        for t in tiles:
            cover[t.y0 : t.y1, t.x0 : t.x1] += 1
        np.testing.assert_array_equal(cover, 1)

    def test_halo_clamped_at_borders(self):
        tiles = make_tiles(16, 16, 4, halo=3)
        top_left = tiles[0]
        assert top_left.hy0 == 0 and top_left.hx0 == 0      # clamped
        assert top_left.hy1 == top_left.y1 + 3               # interior halo

    def test_interior_halo_overlaps_neighbour_core(self):
        tiles = make_tiles(16, 16, 4, halo=2)
        t00, t01 = tiles[0], tiles[1]
        # tile (0,0)'s halo extends into tile (0,1)'s core (Fig. 4b)
        assert t00.hx1 > t01.x0

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            make_tiles(15, 16, 4, halo=0)

    def test_rejects_halo_larger_than_tile(self):
        with pytest.raises(ValueError):
            make_tiles(8, 8, 4, halo=4)

    def test_rejects_negative_halo(self):
        with pytest.raises(ValueError):
            make_tiles(8, 8, 4, halo=-1)


class _BilinearModel(Module):
    """A pure-interpolation 'downscaler' — exactly local, so tiling with
    any halo must reproduce the untiled output except at tile borders
    where interpolation support crosses tiles (covered by halo)."""

    def __init__(self, factor):
        super().__init__()
        self.factor = factor

    def forward(self, x):
        _, _, h, w = x.shape
        return bilinear_upsample(x, h * self.factor, w * self.factor)


class TestStitching:
    def test_stitch_reassembles_identity(self):
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32))
        specs = make_tiles(8, 8, 4, halo=0)

        class Identity1x(Module):
            def forward(self, t):
                return t

        outs = [Identity1x()(extract_tile(x, s)) for s in specs]
        full = stitch_tiles(outs, specs, factor=1)
        np.testing.assert_allclose(full.data, x.data)

    def test_halo_removes_border_artifacts(self):
        """With a sufficient halo, tiled bilinear downscaling equals the
        untiled result everywhere, including at tile seams."""
        x = Tensor(RNG.standard_normal((1, 1, 16, 16)).astype(np.float32))
        model = _BilinearModel(factor=2)
        untiled = model(x).data
        tiled = TiledDownscaler(model, n_tiles=4, halo=2, factor=2)(x).data
        np.testing.assert_allclose(tiled, untiled, rtol=1e-4, atol=1e-5)

    def test_no_halo_introduces_border_artifacts(self):
        """Without a halo, seams differ from the untiled output — the
        artifact the paper's Fig. 4(b) halo padding exists to fix."""
        x = Tensor(RNG.standard_normal((1, 1, 16, 16)).astype(np.float32))
        model = _BilinearModel(factor=2)
        untiled = model(x).data
        tiled = TiledDownscaler(model, n_tiles=4, halo=0, factor=2)(x).data
        seam = np.abs(tiled - untiled)[0, 0, :, 15:17]  # around the vertical seam
        assert seam.max() > 1e-4

    def test_gradients_flow_through_stitching(self):
        x = Tensor(RNG.standard_normal((1, 1, 8, 8)).astype(np.float32), requires_grad=True)
        model = _BilinearModel(factor=2)
        out = TiledDownscaler(model, n_tiles=4, halo=1, factor=2)(x)
        out.sum().backward()
        assert x.grad is not None
        # gradient magnitude should be uniform-ish (every input pixel used)
        assert np.all(np.abs(x.grad) > 0)

    def test_stitch_validates_shapes(self):
        specs = make_tiles(8, 8, 4, halo=1)
        bad = [Tensor(np.zeros((1, 1, 3, 3), dtype=np.float32)) for _ in specs]
        with pytest.raises(ValueError):
            stitch_tiles(bad, specs, factor=1)

    def test_stitch_validates_lengths(self):
        specs = make_tiles(8, 8, 4, halo=0)
        with pytest.raises(ValueError):
            stitch_tiles([Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))], specs, 1)


class TestTiledReslim:
    def test_tiled_reslim_shapes_and_seq_reduction(self):
        cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
        model = Reslim(cfg, 4, 2, factor=2, max_tokens=256, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 4, 16, 16)).astype(np.float32))
        untiled_out = model(x)
        full_seq = model.last_sequence_length
        tiled = TiledDownscaler(model, n_tiles=4, halo=2, factor=2)
        out = tiled(x)
        assert out.shape == untiled_out.shape
        # per-tile sequences are ~T× shorter (plus halo overhead)
        assert max(tiled.last_tile_sequence_lengths) < full_seq

    def test_single_tile_passthrough(self):
        cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
        model = Reslim(cfg, 2, 1, factor=2, max_tokens=256, rng=np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)).astype(np.float32))
        a = TiledDownscaler(model, n_tiles=1, halo=0, factor=2)(x)
        b = model(x)
        np.testing.assert_allclose(a.data, b.data)

    @given(st.sampled_from([1, 4, 16]))
    @settings(max_examples=3, deadline=None)
    def test_property_output_shape_invariant_to_tiling(self, n_tiles):
        cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)
        model = Reslim(cfg, 2, 1, factor=2, max_tokens=256, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(5).standard_normal((1, 2, 16, 16)).astype(np.float32))
        out = TiledDownscaler(model, n_tiles=n_tiles, halo=2 if n_tiles > 1 else 0, factor=2)(x)
        assert out.shape == (1, 1, 32, 32)


@st.composite
def _geometry(draw):
    """(h, w, n_tiles, halo, factor): every tile core wider than the
    halo, up to ``rows - 1`` / ``cols - 1`` leftover pixels (uneven)."""
    n_tiles = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]))
    halo = draw(st.integers(0, 3))
    rows, cols = tile_grid(n_tiles)
    h = rows * draw(st.integers(halo + 1, halo + 4)) + draw(
        st.integers(0, rows - 1))
    w = cols * draw(st.integers(halo + 1, halo + 4)) + draw(
        st.integers(0, cols - 1))
    return h, w, n_tiles, halo, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(geometry=_geometry(), channels=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_assemble_is_bitwise_stitch_tiles(geometry, channels, seed):
    """``assemble`` writes each cropped core straight into the fine
    field; ``stitch`` concatenates columns into rows and rows into a
    field.  Both copy the same pixels in the plan's row-major order, so
    over random geometry — uneven ``array_split`` boundaries and clamped
    edge halos included — the bytes agree."""
    h, w, n_tiles, halo, factor = geometry
    plan = TilePlan.build((h, w), n_tiles, halo, factor, uneven=True)
    rng = np.random.default_rng(seed)
    outs = [rng.standard_normal(
        (1, channels, s.halo_shape[0] * factor, s.halo_shape[1] * factor)
    ).astype(np.float32) for s in plan.specs]
    want = plan.stitch([Tensor(o) for o in outs]).data[0]
    got = plan.assemble([plan.crop_core(o, i) for i, o in enumerate(outs)])
    assert got.shape == want.shape == (channels, h * factor, w * factor)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # the signature table precomputed at construction agrees with the specs
    for i, s in enumerate(plan.specs):
        assert plan.signature(i) == s.halo_shape
    assert plan.signatures() == {s.halo_shape for s in plan.specs}
