"""Flash attention exactness + attention layer tests."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    CrossAttention,
    MultiHeadSelfAttention,
    TransformerBlock,
    TransformerEncoder,
    PatchEmbed,
    aggregate_variables,
    attention_peak_elems,
    flash_attention,
    naive_attention,
    unpatchify,
)
from repro.tensor import FlopCounter, Tensor
from repro.testing import check_gradients
from repro.testing.fuzz import OPS

RNG = np.random.default_rng(11)


def _t(*shape, grad=False):
    return Tensor(RNG.standard_normal(shape).astype(np.float32), requires_grad=grad)


class TestFlashExactness:
    """Flash attention must match naive attention in values AND gradients."""

    @pytest.mark.parametrize("L,block", [(16, 4), (17, 4), (5, 8), (64, 16), (33, 32)])
    def test_forward_matches_naive(self, L, block):
        q, k, v = _t(2, 3, L, 8), _t(2, 3, L, 8), _t(2, 3, L, 8)
        out_f = flash_attention(q, k, v, block_size=block)
        out_n = naive_attention(q, k, v)
        np.testing.assert_allclose(out_f.data, out_n.data, rtol=1e-4, atol=1e-5)

    def test_backward_matches_naive(self):
        qd = RNG.standard_normal((1, 2, 20, 4)).astype(np.float32)
        kd = RNG.standard_normal((1, 2, 20, 4)).astype(np.float32)
        vd = RNG.standard_normal((1, 2, 20, 4)).astype(np.float32)
        w = RNG.standard_normal((1, 2, 20, 4)).astype(np.float32)

        grads = {}
        for impl, name in [(flash_attention, "flash"), (naive_attention, "naive")]:
            q = Tensor(qd.copy(), requires_grad=True)
            k = Tensor(kd.copy(), requires_grad=True)
            v = Tensor(vd.copy(), requires_grad=True)
            kwargs = {"block_size": 8} if name == "flash" else {}
            (impl(q, k, v, **kwargs) * Tensor(w)).sum().backward()
            grads[name] = (q.grad, k.grad, v.grad)
        for gf, gn in zip(grads["flash"], grads["naive"]):
            np.testing.assert_allclose(gf, gn, rtol=2e-3, atol=1e-4)

    def test_cross_shaped_lengths(self):
        # Lq != Lk (cross attention shape)
        q, k, v = _t(1, 1, 7, 4), _t(1, 1, 13, 4), _t(1, 1, 13, 4)
        np.testing.assert_allclose(
            flash_attention(q, k, v, block_size=4).data,
            naive_attention(q, k, v).data,
            rtol=1e-4, atol=1e-5,
        )

    def test_extreme_logits_stable(self):
        # logits x 2500: online softmax must not overflow, and neither may
        # the backward's recompute exp([K, 1] @ [sc*Q, -lse]^T)
        q = Tensor(RNG.standard_normal((1, 1, 8, 4)).astype(np.float32) * 50,
                   requires_grad=True)
        k = Tensor(RNG.standard_normal((1, 1, 8, 4)).astype(np.float32) * 50,
                   requires_grad=True)
        v = _t(1, 1, 8, 4, grad=True)
        out = flash_attention(q, k, v, block_size=4)
        assert np.all(np.isfinite(out.data))
        (out * _t(1, 1, 8, 4)).sum().backward()
        for t in (q, k, v):
            assert np.all(np.isfinite(t.grad))

    def test_custom_scale(self):
        q, k, v = _t(1, 1, 6, 4), _t(1, 1, 6, 4), _t(1, 1, 6, 4)
        np.testing.assert_allclose(
            flash_attention(q, k, v, scale=0.3, block_size=2).data,
            naive_attention(q, k, v, scale=0.3).data,
            rtol=1e-4, atol=1e-5,
        )

    def test_late_key_spike_is_sharp_and_matches_float64_reference(self):
        """Item 1's second key block beats its first block's max by far
        more than 128 (log2 units), which no shift read off one key block
        survives.  Its score bound marks it sharp, so it is shifted by its
        true max over every key block; items 0 and 2 are safe and run
        unshifted.  Every item matches float64 at the fuzzer's tolerances,
        finite and without a warning."""
        rng = np.random.default_rng(5)
        nb, lq, lk, d, block = 3, 12, 16, 4, 8
        q = rng.standard_normal((nb, lq, d)).astype(np.float32)
        k, v, g = (rng.standard_normal((nb, n, d)).astype(np.float32)
                   for n in (lk, lk, lq))
        q[1] += 3.0
        k[1, block + 2] = 30.0  # logit 0.5 * 30 * sum(q) ≈ 180 against a few
        s = np.einsum("bqd,bkd->bqk", q, k) / np.sqrt(d) * np.log2(np.e)
        gap = (s[:, :, block:].max(-1) - s[:, :, :block].max(-1)).max(-1)
        assert gap[1] > 128 and gap[0] < 128 and gap[2] < 128
        assert _sharp(q, k).tolist() == [False, True, False]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _flash_fwd_bwd(q, k, v, g, block)
        _assert_matches_reference(got, _reference_fwd_bwd(q, k, v, g))

    def test_sharp_item_floored_matches_float64_reference(self):
        """Item 1's queries x30 spread its scores far past exp2's subnormal
        range (below -126, log2 units), so its tiles are floored at
        _EXP2_FLOOR; item 0 shares them.  Both match float64 at the
        fuzzer's tolerances, finite and without a warning."""
        rng = np.random.default_rng(7)
        q, k, v, g = (rng.standard_normal((2, 40, 8)).astype(np.float32)
                      for _ in range(4))
        q[1] *= 30.0
        s = np.einsum("bqd,bkd->bqk", q, k) / np.sqrt(8) * np.log2(np.e)
        spread = (s.max(-1, keepdims=True) - s).max(axis=(1, 2))
        assert spread[1] > 200 and spread[0] < 30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _flash_fwd_bwd(q, k, v, g, 16)
        _assert_matches_reference(got, _reference_fwd_bwd(q, k, v, g))

    def test_one_sharp_item_in_a_safe_serve_batch(self):
        """Serve's (8, 153, 8) with item 3's queries x30: item 3 alone is
        sharp, so it takes a shift and its tiles take the floor, and the
        seven safe items run unshifted beside it.  Every item is bitwise
        equal alone and in the batch, and matches float64 at the fuzzer's
        tolerances."""
        rng = np.random.default_rng(29)
        q, k, v, g = (rng.standard_normal((8, 153, 8)).astype(np.float32)
                      for _ in range(4))
        q[3] *= 30.0
        assert np.flatnonzero(_sharp(q, k)).tolist() == [3]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = _flash_fwd_bwd(q, k, v, g, 128)
            for i in range(8):
                alone = _flash_fwd_bwd(*(a[i:i + 1] for a in (q, k, v, g)), 128)
                for name, full, one in zip(("out", "dq", "dk", "dv"), batched, alone):
                    assert np.array_equal(full[i], one[0]), (i, name)
        _assert_matches_reference(batched, _reference_fwd_bwd(q, k, v, g))

    def test_safe_item_with_huge_values_stays_finite(self):
        """A safe item runs unshifted, so ``l`` can reach ``lk * 2**31.5``;
        its output overflows only once ``|v|max * lk`` nears 2**96.  With
        ``|v|`` about 1e20 (2**66) at lk = 153 it is finite and matches
        float64, relative to that scale."""
        rng = np.random.default_rng(30)
        q, k, v, g = (rng.standard_normal((1, 153, 8)).astype(np.float32)
                      for _ in range(4))
        v *= np.float32(1e20)
        assert not _sharp(q, k).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _flash_fwd_bwd(q, k, v, g, 128)
        scales = (1e20, 1e20, 1e20, 1.0)  # out, dq and dk scale with v
        _assert_matches_reference(
            [a / s for a, s in zip(got, scales)],
            [b / s for b, s in zip(_reference_fwd_bwd(q, k, v, g), scales)])

    def test_sharp_items_take_no_slow_path(self):
        """Queries x30 at serve's (8, 153, 8): unfloored, the subnormal
        exp2 results and the GEMMs they feed made a forward + backward
        about 25x slower than at x1; floored it runs at x1's speed.  Best
        of five against a 4x bound."""
        rng = np.random.default_rng(8)
        q, k, v, g = (rng.standard_normal((8, 153, 8)).astype(np.float32)
                      for _ in range(4))

        def best(q):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                _flash_fwd_bwd(q, k, v, g, 128)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best(q * 30.0) < 4.0 * best(q)

    @given(st.integers(2, 24), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_property_block_size_invariance(self, L, block):
        rng = np.random.default_rng(L * 100 + block)
        q = Tensor(rng.standard_normal((1, 1, L, 4)).astype(np.float32))
        k = Tensor(rng.standard_normal((1, 1, L, 4)).astype(np.float32))
        v = Tensor(rng.standard_normal((1, 1, L, 4)).astype(np.float32))
        a = flash_attention(q, k, v, block_size=block)
        b = flash_attention(q, k, v, block_size=L)
        np.testing.assert_allclose(a.data, b.data, rtol=1e-4, atol=1e-5)


def _flash_fwd_bwd(q, k, v, g, block):
    """(out, dq, dk, dv) of one flash call on detached copies."""
    ts = [Tensor(np.ascontiguousarray(a), requires_grad=True) for a in (q, k, v)]
    out = flash_attention(*ts, block_size=block)
    out.backward(np.ascontiguousarray(g))
    return (out.data, *(t.grad for t in ts))


def _sharp(q, k):
    """Items whose Cauchy-Schwarz score bound (log2 units) exceeds 63."""
    c = np.log2(np.e) / np.sqrt(q.shape[-1])
    qn, kn = (np.sqrt(np.square(a.astype(np.float64)).sum(-1).max(-1)) for a in (q, k))
    return 2 * c * qn * kn + np.log2(k.shape[-2]) > 63


def _assert_matches_reference(got, ref):
    """(out, dq, dk, dv) are finite and match float64 at the fuzzer's tolerances."""
    spec = OPS["flash_attention"]
    for name, a, b in zip(("out", "dq", "dk", "dv"), got, ref):
        assert np.all(np.isfinite(a)), name
        rtol, atol = ((spec.fwd_rtol, spec.fwd_atol) if name == "out"
                      else (spec.grad_rtol, spec.grad_atol))
        np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=name)


def _reference_fwd_bwd(q, k, v, g):
    """(out, dq, dk, dv) of naive attention in float64."""
    q, k, v, g = (a.astype(np.float64) for a in (q, k, v, g))
    sc = 1.0 / np.sqrt(q.shape[-1])
    s = q @ np.swapaxes(k, -1, -2) * sc
    p = np.exp(s - s.max(-1, keepdims=True))
    p /= p.sum(-1, keepdims=True)
    dp = g @ np.swapaxes(v, -1, -2)
    ds = p * (dp - (dp * p).sum(-1, keepdims=True)) * sc
    return p @ v, ds @ k, np.swapaxes(ds, -1, -2) @ q, np.swapaxes(p, -1, -2) @ g


class TestFlashBatchInvariance:
    """A sample's / head's bits must not depend on what shares its batch.

    Served-vs-reference (batch size set by the scheduler), DDP-vs-single
    (batch split across ranks) and Ulysses (heads split across ranks)
    are all bitwise claims that rest on this: every flattened batch item
    is its own GEMM, and block edges never depend on ``nb``.  Whether an
    item is shifted is decided on its own score bound, and the exp2 floor
    is a no-op on every item that is not sharp: one item's logits scaled
    x50 (which can make it sharp, so it is shifted by its true max and its
    tiles are floored) moves no other item's bits.
    """

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 40),
           st.integers(1, 40), st.sampled_from([1, 3, 4, 8]),
           st.sampled_from([1, 5, 16, 64]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_alone_equals_inside_any_batch(self, B, H, lq, lk, d, block, data):
        rng = np.random.default_rng([B, H, lq, lk, d, block])
        q = rng.standard_normal((B, H, lq, d)).astype(np.float32)
        k, v = (rng.standard_normal((B, H, lk, d)).astype(np.float32)
                for _ in range(2))
        g = rng.standard_normal((B, H, lq, d)).astype(np.float32)
        b = data.draw(st.integers(0, B - 1))
        h = data.draw(st.integers(0, H - 1))
        cool = _flash_fwd_bwd(q, k, v, g, block)
        hot = (data.draw(st.integers(0, B - 1)), data.draw(st.integers(0, H - 1)))
        q[hot] *= 50.0
        batched = _flash_fwd_bwd(q, k, v, g, block)
        alone = _flash_fwd_bwd(*(a[b:b + 1, h:h + 1] for a in (q, k, v, g)), block)
        others = np.ones((B, H), dtype=bool)
        others[hot] = False
        for name, full, one, before in zip(("out", "dq", "dk", "dv"), batched, alone, cool):
            assert np.array_equal(full[b, h], one[0, 0]), name
            assert np.array_equal(full[others], before[others]), name

    def test_alone_equals_inside_the_train_single_batch(self):
        """``train_single``'s call, 2 samples x 8 heads of 512 tokens at the
        default block: the backward walks its 16 items in two groups (the
        draws above fit in one), and an item's bits do not depend on which
        group it is in, or on having one to itself."""
        rng = np.random.default_rng(26)
        q, k, v, g = (rng.standard_normal((2, 8, 512, 8)).astype(np.float32)
                      for _ in range(4))
        batched = _flash_fwd_bwd(q, k, v, g, 128)
        for b, h in [(0, 0), (0, 7), (1, 0), (1, 7)]:
            alone = _flash_fwd_bwd(*(a[b:b + 1, h:h + 1] for a in (q, k, v, g)), 128)
            for name, full, one in zip(("out", "dq", "dk", "dv"), batched, alone):
                assert np.array_equal(full[b, h], one[0, 0]), name


class TestFlashMemory:
    def test_measured_peak_is_linear_and_within_the_model(self):
        """DESIGN.md §1's memory claim, measured: the tracemalloc peak of
        one forward + backward grows < 2.5x per doubling of L and stays
        within 1.25x of ``attention_peak_elems(flash=True)``."""
        nb, d, block = 2, 16, 128
        rng = np.random.default_rng(0)
        peaks = []
        for L in (512, 1024, 2048):
            q, k, v = (Tensor(rng.standard_normal((nb, L, d)).astype(np.float32),
                              requires_grad=True) for _ in range(3))
            g = rng.standard_normal((nb, L, d)).astype(np.float32)
            tracemalloc.start()
            try:
                flash_attention(q, k, v, block_size=block).backward(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * 4 * nb * attention_peak_elems(L, d, block, flash=True)
            peaks.append(peak)
        assert peaks[1] / peaks[0] < 2.5 and peaks[2] / peaks[1] < 2.5
        # the L x L matrix alone would be 4x per doubling, and 32 MiB here
        assert peaks[2] < 4 * nb * 2048 * 2048 / 8


class TestAttentionAccounting:
    def test_flop_count_quadratic_in_seq(self):
        counts = []
        for seq in (100, 200):
            q = Tensor(np.zeros((1, 8, seq, 64), dtype=np.float32))
            with FlopCounter() as fc:
                flash_attention(q, q, q)
            counts.append(fc.total)
        assert counts[0] == 2 * 2 * 8 * 100 * 100 * 64     # QKᵀ and PV
        assert counts[1] == 4 * counts[0]

    def test_flash_memory_linear_naive_quadratic(self):
        naive = [attention_peak_elems(n, 64, 128, flash=False) for n in (1000, 2000)]
        flash = [attention_peak_elems(n, 64, 128, flash=True) for n in (1000, 2000)]
        assert naive[1] / naive[0] > 3.5          # ~quadratic
        assert flash[1] / flash[0] < 2.5          # ~linear
        assert flash[0] < naive[0]


class TestAttentionLayers:
    def test_mhsa_shape(self):
        attn = MultiHeadSelfAttention(16, 4, rng=np.random.default_rng(0))
        out = attn(_t(2, 10, 16))
        assert out.shape == (2, 10, 16)

    def test_mhsa_flash_equals_naive_layer(self):
        rng_seed = 3
        a1 = MultiHeadSelfAttention(16, 4, use_flash=True, block_size=4,
                                    rng=np.random.default_rng(rng_seed))
        a2 = MultiHeadSelfAttention(16, 4, use_flash=False,
                                    rng=np.random.default_rng(rng_seed))
        a2.load_state_dict(a1.state_dict())
        x = _t(1, 12, 16)
        np.testing.assert_allclose(a1(x).data, a2(x).data, rtol=1e-4, atol=1e-5)

    def test_mhsa_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_cross_attention_aggregates_variables(self):
        ca = CrossAttention(8, 2, rng=np.random.default_rng(0))
        query = _t(2, 1, 8)      # one aggregate token
        context = _t(2, 23, 8)   # 23 variable embeddings
        out = ca(query, context)
        assert out.shape == (2, 1, 8)

    def test_cross_attention_grads_flow_to_context(self):
        ca = CrossAttention(8, 2, rng=np.random.default_rng(0))
        ctx = _t(1, 5, 8, grad=True)
        ca(_t(1, 2, 8), ctx).sum().backward()
        assert ctx.grad is not None and np.any(ctx.grad != 0)


class TestPooledAttention:
    """The fused aggregator node (``aggregate_variables``: tokenizer,
    variable embedding and mean-query attention pooled over V, in patch
    space) on its own; the fuzzer (``OPS``), the compiled-replay sweep,
    ``TestBatchInvariance`` and the model-level comparison against the
    composed ``PatchEmbed`` → ``CrossAttention.forward`` chain cover the rest."""

    @staticmethod
    def _parents(b, v, h, w, d, patch=2, scale=1.0):
        return [RNG.standard_normal(shape).astype(np.float32) * s for shape, s in
                [((b, v, h, w), 1.0), ((d, patch * patch), 1.0 / patch), ((d,), 1.0),
                 ((v, 1, d), 1.0), ((d, d), 1.0), ((d,), 1.0), ((d, d), scale),
                 ((d,), 1.0), ((d, d), 1.0), ((d,), 1.0)]]

    def test_gradcheck_all_ten_parents(self):
        # .mean() keeps |f| O(1): the float32 FD noise floor ulp(f) / (2 eps)
        # stays two decades under gradcheck's atol (PR 17's audit)
        weight = Tensor(RNG.standard_normal((2, 3, 2, 3)).astype(np.float32))
        check_gradients(
            lambda *ts: (aggregate_variables(*ts, num_heads=2) * weight).mean(),
            self._parents(2, 5, 2, 6, 6))

    def test_extreme_logits_stable(self):
        # logits x 50 saturate every softmax row: the max shift keeps the
        # output, and the p * (gp - sum(gp * p)) backward, finite
        ts = [Tensor(a, requires_grad=True)
              for a in self._parents(2, 23, 4, 4, 8, scale=50.0)]
        out = aggregate_variables(*ts, num_heads=4)
        assert np.all(np.isfinite(out.data))
        (out * _t(2, 4, 4, 2)).sum().backward()
        for t in ts:
            assert np.all(np.isfinite(t.grad))

    @pytest.mark.parametrize("patch", [2, 3])
    def test_strided_fields_gather_the_same_patches(self, patch):
        """The patch gather views the field as whole ``p``-float rows: a
        row- and column-sliced field (what ``extract_tile`` hands a tile's
        model), one whose last axis is strided (copied to contiguous
        first) and a contiguous copy give the same output and gradient
        bits."""
        b, v, h, w = 2, 5, 3 * patch, 4 * patch
        base = RNG.standard_normal((b, v, h, w)).astype(np.float32)
        halo = np.zeros((b, v, h + 3, w + 5), dtype=np.float32)
        halo[:, :, 1:1 + h, 3:3 + w] = base
        wide = np.zeros((b, v, h, 2 * w), dtype=np.float32)
        wide[..., ::2] = base
        fields = [base.copy(), halo[:, :, 1:1 + h, 3:3 + w], wide[..., ::2]]
        assert fields[2].strides[-1] == 8 and not fields[1].flags.c_contiguous
        params = self._parents(b, v, h, w, 8, patch=patch)[1:]
        g = RNG.standard_normal((b, 12, 2, 4)).astype(np.float32)
        results = []
        for field in fields:
            ts = [Tensor(field, requires_grad=True)] + [
                Tensor(a, requires_grad=True) for a in params]
            assert ts[0].data.strides == field.strides
            out = aggregate_variables(*ts, num_heads=2)
            out.backward(g)
            results.append([out.data] + [t.grad for t in ts])
        for other in results[1:]:
            for want, got in zip(results[0], other):
                assert np.array_equal(want, got)

    @pytest.mark.parametrize("field,wt,embed", [
        ((1, 3, 4, 4), (8, 3), (3, 1, 8)),      # weight is not (D, p*p)
        ((1, 3, 4, 5), (8, 4), (3, 1, 8)),      # grid not divisible by p
        ((1, 3, 4, 4), (8, 4), (2, 1, 8)),      # one embedding per variable
    ])
    def test_rejects_mismatched_parents(self, field, wt, embed):
        args = [_t(*field), _t(*wt), _t(8), _t(*embed)] + [_t(8, 8), _t(8)] * 3
        with pytest.raises(ValueError):
            aggregate_variables(*args, num_heads=2)


class TestTransformer:
    def test_block_residual_structure(self):
        blk = TransformerBlock(16, 4, rng=np.random.default_rng(0))
        x = _t(2, 6, 16)
        out = blk(x)
        assert out.shape == x.shape

    def test_encoder_forward_and_params(self):
        enc = TransformerEncoder(16, 2, 4, max_len=64, rng=np.random.default_rng(0))
        out = enc(_t(2, 10, 16))
        assert out.shape == (2, 10, 16)
        assert enc.num_parameters() > 0

    def test_encoder_positional_interpolation_for_long_seq(self):
        enc = TransformerEncoder(8, 1, 2, max_len=4, rng=np.random.default_rng(0))
        out = enc(_t(1, 9, 8))  # longer than the table
        assert out.shape == (1, 9, 8)

    def test_patch_embed_roundtrip_shapes(self):
        pe = PatchEmbed(3, 16, 2, rng=np.random.default_rng(0))
        tokens = pe(_t(2, 3, 8, 12))
        assert tokens.shape == (2, (8 // 2) * (12 // 2), 16)
        assert pe.grid_shape(8, 12) == (4, 6)

    def test_patch_embed_rejects_indivisible(self):
        pe = PatchEmbed(3, 16, 3)
        with pytest.raises(ValueError):
            pe(_t(1, 3, 8, 9))

    def test_unpatchify_inverts_patch_layout(self):
        # tokens laid out as identity patches must reassemble exactly
        x = RNG.standard_normal((1, 2, 6, 8)).astype(np.float32)
        b, c, h, w = x.shape
        p = 2
        gh, gw = h // p, w // p
        arr = x.reshape(b, c, gh, p, gw, p).transpose(0, 2, 4, 1, 3, 5).reshape(b, gh * gw, c * p * p)
        out = unpatchify(Tensor(arr), gh, gw, c, p)
        np.testing.assert_allclose(out.data, x)

    def test_unpatchify_validates(self):
        with pytest.raises(ValueError):
            unpatchify(_t(1, 5, 12), 2, 2, 3, 2)
        with pytest.raises(ValueError):
            unpatchify(_t(1, 4, 13), 2, 2, 3, 2)
