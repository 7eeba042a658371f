"""Property-based tests (hypothesis) on the tensor engine's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import aggregate_variables
from repro.tensor import (Tensor, bilinear_upsample, conv2d, gelu, layernorm, linear,
                          softmax)

dims = st.integers(1, 6)


class TestBroadcastingGradients:
    @given(dims, dims, dims)
    @settings(max_examples=25, deadline=None)
    def test_add_gradient_conserves_mass(self, a, b, c):
        """d(sum(x + y))/dx sums to the output size regardless of the
        broadcast pattern — gradient 'mass' conservation."""
        rng = np.random.default_rng(a * 100 + b * 10 + c)
        x = Tensor(rng.standard_normal((a, 1, c)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.standard_normal((1, b, 1)).astype(np.float32), requires_grad=True)
        (x + y).sum().backward()
        out_size = a * b * c
        assert x.grad.sum() == pytest.approx(out_size, rel=1e-5)
        assert y.grad.sum() == pytest.approx(out_size, rel=1e-5)

    @given(dims, dims)
    @settings(max_examples=25, deadline=None)
    def test_mul_gradient_is_partner_value(self, a, b):
        rng = np.random.default_rng(a * 10 + b)
        x = Tensor(rng.standard_normal((a, b)).astype(np.float32), requires_grad=True)
        y = Tensor(rng.standard_normal((a, b)).astype(np.float32))
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, y.data, rtol=1e-6)


class TestLinearity:
    @given(dims, dims, dims, st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_matmul_linear_in_first_argument(self, m, k, n, alpha, beta):
        rng = np.random.default_rng(m * 100 + k * 10 + n)
        a1 = rng.standard_normal((m, k)).astype(np.float32)
        a2 = rng.standard_normal((m, k)).astype(np.float32)
        b = Tensor(rng.standard_normal((k, n)).astype(np.float32))
        lhs = (Tensor(alpha * a1 + beta * a2) @ b).data
        rhs = alpha * (Tensor(a1) @ b).data + beta * (Tensor(a2) @ b).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-3, atol=1e-4)

    @given(st.integers(3, 10), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_conv_adjoint_identity(self, size, cin, cout):
        """<conv(u), v> == <u, conv^T(v)> for random shapes."""
        rng = np.random.default_rng(size * 100 + cin * 10 + cout)
        u = Tensor(rng.standard_normal((1, cin, size, size)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((cout, cin, 3, 3)).astype(np.float32))
        v = rng.standard_normal((1, cout, size, size)).astype(np.float32)
        out = conv2d(u, w, None, pad=1)
        lhs = float((out.data * v).sum())
        (out * Tensor(v)).sum().backward()
        rhs = float((u.data * u.grad).sum())
        assert lhs == pytest.approx(rhs, rel=1e-3, abs=1e-3)


class TestSoftmaxInvariants:
    @given(st.integers(2, 12), st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, n, shift):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n)).astype(np.float32)
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + np.float32(shift))).data
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)

    @given(st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_gradient_rows_sum_to_zero(self, n):
        """Softmax outputs sum to 1, so any upstream gradient's projection
        onto the constant direction vanishes."""
        rng = np.random.default_rng(n + 50)
        x = Tensor(rng.standard_normal((2, n)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((2, n)).astype(np.float32))
        (softmax(x) * w).sum().backward()
        np.testing.assert_allclose(x.grad.sum(axis=-1), 0.0, atol=1e-5)


class TestShapeRoundtrips:
    @given(st.permutations([0, 1, 2, 3]))
    @settings(max_examples=24, deadline=None)
    def test_permute_inverse(self, perm):
        rng = np.random.default_rng(sum(p * 10**i for i, p in enumerate(perm)))
        x = Tensor(rng.standard_normal((2, 3, 4, 5)).astype(np.float32),
                   requires_grad=True)
        inverse = list(np.argsort(perm))
        y = x.permute(*perm).permute(*inverse)
        np.testing.assert_array_equal(y.data, x.data)
        (y * y).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-5)


class TestBilinearInvariants:
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_partition_of_unity(self, h, w, factor):
        """Upsampling a constant field yields exactly that constant: the
        interpolation weights sum to one everywhere."""
        x = Tensor(np.full((1, 1, h, w), 2.5, dtype=np.float32))
        out = bilinear_upsample(x, h * factor, w * factor)
        np.testing.assert_allclose(out.data, 2.5, rtol=1e-6)

    @given(st.integers(2, 8), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_range_preservation(self, size, factor):
        """Bilinear interpolation never over/undershoots the input range."""
        rng = np.random.default_rng(size * 10 + factor)
        x = rng.standard_normal((1, 1, size, size)).astype(np.float32)
        out = bilinear_upsample(Tensor(x), size * factor, size * factor).data
        assert out.max() <= x.max() + 1e-5
        assert out.min() >= x.min() - 1e-5


def _assert_alone_equals_batched(apply, x, g, i):
    """Output and input-gradient of sample ``i`` are bitwise the same
    computed alone and inside the batch ``x``."""
    def run(xs, gs):
        t = Tensor(xs, requires_grad=True)
        out = apply(t)
        out.backward(gs)
        return out.data, t.grad

    for full, one in zip(run(x, g), run(x[i:i + 1], g[i:i + 1])):
        assert np.array_equal(full[i], one[0])


class TestBatchInvariance:
    """A sample's output and input-gradient bits must not depend on who
    else is in the batch: served-vs-reference and DDP-vs-single-rank are
    bitwise claims across *different* batch sizes.  (``flash_attention``
    has the same property in ``tests/nn/test_attention.py``.)"""

    @given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 6),
           st.integers(3, 12), st.integers(3, 12), st.sampled_from([1, 3]),
           st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_conv2d(self, n, cin, cout, h, w, k, with_bias, data):
        """One GEMM per sample.  A contraction over the flattened
        ``(n * l)`` axis (``einsum(optimize=True)`` before kernel epoch
        1) has a batch-dependent GEMM shape and fails this."""
        rng = np.random.default_rng([n, cin, cout, h, w, k])
        x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
        wgt = Tensor(rng.standard_normal((cout, cin, k, k)).astype(np.float32))
        bias = Tensor(rng.standard_normal(cout).astype(np.float32)) if with_bias else None
        g = rng.standard_normal((n, cout, h, w)).astype(np.float32)
        _assert_alone_equals_batched(
            lambda t: conv2d(t, wgt, bias, pad=k // 2), x, g,
            data.draw(st.integers(0, n - 1)))

    @given(st.integers(2, 4), st.integers(1, 40), st.integers(1, 48),
           st.integers(1, 48), st.data())
    @settings(max_examples=40, deadline=None)
    def test_linear(self, b, length, in_f, out_f, data):
        """One GEMM per leading item.  Flattening the leading dims into
        a single 2-D GEMM is 2.5x faster on the aggregator's K/V
        projections and is *not* batch-invariant on OpenBLAS (sized and
        rejected in ISSUE 17) — this is the test it has to pass."""
        rng = np.random.default_rng([b, length, in_f, out_f])
        x = rng.standard_normal((b, length, in_f)).astype(np.float32)
        wgt = Tensor(rng.standard_normal((out_f, in_f)).astype(np.float32))
        bias = Tensor(rng.standard_normal(out_f).astype(np.float32))
        g = rng.standard_normal((b, length, out_f)).astype(np.float32)
        _assert_alone_equals_batched(
            lambda t: linear(t, wgt, bias), x, g,
            data.draw(st.integers(0, b - 1)))

    @given(st.integers(2, 4), st.sampled_from([(), (1,), (3,)]), st.integers(1, 40),
           st.integers(1, 67), st.data())
    @settings(max_examples=40, deadline=None)
    def test_layernorm(self, b, heads, length, d, data):
        """Row means are one GEMV per leading ``(L, d)`` item, forward and
        backward.  Odd ``L·d`` starts items at unaligned offsets; a GEMV
        over the flattened ``(B·L, d)`` rows would be the batch-dependent
        shape this test exists to catch."""
        rng = np.random.default_rng([b, len(heads), length, d])
        shape = (b, *heads, length, d)
        x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(np.float32)
        w = Tensor(rng.standard_normal(d).astype(np.float32))
        bias = Tensor(rng.standard_normal(d).astype(np.float32))
        g = rng.standard_normal(shape).astype(np.float32)
        _assert_alone_equals_batched(
            lambda t: layernorm(t, w, bias), x, g,
            data.draw(st.integers(0, b - 1)))

    @given(st.sampled_from([2, 3, 8]), st.integers(1, 30), st.integers(1, 5),
           st.integers(1, 8), st.sampled_from([1, 2, 3]),
           st.sampled_from([(1, 1), (4, 1), (4, 4), (16, 2), (32, 4), (64, 8)]),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_pooled_attention(self, b, v, gh, gw, patch, dim_heads, data):
        """``aggregate_variables``, from the raw field: one GEMM per ``b``,
        ``(b, h)`` or ``(b, l)`` item; none flattens ``B`` into an ``M``
        (only the parameter gradients contract over it, as ``linear``'s
        do).  A sample alone equals itself in a batch of 2, 3 or 8."""
        d, h = dim_heads
        rng = np.random.default_rng([b, v, gh, gw, patch, d, h])
        x = rng.standard_normal((b, v, gh * patch, gw * patch)).astype(np.float32)
        params = [Tensor(rng.standard_normal(shape).astype(np.float32))
                  for shape in [(d, patch * patch), (d,), (v, 1, d)] + [(d, d), (d,)] * 3]
        g = rng.standard_normal((b, gh * gw, h, d // h)).astype(np.float32)
        _assert_alone_equals_batched(
            lambda t: aggregate_variables(t, *params, num_heads=h), x, g,
            data.draw(st.integers(0, b - 1)))

    @pytest.mark.parametrize("shape,d,h", [((8, 23, 18, 34), 32, 4),
                                            ((8, 23, 32, 64), 64, 8)])
    def test_pooled_attention_at_e2e_shapes(self, shape, d, h):
        """The served tile and the ``train_single`` sample: alone, in a
        pair (how tile serving executes) and in a batch of 8."""
        rng = np.random.default_rng(shape)
        x = rng.standard_normal(shape).astype(np.float32)
        params = [Tensor(rng.standard_normal(s).astype(np.float32) * 0.2)
                  for s in [(d, 4), (d,), (shape[1], 1, d)] + [(d, d), (d,)] * 3]
        g = rng.standard_normal((shape[0], shape[2] * shape[3] // 4, h, d // h)
                                ).astype(np.float32)
        for width in (2, 8):
            _assert_alone_equals_batched(
                lambda t: aggregate_variables(t, *params, num_heads=h),
                x[:width], g[:width], width - 1)

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 12),
           st.integers(1, 12), st.integers(1, 24), st.integers(1, 24), st.data())
    @settings(max_examples=40, deadline=None)
    def test_bilinear_upsample(self, n, c, h, w, out_h, out_w, data):
        """One GEMM pair per ``(n, c)`` item, forward (``My @ x @ Mxᵀ``)
        and adjoint (``Myᵀ @ g @ Mx``); never a GEMM over a flattened
        batch."""
        rng = np.random.default_rng([n, c, h, w, out_h, out_w])
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        g = rng.standard_normal((n, c, out_h, out_w)).astype(np.float32)
        _assert_alone_equals_batched(
            lambda t: bilinear_upsample(t, out_h, out_w), x, g,
            data.draw(st.integers(0, n - 1)))

    @given(st.integers(2, 4), st.integers(1, 40), st.integers(1, 67),
           st.sampled_from([0.3, 1.5, 4.0]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gelu(self, b, length, width, sigma, data):
        """Elementwise passes; the one transcendental (``np.exp``) runs on
        the kernel's own dense scratch, so where a sample sits in the
        array (SIMD body or tail) does not reach its bits."""
        rng = np.random.default_rng([b, length, width])
        x = (sigma * rng.standard_normal((b, length, width))).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        _assert_alone_equals_batched(gelu, x, g, data.draw(st.integers(0, b - 1)))
