"""Tests for functional ops: softmax, gelu, interpolation, conv."""

import warnings

import numpy as np
import pytest
from scipy import signal, special

from repro.tensor import (
    Tensor,
    bilinear_upsample,
    conv2d,
    gelu,
    softmax,
)

from repro.testing import check_gradient

RNG = np.random.default_rng(1)


def _x(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        s = softmax(Tensor(_x(4, 7)), axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_stable_for_large_logits(self):
        s = softmax(Tensor(np.array([[1000.0, 1000.0, -1000.0]])), axis=-1)
        assert np.all(np.isfinite(s.data))
        np.testing.assert_allclose(s.data[0, :2], [0.5, 0.5], rtol=1e-6)

    def test_gradient(self):
        w = Tensor(_x(3, 5))
        check_gradient(lambda t: (softmax(t, axis=-1) * w).sum(), _x(3, 5))


class TestActivations:
    def test_gelu_known_values(self):
        x = Tensor(np.array([0.0, 1.0, -1.0]))
        out = gelu(x)
        np.testing.assert_allclose(out.data, [0.0, 0.8413447, -0.15865526], rtol=1e-5)

    def test_gelu_gradient(self):
        check_gradient(lambda t: gelu(t).sum(), _x(3, 3))


def _gelu64(x):
    x = np.asarray(x, dtype=np.float64)
    return x * 0.5 * special.erfc(-x / np.sqrt(2.0))


def _gelu_and_grad(x):
    t = Tensor(x, requires_grad=True)
    out = gelu(t)
    out.sum().backward()
    return out.data, t.grad


class TestGeluKernel:
    """Kernel epoch 3: ``Phi`` through a branch-free NumPy ``erfc`` of
    ``|x|/sqrt(2)``, the sign selected arithmetically (DESIGN.md §12)."""

    @pytest.mark.parametrize("sigma", [None, 0.3, 1.5, 4.0])
    def test_accuracy_against_float64_erfc(self, sigma):
        """Bounds tighter than ``(1 + erf)/2`` meets: that form cancels in
        the negative tail and reads 5e-5 relative where |gelu| > 1e-3."""
        x = (np.linspace(-12.0, 12.0, 480_001) if sigma is None
             else sigma * np.random.default_rng(7).standard_normal(200_000))
        x = x.astype(np.float32)
        out, ref = gelu(Tensor(x)).data, _gelu64(x)
        err = np.abs(out - ref)
        assert err.max() <= 5e-7
        big = np.abs(ref) > 1e-3
        assert (err[big] / np.abs(ref[big])).max() <= 5e-6
        assert (out[x < 0] <= 0).all()

    def test_negative_tail_keeps_relative_accuracy(self):
        out = gelu(Tensor(np.array([-5.0, -15.0, -1e4]))).data
        assert out[0] == pytest.approx(-1.433e-6, rel=0.01)  # (1 + erf)/2: -1.490e-6
        assert not out[1:].any() and np.signbit(out[1:]).all()  # -0.0

    def test_every_finite_float32_is_silent(self):
        """``z * z`` overflows from |x| ~ 1.8e19 unless ``z`` is clamped,
        and tier-1 turns the warning into an error."""
        x = np.array([1e30, -1e30, 3e38, -3e38, 1e-45, -1e-45, 1e-40, -1e-40,
                      0.0, -0.0], dtype=np.float32)
        expected = np.array([1e30, -0.0, 3e38, -0.0], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gelu(Tensor(x)).data
            edge = gelu(Tensor(np.array([np.nan, np.inf]))).data
        assert np.array_equal(out[:4], expected)
        assert np.array_equal(out[4:], x[4:] * np.float32(0.5))  # Phi(~0) == 0.5
        assert np.array_equal(np.signbit(out), np.signbit(x))
        assert np.isnan(edge[0]) and edge[1] == np.inf
        with np.errstate(invalid="ignore"):  # -inf * Phi(-inf) = -inf * 0
            assert np.isnan(gelu(Tensor(np.array([-np.inf]))).data[0])

    @pytest.mark.parametrize("n", [1, 3, 7, 17, 33, 67, 129])
    def test_bits_do_not_depend_on_position(self, n):
        """Every split of an odd-length array: an element in a SIMD body,
        in a tail, or alone gets the same bits."""
        x = (2.0 * np.random.default_rng(n).standard_normal(n)).astype(np.float32)
        full = _gelu_and_grad(x)
        for i in range(n + 1):
            for piece, sl in ((x[:i], slice(None, i)), (x[i:], slice(i, None))):
                for got, want in zip(_gelu_and_grad(piece), full):
                    assert np.array_equal(got, want[sl])

    @pytest.mark.parametrize("view", [
        lambda x: x.T, lambda x: x[::2, 1::3], lambda x: x[3:30, 5:44],
        lambda x: np.broadcast_to(x[:, :1], x.shape)])
    def test_bits_do_not_depend_on_strides(self, view):
        x = view((2.0 * np.random.default_rng(3).standard_normal((37, 53)))
                 .astype(np.float32))
        assert not x.flags.c_contiguous
        for got, want in zip(_gelu_and_grad(x),
                             _gelu_and_grad(np.ascontiguousarray(x))):
            assert np.array_equal(got, want)

    def test_kernel_computes_in_the_input_dtype(self):
        """One set of passes, no dtype switch: in float64 what is left is
        the coefficients' own error (NR: < 1.2e-7 of ``erfc``), and the
        clamp sits past where float64 ``erfc`` is 0 (``Tensor`` itself
        holds float32 only)."""
        from repro.tensor.functional import _normal_cdf

        x = np.linspace(-40.0, 40.0, 8001)
        phi, acc, tmp = (np.empty_like(x) for _ in range(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _normal_cdf(x, phi, acc, tmp)
        assert phi.dtype == np.float64
        ref = 0.5 * special.erfc(-x / np.sqrt(2.0))
        np.testing.assert_allclose(phi, ref, rtol=2e-7, atol=1e-300)
        assert phi[0] == 0.0 and phi[-1] == 1.0


class TestBilinear:
    def test_identity_when_same_size(self):
        x = _x(1, 2, 5, 6)
        out = bilinear_upsample(Tensor(x), 5, 6)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_constant_preserved(self):
        x = np.full((1, 1, 4, 4), 3.0, dtype=np.float32)
        out = bilinear_upsample(Tensor(x), 8, 8)
        np.testing.assert_allclose(out.data, 3.0, rtol=1e-6)

    def test_upsample_shape(self):
        out = bilinear_upsample(Tensor(_x(2, 3, 4, 8)), 16, 32)
        assert out.shape == (2, 3, 16, 32)

    def test_downsample_shape(self):
        out = bilinear_upsample(Tensor(_x(1, 1, 8, 8)), 4, 4)
        assert out.shape == (1, 1, 4, 4)

    def test_gradient(self):
        check_gradient(lambda t: (bilinear_upsample(t, 6, 6) ** 2.0).sum(), _x(1, 1, 3, 3))

    def test_linear_ramp_interpolated_linearly(self):
        x = np.arange(4, dtype=np.float32).reshape(1, 1, 1, 4)
        x = np.repeat(x, 4, axis=2)
        out = bilinear_upsample(Tensor(x), 4, 8).data[0, 0, 0]
        assert np.all(np.diff(out) >= 0)  # monotone along ramp


class TestConv2d:
    def test_matches_scipy_correlate(self):
        x = _x(1, 1, 8, 8)
        w = _x(1, 1, 3, 3)
        out = conv2d(Tensor(x), Tensor(w), None, stride=1, pad=1)
        ref = signal.correlate2d(x[0, 0], w[0, 0], mode="same")
        np.testing.assert_allclose(out.data[0, 0], ref, rtol=1e-4, atol=1e-5)

    def test_stride_and_pad_shapes(self):
        out = conv2d(Tensor(_x(2, 3, 9, 9)), Tensor(_x(5, 3, 3, 3)), None, stride=2, pad=1)
        assert out.shape == (2, 5, 5, 5)

    def test_bias_added(self):
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
        w = Tensor(np.zeros((2, 1, 1, 1), dtype=np.float32))
        b = Tensor(np.array([1.5, -2.0], dtype=np.float32))
        out = conv2d(x, w, b)
        np.testing.assert_allclose(out.data[0, 0], 1.5)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    # The scalar is the *mean* of squares: check_gradient differences a
    # float32 forward with eps = 1e-3, so its noise floor is
    # ulp(f) / (2 * eps).  As a sum f reached ~1.3e3 (floor ~0.06 against
    # atol = 2e-3) and the checks passed or failed on the rounding of the
    # forward GEMM; as a mean f is O(10) and the floor is < 1e-3.
    def test_input_gradient(self):
        w = Tensor(_x(2, 1, 3, 3))
        check_gradient(lambda t: (conv2d(t, w, None, pad=1) ** 2.0).mean(), _x(1, 1, 5, 5))

    def test_weight_gradient(self):
        x = Tensor(_x(1, 2, 5, 5))
        check_gradient(lambda t: (conv2d(x, t, None, pad=1) ** 2.0).mean(), _x(3, 2, 3, 3))

    def test_bias_gradient(self):
        x = Tensor(_x(1, 1, 4, 4))
        w = Tensor(_x(2, 1, 3, 3))
        check_gradient(lambda t: (conv2d(x, w, t, pad=1) ** 2.0).mean(), _x(2))

    def test_rejects_mismatched_channels(self):
        with pytest.raises(ValueError):
            conv2d(Tensor(_x(1, 3, 4, 4)), Tensor(_x(2, 4, 3, 3)), None)
