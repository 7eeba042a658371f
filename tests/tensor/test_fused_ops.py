"""Fused kernels vs. their multi-node compositions + gradient oracles.

Each fused op (single tape node, hand-written backward) must match its
composed form in the forward and pass the finite-difference gradient
oracle at the standard float32 tolerances.  A small seeded fuzz sweep
over the newly registered op specs rides along so the specs themselves
stay exercised in tier-1 (the full sweep is the @slow fuzz test).
"""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.testing.fuzz import fuzz_ops
from repro.testing.gradcheck import check_gradients

RNG = np.random.default_rng(42)


def _arr(*shape, scale=1.0):
    return (RNG.standard_normal(shape) * scale).astype(np.float32)


class TestFusedMatchesComposed:
    def test_gelu(self):
        x = _arr(4, 33)
        np.testing.assert_allclose(
            F.gelu(Tensor(x)).data, F.gelu_composed(Tensor(x)).data,
            rtol=1e-5, atol=1e-6)

    def test_layernorm(self):
        x, w, b = _arr(3, 7, 16), _arr(16, scale=0.5) + 1.0, _arr(16)
        np.testing.assert_allclose(
            F.layernorm(Tensor(x), Tensor(w), Tensor(b)).data,
            F.layernorm_composed(Tensor(x), Tensor(w), Tensor(b)).data,
            rtol=1e-4, atol=1e-5)

    def test_linear_matches_matmul_chain(self):
        x, w, b = _arr(2, 5, 8), _arr(6, 8), _arr(6)
        fused = F.linear(Tensor(x), Tensor(w), Tensor(b))
        chain = Tensor(x) @ Tensor(w).transpose(-1, -2) + Tensor(b)
        np.testing.assert_array_equal(fused.data, chain.data)

    def test_add_bias_matches_add(self):
        x, b = _arr(2, 4, 8), _arr(8)
        np.testing.assert_array_equal(
            F.add_bias(Tensor(x), Tensor(b)).data, (Tensor(x) + Tensor(b)).data)


class TestFusedGradients:
    """Finite-difference oracle at the standard float32 tolerances."""

    def test_gelu(self):
        check_gradients(lambda x: F.gelu(x).sum(), [_arr(5, 9)])

    def test_layernorm(self):
        check_gradients(
            lambda x, w, b: (F.layernorm(x, w, b) * 0.5).sum(),
            [_arr(4, 8), _arr(8, scale=0.5) + 1.0, _arr(8)])

    def test_linear(self):
        check_gradients(
            lambda x, w, b: F.linear(x, w, b).sum(),
            [_arr(3, 4, 7), _arr(5, 7, scale=0.5), _arr(5)])

    def test_add_bias(self):
        check_gradients(
            lambda x, b: (F.add_bias(x, b) * F.add_bias(x, b)).sum(),
            [_arr(3, 6), _arr(6)])


class TestFusedBackwardBits:
    def test_linear_weight_grad_matches_chain_bits(self):
        # fused linear's flattened-GEMM weight gradient is bit-identical
        # to the transpose+matmul chain it replaced
        x, w = _arr(2, 5, 8), _arr(6, 8)
        xf = Tensor(x, requires_grad=True)
        wf = Tensor(w, requires_grad=True)
        F.linear(xf, wf).sum().backward()
        xc = Tensor(x, requires_grad=True)
        wc = Tensor(w, requires_grad=True)
        (xc @ wc.transpose(-1, -2)).sum().backward()
        np.testing.assert_allclose(wf.grad, wc.grad, rtol=1e-6, atol=1e-7)
        np.testing.assert_allclose(xf.grad, xc.grad, rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("op", ["linear", "conv2d"])
    def test_input_gradient_only_when_asked(self, op):
        """A non-grad input gets ``None`` from the closure, not a GEMM the
        walk throws away; a grad-requiring one gets the bits of the
        explicit formula (``g @ W``; ``col2im(Wᵀ g)``)."""
        if op == "linear":
            x, w, g = _arr(2, 5, 8), _arr(6, 8), _arr(2, 5, 6)
            run = F.linear
            expected = g @ w
        else:
            x, w, g = _arr(2, 3, 9, 11), _arr(4, 3, 3, 3), _arr(2, 4, 9, 11)
            run = lambda t, wt: F.conv2d(t, wt, None, pad=1)  # noqa: E731
            expected = F.col2im_shape(w.reshape(4, -1).T @ g.reshape(2, 4, -1),
                                      x.shape, 3, 1, 1)
        for wants in (False, True):
            xt = Tensor(x, requires_grad=wants)
            out = run(xt, Tensor(w, requires_grad=True))
            (parent, gx), (_, gw) = out._backward(g)
            assert parent is xt and gw is not None
            if wants:
                assert np.array_equal(gx, expected)
            else:
                assert gx is None


def test_fuzz_sweep_over_fused_ops():
    fuzz_ops(n_samples=60, seed=123,
             ops=["gelu", "layernorm", "linear", "add_bias"]).raise_if_failed()
