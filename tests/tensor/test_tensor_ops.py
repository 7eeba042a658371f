"""Gradient and semantics tests for the core Tensor ops."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad

from repro.testing import check_gradient

RNG = np.random.default_rng(0)


def _x(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class TestArithmetic:
    def test_add_broadcast_grad(self):
        b = Tensor(_x(3), requires_grad=True)
        check_gradient(lambda t: (t + b).sum(), _x(2, 3))
        # broadcast partner receives summed gradient
        b.zero_grad()
        a = Tensor(_x(2, 3), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_sub_rsub(self):
        a = Tensor(_x(4), requires_grad=True)
        (2.0 - a).sum().backward()
        np.testing.assert_allclose(a.grad, -np.ones(4))

    def test_mul_grad(self):
        check_gradient(lambda t: (t * t).sum(), _x(3, 4))

    def test_div_grad(self):
        x = np.abs(_x(3, 3)) + 1.0
        check_gradient(lambda t: (1.0 / t).sum(), x)

    def test_pow_grad(self):
        x = np.abs(_x(5)) + 0.5
        check_gradient(lambda t: (t**3.0).sum(), x)

    def test_neg(self):
        a = Tensor(_x(3), requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, -np.ones(3))

    def test_matmul_grad(self):
        b = Tensor(_x(4, 2), requires_grad=True)
        check_gradient(lambda t: (t @ b).sum(), _x(3, 4))

    def test_batched_matmul_grad(self):
        b = Tensor(_x(2, 4, 3), requires_grad=True)
        check_gradient(lambda t: (t @ b).sum(), _x(2, 5, 4))

    def test_matmul_broadcast_batch(self):
        # (B, M, K) @ (K, N): weight grad must be reduced over the batch
        a = Tensor(_x(2, 3, 4), requires_grad=True)
        w = Tensor(_x(4, 5), requires_grad=True)
        (a @ w).sum().backward()
        assert w.grad.shape == (4, 5)
        assert a.grad.shape == (2, 3, 4)


class TestTranscendental:
    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), _x(3, 3) * 0.5)

    def test_log(self):
        check_gradient(lambda t: t.log().sum(), np.abs(_x(4)) + 1.0)

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt().sum(), np.abs(_x(4)) + 1.0)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), _x(3, 3))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), _x(3, 3))

    def test_erf(self):
        check_gradient(lambda t: t.erf().sum(), _x(4, 2))

    def test_abs(self):
        x = _x(10)
        x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        check_gradient(lambda t: t.abs().sum(), x)

    def test_relu_masks_negative(self):
        a = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0])

    def test_clip_grad_zero_outside(self):
        a = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_maximum(self):
        b = Tensor(np.zeros(5, dtype=np.float32))
        x = _x(5)
        x[np.abs(x) < 0.1] = 0.7
        check_gradient(lambda t: t.maximum(b).sum(), x)


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(_x(2, 3, 4), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3, 4)))

    def test_sum_tuple_axis(self):
        check_gradient(lambda t: (t.sum(axis=(0, 2)) ** 2.0).sum(), _x(2, 3, 4))

    def test_mean_scaling(self):
        a = Tensor(_x(4, 5), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((4, 5), 1 / 20))

    def test_max_grad_flows_to_argmax(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_conserve_gradient(self):
        a = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        a.max().backward()
        assert a.grad.sum() == pytest.approx(1.0)


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        check_gradient(lambda t: (t.reshape(6) ** 2.0).sum(), _x(2, 3))

    def test_transpose(self):
        const = Tensor(_x(3, 2))
        check_gradient(lambda t: (t.transpose(0, 1) * const).sum(), _x(2, 3))

    def test_permute(self):
        check_gradient(lambda t: (t.permute(2, 0, 1) ** 2.0).sum(), _x(2, 3, 4))

    def test_getitem_slice(self):
        a = Tensor(_x(4, 4), requires_grad=True)
        a[1:3, :2].sum().backward()
        expected = np.zeros((4, 4))
        expected[1:3, :2] = 1.0
        np.testing.assert_allclose(a.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.arange(5, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_pad(self):
        a = Tensor(_x(2, 2), requires_grad=True)
        out = a.pad([(1, 1), (0, 2)], value=7.0)
        assert out.shape == (4, 4)
        assert out.data[0, 0] == 7.0
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))

    def test_concatenate(self):
        a = Tensor(_x(2, 3), requires_grad=True)
        b = Tensor(_x(2, 2), requires_grad=True)
        Tensor.concatenate([a, b], axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_stack(self):
        a = Tensor(_x(3), requires_grad=True)
        b = Tensor(_x(3), requires_grad=True)
        out = Tensor.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-5)


class TestEngine:
    def test_no_grad_blocks_graph(self):
        a = Tensor(_x(3), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(_x(3), requires_grad=True)
        (a * 1.0).sum().backward()
        (a * 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 2.0))

    def test_reused_node_sums_contributions(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = a * 3.0
        (b + b).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_backward_requires_scalar_or_grad(self):
        a = Tensor(_x(2, 2), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 1.0).backward()

    def test_backward_on_constant_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(_x(2)).backward()

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.ones(1), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x * 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_diamond_graph(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = a * 2.0
        c = a * 4.0
        (b * c).sum().backward()
        # d/da (2a * 4a) = 16a = 48
        np.testing.assert_allclose(a.grad, [48.0])
