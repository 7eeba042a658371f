"""Hot-path engine semantics: item(), graph release, accumulation.

Covers the zero-copy backward's observable contract — eager graph
release with a clear double-backward error, retain_graph opt-out,
ownership-safe gradient accumulation on fan-out graphs — plus the
``item()`` size guard.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, graph_counters, reset_graph_counters
from tests.tape import closure_arrays


def _t(*shape, grad=True, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32),
                  requires_grad=grad)


class TestItem:
    def test_scalar_ok(self):
        assert Tensor(np.float32(3.5)).item() == pytest.approx(3.5)

    def test_one_element_array_ok(self):
        assert Tensor(np.ones((1, 1), np.float32)).item() == 1.0

    def test_multi_element_raises_with_shape(self):
        with pytest.raises(ValueError, match=r"exactly one element.*\(2, 3\)"):
            Tensor(np.zeros((2, 3), np.float32)).item()


class TestGraphRelease:
    def test_second_backward_raises(self):
        x = _t(4)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="released graph"):
            y.backward()

    def test_retain_graph_allows_second_backward(self):
        x = _t(4)
        y = (x * x).sum()
        y.backward(retain_graph=True)
        first = x.grad.copy()
        y.backward(retain_graph=True)
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_release_then_fresh_graph_works(self):
        x = _t(4)
        (x * x).sum().backward()
        g1 = x.grad.copy()
        x.zero_grad()
        (x * x).sum().backward()  # new graph over the same leaf
        np.testing.assert_array_equal(x.grad, g1)


class TestGetitemAdjoint:
    @pytest.mark.parametrize("view", [
        lambda t: t * 1.0, lambda t: t.permute(2, 1, 0), lambda t: t.transpose(0, 1),
        lambda t: t[:, ::-2], lambda t: t.permute(2, 0, 1)[1:, :, ::2],
    ])
    def test_gradient_buffer_has_zeros_likes_layout_without_the_input(self, view):
        """The scatter buffer is laid out as ``np.zeros_like(input)``,
        while the closure holds only the input's shape and strides."""
        x = Tensor(np.arange(60, dtype=np.float32).reshape(3, 4, 5), requires_grad=True)
        held = view(x)
        y = held[1:, [0, 1]]
        gx, = y._node.backward(np.ones(y.shape, np.float32))
        assert gx.strides == np.zeros_like(held.data).strides
        assert closure_arrays(y._node.backward) == {}


class TestAccumulation:
    def test_diamond_fanout(self):
        # x feeds two branches that rejoin: grads must sum, not overwrite
        x = _t(5, seed=3)
        y = (x * 2.0 + x * 3.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, np.full(5, 5.0), rtol=1e-6)

    def test_identity_handoff_fanout_is_safe(self):
        # both parents of `add` receive the upstream gradient by reference
        # (zero-copy handoff); accumulating into one must not corrupt the
        # other's value
        a = _t(6, seed=4)
        b = _t(6, seed=5)
        s = a + b
        y = (s * 1.0).sum() + a.sum()
        y.backward()
        np.testing.assert_allclose(a.grad, np.full(6, 2.0), rtol=1e-6)
        np.testing.assert_allclose(b.grad, np.full(6, 1.0), rtol=1e-6)

    def test_repeated_backward_accumulates_into_leaf_inplace(self):
        x = _t(8, seed=6)
        (x * x).sum().backward(retain_graph=True)
        buf = x.grad
        (x * x).sum().backward(retain_graph=True)
        assert x.grad is buf  # second pass added in place, no realloc

    def test_counters_observe_inplace_adds(self):
        x = _t(8, seed=7)
        reset_graph_counters()
        (x * 2.0 + x * 3.0).sum().backward()
        counts = graph_counters()
        assert counts["nodes"] >= 4
        assert counts["bwd_inplace_adds"] + counts["bwd_new_buffers"] >= 1

    def test_basic_index_backward_matches_scatter(self):
        # basic slicing takes the fast `full[index] += g` path; advanced
        # indexing (duplicate indices) must still scatter-add via add.at
        x = _t(4, 6, seed=8)
        x[:, 1:4].sum().backward()
        expect = np.zeros((4, 6), np.float32)
        expect[:, 1:4] = 1.0
        np.testing.assert_array_equal(x.grad, expect)

        y = _t(5, seed=9)
        y[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(y.grad,
                                      np.array([2, 0, 1, 0, 0], np.float32))
