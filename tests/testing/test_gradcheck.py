"""The gradient oracle itself: it must pass correct gradients, fail
broken ones, and report failures element by element."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.testing import (
    GradcheckFailure,
    check_gradient,
    check_gradients,
    default_tolerances,
    numerical_grad,
    numerical_grad_multi,
)

RNG = np.random.default_rng(11)


class TestNumericalGrad:
    def test_quadratic(self):
        x = RNG.standard_normal(5)
        g = numerical_grad(lambda a: float((a**2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-6, atol=1e-6)

    def test_permuted_input_is_probed_not_a_copy_of_it(self):
        """A float32 permuted view keeps its layout through the float64
        cast, and ``reshape(-1)`` of that is a detached copy: the probes
        used to miss ``x`` entirely and every gradient read zero."""
        x = RNG.standard_normal((3, 2, 4)).astype(np.float32).transpose(1, 0, 2)
        assert not x.flags.c_contiguous
        g = numerical_grad(lambda a: float((a**2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-6, atol=1e-6)

    def test_batched_matches_loop(self):
        x = RNG.standard_normal((2, 3))
        w = RNG.standard_normal((2, 3))

        def f(a):
            return float((np.sin(a) * w).sum())

        def f_batched(stack):
            return (np.sin(stack) * w).sum(axis=(1, 2))

        loop = numerical_grad(f, x)
        batched = numerical_grad(f_batched, x, batched=True)
        np.testing.assert_allclose(batched, loop, rtol=1e-10, atol=1e-12)

    def test_multi_input_and_wrt_subset(self):
        a = RNG.standard_normal(3)
        b = RNG.standard_normal(3)
        grads = numerical_grad_multi(lambda x, y: float((x * y).sum()), [a, b],
                                     wrt=[1])
        assert grads[0] is None
        np.testing.assert_allclose(grads[1], a, rtol=1e-6, atol=1e-8)


class TestCheckGradients:
    def test_passes_correct_multi_input(self):
        a = RNG.standard_normal((3, 4)).astype(np.float32)
        b = RNG.standard_normal((4, 2)).astype(np.float32)
        check_gradients(lambda x, y: (x @ y).sum(), [a, b])

    def test_detects_broken_backward(self):
        """A Tensor op with a deliberately wrong backward must be caught,
        and the failure must carry per-element mismatch records."""

        def broken(t):
            a = t

            def backward(g):
                return (3.0 * g,)  # wrong: identity's grad is g, not 3g

            return Tensor._from_op(a.data.copy(), (a,), backward, "bad").sum()

        with pytest.raises(GradcheckFailure) as exc:
            check_gradient(broken, RNG.standard_normal(4).astype(np.float32))
        assert exc.value.mismatches, "failure should carry element reports"
        m = exc.value.mismatches[0]
        assert m.analytic == pytest.approx(3.0, rel=1e-3)
        assert m.numeric == pytest.approx(1.0, rel=1e-3)
        assert "analytic" in str(exc.value)

    def test_detects_nan_gradient(self):
        """A NaN never compares greater than a bound; it must still fail."""

        def nan_backward(t):
            a = t

            def backward(g):
                return (np.full_like(g, np.nan),)

            return Tensor._from_op(a.data.copy(), (a,), backward, "nan").sum()

        with pytest.raises(GradcheckFailure) as exc:
            check_gradient(nan_backward, RNG.standard_normal(4).astype(np.float32))
        assert len(exc.value.mismatches) == 4
        assert np.isnan(exc.value.mismatches[0].analytic)

    def test_wrt_skips_inputs(self):
        a = RNG.standard_normal(3).astype(np.float32)
        b = RNG.standard_normal(3).astype(np.float32)
        # only differentiate w.r.t. input 0
        check_gradients(lambda x, y: (x * y).sum(), [a, b], wrt=[0])

    def test_dtype_tolerances(self):
        assert default_tolerances("bfloat16")[0] > default_tolerances("float32")[0]
        assert default_tolerances("float64")[0] < default_tolerances("float32")[0]
        with pytest.raises(ValueError):
            default_tolerances("int8")

    def test_legacy_single_input_api(self):
        check_gradient(lambda t: (t * t).sum(), RNG.standard_normal((2, 3)))
