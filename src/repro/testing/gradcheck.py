"""Finite-difference gradient oracle.

A library-grade checker any PR can call to prove a new op's backward
pass:

* central differences probed in float64 so truncation error stays far
  below the comparison tolerance even though the engine runs float32;
* multi-input functions (``check_gradients`` differentiates with respect
  to every input, or a chosen subset);
* dtype-aware default tolerances (bfloat16's 8-bit mantissa needs much
  looser bounds than float32);
* per-element failure reports: a mismatch raises :class:`GradcheckFailure`
  listing the worst offending elements with their indices, analytic and
  numeric values, and errors — not just ``assert_allclose``'s summary;
* an optional vectorised probe mode for functions that map a stacked
  leading axis independently (one call evaluates all 2·n probes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..tensor import Tensor

__all__ = [
    "GradcheckFailure",
    "ElementMismatch",
    "default_tolerances",
    "numerical_grad",
    "numerical_grad_multi",
    "check_gradient",
    "check_gradients",
]

#: (rtol, atol) pairs keyed by the logical dtype of the computation under
#: test.  float32 matches the legacy checker; bfloat16 reflects its 2^-8
#: unit roundoff.
_DTYPE_TOLS: dict[str, tuple[float, float]] = {
    "float32": (2e-2, 2e-3),
    "bfloat16": (8e-2, 2e-2),
    "float64": (1e-5, 1e-7),
}


def default_tolerances(dtype: str = "float32") -> tuple[float, float]:
    """(rtol, atol) appropriate for gradients computed in ``dtype``."""
    try:
        return _DTYPE_TOLS[dtype]
    except KeyError:
        raise ValueError(
            f"no default tolerances for dtype {dtype!r}; "
            f"known: {sorted(_DTYPE_TOLS)}"
        ) from None


@dataclass(frozen=True)
class ElementMismatch:
    """One failing element of a gradient comparison."""

    input_index: int
    index: tuple[int, ...]
    analytic: float
    numeric: float

    @property
    def abs_err(self) -> float:
        return abs(self.analytic - self.numeric)

    @property
    def rel_err(self) -> float:
        return self.abs_err / max(abs(self.numeric), 1e-30)

    def __str__(self) -> str:
        return (
            f"input[{self.input_index}]{list(self.index)}: "
            f"analytic={self.analytic:.6g} numeric={self.numeric:.6g} "
            f"abs={self.abs_err:.3g} rel={self.rel_err:.3g}"
        )


class GradcheckFailure(AssertionError):
    """Gradient mismatch carrying a per-element report."""

    def __init__(self, message: str, mismatches: list[ElementMismatch]):
        super().__init__(message)
        self.mismatches = mismatches


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-3,
                   batched: bool = False) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``.

    ``fn`` takes a float64 array and returns a float scalar.  With
    ``batched=True``, ``fn`` must instead accept a stacked array of shape
    ``(2n, *x.shape)`` and return one scalar per leading slice (shape
    ``(2n,)``) — all probes are then evaluated in a single call.
    """
    # C-contiguous so the flat view below aliases x: a permuted input
    # would otherwise be probed through a detached copy (all-zero grads)
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if batched:
        eye = np.eye(n, dtype=np.float64).reshape((n,) + x.shape)
        probes = np.concatenate([x[None] + eps * eye, x[None] - eps * eye])
        vals = np.asarray(fn(probes), dtype=np.float64).reshape(2 * n)
        return ((vals[:n] - vals[n:]) / (2 * eps)).reshape(x.shape)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(n):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def numerical_grad_multi(fn, xs: Sequence[np.ndarray], eps: float = 1e-3,
                         wrt: Sequence[int] | None = None) -> list[np.ndarray | None]:
    """Central-difference gradients of ``fn(*xs)`` w.r.t. each input.

    ``fn`` maps float64 arrays to a float scalar.  Returns one gradient
    per input, ``None`` for inputs not in ``wrt``.
    """
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    which = set(range(len(xs))) if wrt is None else set(wrt)
    grads: list[np.ndarray | None] = []
    for i, x in enumerate(xs):
        if i not in which:
            grads.append(None)
            continue

        def fi(arr, _i=i):
            probe = list(xs)
            probe[_i] = arr
            return fn(*probe)

        grads.append(numerical_grad(fi, x, eps=eps))
    return grads


def _collect_mismatches(input_index: int, analytic: np.ndarray,
                        numeric: np.ndarray, rtol: float, atol: float,
                        max_report: int) -> list[ElementMismatch]:
    bad = ~(np.abs(analytic - numeric) <= atol + rtol * np.abs(numeric))  # NaN is beyond
    if not np.any(bad):
        return []
    err = np.abs(analytic - numeric) * bad
    order = np.argsort(err, axis=None)[::-1]
    out = []
    for flat_idx in order[:max_report]:
        if not bad.reshape(-1)[flat_idx]:
            break
        idx = np.unravel_index(flat_idx, analytic.shape)
        out.append(ElementMismatch(
            input_index=input_index,
            index=tuple(int(i) for i in idx),
            analytic=float(analytic[idx]),
            numeric=float(numeric[idx]),
        ))
    return out


def check_gradients(build_scalar: Callable[..., Tensor],
                    inputs: Sequence[np.ndarray],
                    rtol: float | None = None, atol: float | None = None,
                    dtype: str = "float32", eps: float = 1e-3,
                    wrt: Sequence[int] | None = None,
                    max_report: int = 8) -> None:
    """Assert autograd gradients of a multi-input function match finite
    differences.

    ``build_scalar`` maps one Tensor per entry of ``inputs`` to a scalar
    Tensor.  Gradients are checked for every input (or the ``wrt``
    subset).  Tolerances default to :func:`default_tolerances` for
    ``dtype``.  Raises :class:`GradcheckFailure` with the worst
    ``max_report`` offending elements on mismatch.
    """
    d_rtol, d_atol = default_tolerances(dtype)
    rtol = d_rtol if rtol is None else rtol
    atol = d_atol if atol is None else atol

    tensors = [Tensor(np.asarray(x, dtype=np.float32), requires_grad=True)
               for x in inputs]
    out = build_scalar(*tensors)
    out.backward()
    which = set(range(len(tensors))) if wrt is None else set(wrt)
    analytic = [
        (t.grad if t.grad is not None else np.zeros_like(t.data)).astype(np.float64)
        if i in which else None
        for i, t in enumerate(tensors)
    ]

    def f(*arrays):
        ts = [Tensor(a.astype(np.float32)) for a in arrays]
        return float(build_scalar(*ts).data)

    numeric = numerical_grad_multi(f, [np.asarray(x) for x in inputs],
                                   eps=eps, wrt=sorted(which))
    mismatches: list[ElementMismatch] = []
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        if a is None or n is None:
            continue
        if a.shape != n.shape:
            raise GradcheckFailure(
                f"input[{i}]: analytic gradient shape {a.shape} != input "
                f"shape {n.shape} — the backward fn mis-broadcasts", [])
        mismatches.extend(_collect_mismatches(i, a, n, rtol, atol, max_report))
    if mismatches:
        lines = [
            f"gradient mismatch ({len(mismatches)}+ elements beyond "
            f"rtol={rtol} atol={atol}, dtype={dtype}):"
        ] + [f"  {m}" for m in mismatches[:max_report]]
        raise GradcheckFailure("\n".join(lines), mismatches)


def check_gradient(build_scalar, x0: np.ndarray,
                   rtol: float = 2e-2, atol: float = 2e-3) -> None:
    """Single-input convenience wrapper (the original test-helper API).

    ``build_scalar`` maps a Tensor to a scalar Tensor.  Raises
    :class:`GradcheckFailure` with a readable per-element diff on mismatch.
    """
    check_gradients(build_scalar, [x0], rtol=rtol, atol=atol)
