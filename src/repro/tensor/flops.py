"""Measured FLOP counting (the DeepSpeed-profiler substitute).

:data:`FLOPS` is the one FLOP price of every op, keyed by tape op name:
a forward and a backward rule, each ``rule(out, parents) -> float`` on the
node's output array and its parents.  Ops without an entry cost nothing.
Multiply-add counts as 2 FLOPs, matching the convention the paper's
throughput numbers use.

The engine charges the table and no kernel does.  ``Tensor._from_op``
charges the forward rule to the active :class:`FlopCounter`, with or
without grad.  The one backward walk (``tensor._walk_backward``, run by
``Tensor.backward`` and by a ``CompiledStep`` capture) sums the backward
rule of every closure it invokes and charges the sum when it ends.  A
``CompiledStep`` prices its plan once at capture and charges the forward
and backward totals once per replay.  The obs op hook bills the forward
rule per traced tape node, so the trace and the counter agree.
"""

from __future__ import annotations

import threading
from typing import Callable, NamedTuple

__all__ = ["FlopCounter", "FLOPS", "OpFlops", "price", "active_counter",
           "aggregate_variables_flops"]

_state = threading.local()


class OpFlops(NamedTuple):
    """One op's price; forward rules read only shapes, so they also price
    the ``(out, parent_datas)`` arrays the op hook sees."""

    forward: Callable[..., float]
    backward: Callable[..., float]


def aggregate_variables_flops(n: int, v: int, d: int, h: int, k: int) -> float:
    """Forward FLOPs of ``repro.nn.aggregate_variables`` over ``n = B·L``
    tokens: ``x̄`` from the mean patch, three ``D × D`` projections (``q``,
    ``q̃``, out), the score and pooling GEMMs over the ``V + k`` basis rows,
    and their two rank-``k`` per-token terms."""
    return 2.0 * n * (k * d + 3 * d * d + 2 * h * (v + k) * d + 2 * v * k * h)


def _linear(out, parents) -> float:   # parents (x, w[, bias]), w (out_f, in_f)
    return 2.0 * out.size * parents[1].shape[1]


def _matmul(out, parents) -> float:   # (..., m, k) @ (..., k, n)
    return 2.0 * out.size * parents[0].shape[-1]


def _conv2d(out, parents) -> float:   # parents (x, w[, bias]), w (out_c, in_c, kh, kw)
    _, in_c, kh, kw = parents[1].shape
    return 2.0 * out.size * in_c * kh * kw


def _flash(out, parents) -> float:
    # QK^T and PV over (batch, heads, lq, head_dim) x lk keys: 2 GEMMs of
    # 2*lq*lk*head_dim each; the kernel's padding column is not billed
    return 4.0 * out.size * parents[1].shape[-2]


def _aggregate_dims(out, parents) -> tuple[int, ...]:
    # out (B, L, H, D/H); parents (field (B, V, h, w), wt (D, p*p), ...)
    b, l, h, _ = out.shape
    d, k = parents[1].shape
    return b * l, parents[0].shape[1], d, h, k


def _aggregate(out, parents) -> float:
    return aggregate_variables_flops(*_aggregate_dims(out, parents))


def _aggregate_backward(out, parents) -> float:
    # twice the forward, plus the input gradient when the field asks for one
    n, v, d, h, k = _aggregate_dims(out, parents)
    grad_x = 2.0 * n * k * (d + 2 * v * h) if parents[0].requires_grad else 0.0
    return 2.0 * aggregate_variables_flops(n, v, d, h, k) + grad_x


def _twice(rule):
    return lambda out, parents: 2.0 * rule(out, parents)


#: tape op name -> its price; the only place an op's FLOPs are stated
FLOPS: dict[str, OpFlops] = {
    "linear": OpFlops(_linear, _twice(_linear)),
    "matmul": OpFlops(_matmul, _twice(_matmul)),
    "conv2d": OpFlops(_conv2d, _twice(_conv2d)),
    # backward: the recomputed QK^T plus four gradient GEMMs
    "flash_attention": OpFlops(_flash, lambda out, parents: 2.5 * _flash(out, parents)),
    "aggregate_variables": OpFlops(_aggregate, _aggregate_backward),
}


_FREE = OpFlops(lambda out, parents: 0.0, lambda out, parents: 0.0)


def price(op: str) -> OpFlops:
    """``op``'s price; an op without a table entry costs 0 both ways."""
    return FLOPS.get(op, _FREE)


def active_counter() -> "FlopCounter | None":
    """The innermost active :class:`FlopCounter` on this thread, if any."""
    return getattr(_state, "counter", None)


class FlopCounter:
    """Context manager accumulating FLOPs of all engine ops inside it.

    >>> with FlopCounter() as fc:
    ...     _ = model(x)
    >>> fc.total
    """

    def __init__(self):
        self.total = 0.0

    def __enter__(self) -> "FlopCounter":
        self._prev = getattr(_state, "counter", None)
        _state.counter = self
        return self

    def __exit__(self, *exc):
        _state.counter = self._prev
        return False
