"""Autograd instrumentation: per-tape-node op names, FLOPs, and bytes.

The tensor engine exposes a single module-level hook
(:func:`repro.tensor.tensor.set_op_hook`) invoked once per recorded tape
node with ``(op, data, parents)``.  This module supplies the hook body: it
prices the node's forward FLOPs from the engine's one table,
:data:`repro.tensor.flops.FLOPS` — the price ``FlopCounter`` is charged —
so a traced step accumulates `engine/<op>/flops` and `engine/<op>/bytes`
metrics that can be checked against ``perf_model.transformer_flops``.
Ops with no price (reshapes, slices, elementwise glue) count 0 FLOPs but
still contribute their output bytes to the activation high-water mark.
"""

from __future__ import annotations

__all__ = ["install_op_hook", "uninstall_op_hook"]


def install_op_hook(tracer) -> None:
    """Point the engine's op hook at ``tracer.record_op``."""
    from ..tensor import tensor as _tensor
    from ..tensor.flops import price

    def hook(op, data, parents):
        tracer.record_op(op, price(op).forward(data, parents), data.nbytes)

    _tensor.set_op_hook(hook)


def uninstall_op_hook() -> None:
    from ..tensor import tensor as _tensor
    _tensor.set_op_hook(None)
