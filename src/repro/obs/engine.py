"""Autograd instrumentation: per-tape-node op names, FLOPs, and bytes.

The tensor engine exposes a single module-level hook
(:func:`repro.tensor.tensor.set_op_hook`) invoked once per recorded tape
node with ``(op, data, parents)``.  This module supplies the hook body:
a registry of FLOP rules keyed on the tape op names the fused kernels
emit ("linear", "matmul", "conv2d", "flash_attention", ...), so a traced
step accumulates `engine/<op>/flops` and `engine/<op>/bytes` metrics
that can be checked against ``perf_model.transformer_flops``.

Rules count **forward** FLOPs of the op that produced the node; ops with
no rule (reshapes, slices, elementwise glue) count 0 FLOPs but still
contribute their output bytes to the activation high-water mark.
"""

from __future__ import annotations

__all__ = ["FLOP_RULES", "node_flops", "install_op_hook", "uninstall_op_hook"]


def _linear_flops(data, parents) -> float:
    # parents = (x, w[, bias]); w is (out_features, in_features)
    return 2.0 * data.size * parents[1].shape[1]


def _matmul_flops(data, parents) -> float:
    # (..., m, k) @ (..., k, n) -> (..., m, n): 2*m*n*k per batch
    return 2.0 * data.size * parents[0].shape[-1]


def _conv2d_flops(data, parents) -> float:
    # parents = (x, w[, bias]); w is (out_c, in_c, kh, kw)
    w = parents[1].shape
    return 2.0 * data.size * w[1] * w[2] * w[3]


def _flash_attention_flops(data, parents) -> float:
    # parents = (q, k, v) as (batch, heads, len, head_dim); two GEMMs
    # (QK^T and PV) of 2*lq*lk*head_dim each => 4*nb*lq*lk*head_dim,
    # which for self-attention equals perf_model's 4*L^2*d_model term.
    lk = parents[1].shape[-2]
    return 4.0 * data.size * lk


def _aggregate_variables_flops(data, parents) -> float:
    # out (B, L, H, D/H), parents = (field (B, V, h, w), wt (D, p*p), ...):
    # the kernel's own price, from the helper it bills itself by
    from ..nn.attention import aggregate_variables_flops

    b, l, h, _ = data.shape
    d, k = parents[1].shape
    return aggregate_variables_flops(b * l, parents[0].shape[1], d, h, k)


def _elementwise_flops(data, parents) -> float:
    return float(data.size)


#: forward-FLOP rule per tape op name: ``rule(out_data, parent_datas)``
FLOP_RULES = {
    "linear": _linear_flops,
    "matmul": _matmul_flops,
    "conv2d": _conv2d_flops,
    "flash_attention": _flash_attention_flops,
    "aggregate_variables": _aggregate_variables_flops,
    "add": _elementwise_flops,
    "mul": _elementwise_flops,
    "add_bias": _elementwise_flops,
}


def node_flops(op: str, data, parents) -> float:
    """Forward FLOPs for one tape node; 0.0 when no rule applies."""
    rule = FLOP_RULES.get(op)
    if rule is None:
        return 0.0
    try:
        return rule(data, parents)
    except (IndexError, AttributeError):  # exotic parent shapes: don't trace
        return 0.0


def install_op_hook(tracer) -> None:
    """Point the engine's op hook at ``tracer.record_op``."""
    from ..tensor import tensor as _tensor

    def hook(op, data, parents):
        tracer.record_op(op, node_flops(op, data, parents), data.nbytes)

    _tensor.set_op_hook(hook)


def uninstall_op_hook() -> None:
    from ..tensor import tensor as _tensor
    _tensor.set_op_hook(None)
