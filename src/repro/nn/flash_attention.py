"""Cache-blocked exact attention ("Flash Attention" on NumPy).

The paper accelerates self-attention with Flash Attention (Sec. III-D):
a cache-blocking technique that never materializes the full L×L score
matrix, computing softmax online block by block.  On Frontier the blocks
map to streaming-multiprocessor tiles; here the same algorithm runs over
NumPy blocks.  Two things matter for the reproduction:

1. **Exactness** — blocked online softmax must produce the same output
   (and gradients) as naive attention, verified in tests.
2. **Memory** — peak temporary memory is ``O(L * block)`` instead of
   ``O(L^2)``, which is what the perf model's memory accounting uses to
   decide when a configuration fits on a 64 GB GPU (Table III).

The backward pass follows FlashAttention-2: store only the per-row
log-sum-exp from the forward, recompute block scores on the way back.

Layout (kernel epoch 1).  On NumPy the kernel is bound by its
reductions, not its GEMMs, so score tiles are *keys-major*,
``K_j (sc·Q_i)ᵀ`` of shape ``(nb, bk, bq)``: per-query statistics are
contiguous rows that broadcast along the fast axis, and reductions over
keys are SIMD row accumulations over axis −2.  The rest of the per-query
arithmetic rides inside the GEMMs through one padding column on their
``O(L·d)`` operands: ``P @ [V, 1]`` returns ``PV`` and ``rowsum(P)``,
``[K, 1] @ [sc·Q, −lse]ᵀ`` recomputes ``s − lse`` and
``[V, 1] @ [dO, −delta]ᵀ`` is ``dP − delta``.  Every flattened batch item
is its own GEMM and block edges depend on ``(lq, lk, block_size)`` only,
so a sample's or head's bits never depend on what shares its batch — the
served-vs-reference, DDP and Ulysses oracles rest on that.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor

__all__ = ["flash_attention", "naive_attention", "attention_flop_count", "attention_peak_elems"]


def naive_attention(q: Tensor, k: Tensor, v: Tensor, scale: float | None = None) -> Tensor:
    """Reference O(L^2)-memory attention used as the correctness oracle."""
    from ..tensor import softmax

    d = q.shape[-1]
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    scores = (q @ k.transpose(-1, -2)) * scale
    probs = softmax(scores, axis=-1)
    return probs @ v


def flash_attention(
    q: Tensor, k: Tensor, v: Tensor, scale: float | None = None, block_size: int = 128
) -> Tensor:
    """Blocked online-softmax attention with exact gradients.

    Inputs are ``(..., L, D)``; any leading batch/head dims are flattened
    internally.  ``block_size`` is the tile edge in tokens — the analogue
    of the SRAM tile in the GPU kernel.
    """
    d = q.shape[-1]
    lq = q.shape[-2]
    lk = k.shape[-2]
    sc = np.float32(scale if scale is not None else 1.0 / np.sqrt(d))
    bs = max(1, int(block_size))
    batch_shape = q.shape[:-2]
    nb = int(np.prod(batch_shape))

    from ..tensor.flops import add_flops

    out = np.empty((nb, lq, d), dtype=np.float32)
    # The GEMM operands, refilled from the live parents (whatever their
    # strides) by every run_blocks(), eager or replay: qT = [sc*Q, -lse]^T,
    # whose last row is written as each query block finishes and read only
    # by the backward, and kv1 = [K, 1], [V, 1].
    qT = np.empty((nb, d + 1, lq), dtype=np.float32)
    kv1 = np.ones((2, nb, lk, d + 1), dtype=np.float32)
    k1, v1 = kv1

    def run_blocks():
        # QK^T + PV GEMMs (algorithmic: the padding column is not billed)
        add_flops(4.0 * nb * lq * lk * d)
        np.multiply(np.swapaxes(q.data, -1, -2), sc,
                    out=qT.reshape(*batch_shape, d + 1, lq)[..., :d, :])
        kv = kv1.reshape(2, *batch_shape, lk, d + 1)
        kv[0, ..., :d], kv[1, ..., :d] = k.data, v.data
        for i0 in range(0, lq, bs):
            i1 = min(i0 + bs, lq)
            qTi = qT[:, :d, i0:i1]  # (nb, d, bq)
            m = np.full((nb, i1 - i0), -np.inf, dtype=np.float32)
            acc = np.zeros((nb, i1 - i0, d + 1), dtype=np.float32)  # [PV, l]
            for j0 in range(0, lk, bs):
                j1 = min(j0 + bs, lk)
                sT = k1[:, j0:j1, :d] @ qTi  # (nb, bk, bq); reused as p
                m_new = np.maximum(m, sT.max(axis=-2))
                acc *= np.exp(m - m_new)[..., None]
                m = m_new
                np.subtract(sT, m[:, None, :], out=sT)
                np.exp(sT, out=sT)
                acc += np.swapaxes(sT, -1, -2) @ v1[:, j0:j1]  # p @ [V, 1]
            np.divide(acc[..., :d], acc[..., d:], out=out[:, i0:i1])
            np.negative(m + np.log(acc[..., d]), out=qT[:, d, i0:i1])  # -lse

    run_blocks()
    out_full = out.reshape(*batch_shape, lq, d)

    def backward(g):
        add_flops(10.0 * nb * lq * lk * d)  # recompute + 4 gradient GEMMs
        # [dO, -delta]^T, delta_i = rowsum(dO * O) being the softmax-
        # jacobian diagonal correction
        goT = np.empty((nb, d + 1, lq), dtype=np.float32)
        goT.reshape(*batch_shape, d + 1, lq)[..., :d, :] = np.swapaxes(g, -1, -2)
        np.negative((g * out_full).sum(axis=-1).reshape(nb, lq), out=goT[:, d])
        dq = np.zeros((nb, lq, d), dtype=np.float32)
        dk = np.zeros((nb, lk, d), dtype=np.float32)
        dv = np.zeros((nb, lk, d), dtype=np.float32)
        for j0 in range(0, lk, bs):
            j1 = min(j0 + bs, lk)
            for i0 in range(0, lq, bs):
                i1 = min(i0 + bs, lq)
                pT = k1[:, j0:j1] @ qT[:, :, i0:i1]  # recomputed s - lse
                np.exp(pT, out=pT)
                goi = np.swapaxes(goT[:, :d, i0:i1], -1, -2)
                dv[:, j0:j1] += pT @ goi
                pT *= v1[:, j0:j1] @ goT[:, :, i0:i1]  # p * (dp - delta)
                dq[:, i0:i1] += np.swapaxes(pT, -1, -2) @ k1[:, j0:j1, :d]
                dk[:, j0:j1] += pT @ np.swapaxes(qT[:, :d, i0:i1], -1, -2)
        dq *= sc  # qT carries sc (so dk has it already); k1 does not
        return (
            (q, dq.reshape(q.shape)),
            (k, dk.reshape(k.shape)),
            (v, dv.reshape(v.shape)),
        )

    return Tensor._from_op(out_full, (q, k, v), backward, "flash_attention", replay=run_blocks)


def attention_flop_count(seq_len: int, head_dim: int, num_heads: int, batch: int = 1) -> int:
    """FLOPs of one attention forward: 2·(QK^T) + 2·(PV) matmuls.

    Counts multiply-adds as 2 FLOPs, matching the DeepSpeed profiler
    convention the paper reports throughput with.
    """
    per_head = 2 * seq_len * seq_len * head_dim * 2  # scores + weighted sum
    return batch * num_heads * per_head


def attention_peak_elems(seq_len: int, head_dim: int, block_size: int, flash: bool) -> int:
    """Peak temporary elements per (batch, head) for the memory model.

    Naive attention materializes the L×L probability matrix; flash keeps
    only a ``block × L`` working set plus accumulators, and its four
    ``(L, d + 1)`` GEMM operands (``[sc·Q, −lse]``, ``[K, 1]``,
    ``[V, 1]``, ``[dO, −delta]``) — linear in L.
    """
    if flash:
        b = min(block_size, seq_len)
        return b * seq_len + 2 * b * (head_dim + 1) + 4 * seq_len * (head_dim + 1)
    return seq_len * seq_len + seq_len * head_dim
