"""Cache-blocked exact attention ("Flash Attention" on NumPy).

The paper accelerates self-attention with Flash Attention (Sec. III-D):
a cache-blocking technique that never materializes the full L×L score
matrix, computing softmax block by block.  On Frontier the blocks
map to streaming-multiprocessor tiles; here the same algorithm runs over
NumPy blocks.  Two things matter for the reproduction:

1. **Exactness** — the blocked softmax must produce the same output
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

A shift only where the bound asks for one (kernel epoch 6).  Scores are
in log2 units (``log2 e`` rides in the ``sc`` that scales ``qT``), so
``−lse`` is stored in log2 units too, the backward recomputes ``exp2``,
and ``dK`` takes one ``ln 2`` because ``qT`` carries ``log2 e``.  By
Cauchy–Schwarz an item's scores satisfy ``|s| ≤ |q|max·|k|max``, with
``|q|`` and ``|k|`` row norms (the ``sc·log2 e`` included).  An item
whose bound ``2·|q|max·|k|max + log2 lk`` stays at or below 63 is safe:
``|s| ≤ 31.5``, so ``exp2(s)`` is normal and finite with no shift at
all.  Its padding row in ``qT`` is 0, and a tile costs one score GEMM,
one ``exp2`` and one ``pᵀ @ [V, 1]``, with no max pass and no overflow
check.  Its output stays finite unless ``|v|max · lk ≳ 2⁹⁶``, because
``l ≤ lk · 2³¹·⁵``.  In the backward its ``s − lse ≥ −63``, so ``exp2``
stays normal there too.  Any other item is *sharp*.  It is shifted by
its true max over every key block, written as ``−shift`` into ``qT``'s
padding row, so each score GEMM ``[K, 1] @ [sc·Q, −shift]ᵀ`` returns
``s − shift ≤ 0`` and ``l ≥ 1``.  A tile holding a sharp item floors
``exp2``'s argument at ``_EXP2_FLOOR``, off NumPy's subnormal slow paths.
The floor is a no-op on safe items, and the bound and the shift read
only the item's own data, so each item's bits are independent of its
batch.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.tensor import OUTPUT, PERSISTENT, SAVED, _alloc

__all__ = ["flash_attention", "naive_attention", "attention_peak_elems"]

#: Bytes of one backward score tile: the backward walks the flattened items
#: in groups whose ``(items, bk, bq)`` tile fits this, so a tile and its dP
#: partner stay in a 2 MiB L2 (eight items at the default block size; all
#: sixteen of ``(16, 512, 8)`` at once took 11.5 ms, eight at a time 8.2 on
#: a Xeon with AVX-512).  Each item's arithmetic is the same in any group.
_TILE_BYTES = 1 << 19

#: Floor on ``exp2``'s argument (log2 units) for an item whose scores can
#: spread that far.  Below about −126 NumPy's ``exp2``, and the GEMMs its
#: subnormal results feed, take slow paths: ``(16, 512, 8)`` with queries
#: ×30 took 675 ms forward + backward unfloored, 293 floored at −126 and
#: 18 at −64.  A floored entry adds at most 2⁻⁶⁴ per key to a row sum
#: ``l ≥ 1``, far below float32 rounding.
_EXP2_FLOOR = -64.0

#: NumPy reads the FPU's invalid flag after every ``matmul``, and a tiny
#: OpenBLAS GEMM can leave it set on finite operands: the score GEMM at
#: ``L = 19, block = 3`` (a ``(3, 5) @ (5, 3)`` tile) once warned
#: "invalid value encountered in matmul" on unit-normal inputs and ran
#: clean on replay.  The tile loops issue thousands of such GEMMs per
#: call, so they run with that flag ignored.  It carries nothing here:
#: on finite inputs every operand is finite by the bound in the module
#: doc, and a NaN input still reaches the output.
_TILE_ERRSTATE = {"invalid": "ignore"}


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
    """Blocked exact attention with exact gradients.

    Inputs are ``(..., L, D)``; any leading batch/head dims are flattened
    internally.  ``block_size`` is the tile edge in tokens — the analogue
    of the SRAM tile in the GPU kernel.
    """
    d = q.shape[-1]
    lq = q.shape[-2]
    lk = k.shape[-2]
    sc = float(scale if scale is not None else 1.0 / np.sqrt(d))
    bs = max(1, int(block_size))
    batch_shape = q.shape[:-2]
    nb = int(np.prod(batch_shape))

    sc2 = sc * np.log2(np.e)  # scores in log2 units
    ones = _alloc(PERSISTENT, (d,), fill=1.0)  # row sums over d as GEMVs
    out = _alloc(OUTPUT, (nb, lq, d))
    # The GEMM operands, refilled from the live parents (whatever their
    # strides) by every run_blocks(), eager or replay: qT = [sc2*Q, -shift]^T,
    # whose last row holds each query's shift while its block runs and its
    # -lse (log2 units) once it finishes, read by the backward; and
    # kv1 = [K, 1], [V, 1], whose ones column is set once, here.
    qT = _alloc(SAVED, (nb, d + 1, lq))
    kv1 = _alloc(PERSISTENT, (2, nb, lk, d + 1), fill=1.0)
    k1, v1 = kv1
    sharp = _alloc(SAVED, (nb,), dtype=bool)  # items shifted, and their tiles floored

    def run_blocks():
        np.multiply(np.swapaxes(q.data, -1, -2), np.float32(sc2),
                    out=qT.reshape(*batch_shape, d + 1, lq)[..., :d, :])
        kv = kv1.reshape(2, *batch_shape, lk, d + 1)
        kv[0, ..., :d], kv[1, ..., :d] = k.data, v.data
        # Cauchy-Schwarz, per item: |s| <= sc2 |q|max |k|max (module doc)
        qn = np.sqrt((np.square(q.data) @ ones).reshape(nb, lq).max(axis=-1, initial=0.0))
        kn = np.sqrt((np.square(k.data) @ ones).reshape(nb, lk).max(axis=-1, initial=0.0))
        np.greater(2.0 * sc2 * qn * kn + np.log2(lk), -_EXP2_FLOOR - 1.0, out=sharp)
        floor = sharp.any()
        qT[:, d] = 0.0
        if floor:
            ks = k1[sharp, :, :d]
        with np.errstate(**_TILE_ERRSTATE):
            for i0 in range(0, lq, bs):
                qTi = qT[:, :, i0:i0 + bs]  # (nb, d + 1, bq)
                if floor:  # s - shift <= 0 on sharp items, so l >= 1
                    qTi[sharp, d] = -(ks @ qTi[sharp, :d]).max(axis=-2)
                acc = np.zeros((nb, qTi.shape[-1], d + 1), dtype=np.float32)
                for j0 in range(0, lk, bs):
                    pT = k1[:, j0:j0 + bs] @ qTi  # s - shift, (nb, bk, bq)
                    if floor:
                        np.maximum(pT, _EXP2_FLOOR, out=pT)
                    np.exp2(pT, out=pT)
                    acc += np.swapaxes(pT, -1, -2) @ v1[:, j0:j0 + bs]  # p @ [V, 1]
                    # free the tile before the next is allocated, so malloc
                    # reuses its pages; held across that allocation, glibc's
                    # heap grows and trims, and at (16, 512, 8) each call
                    # took ~1 900 faults
                    del pT
                np.divide(acc[..., :d], acc[..., d:], out=out[:, i0:i0 + bs])
                np.subtract(qTi[:, d], np.log2(acc[..., d]), out=qTi[:, d])  # -lse

    run_blocks()
    out_full = out.reshape(*batch_shape, lq, d)

    def backward(g):
        # [dO, -delta]^T, delta_i = rowsum(dO * O) being the softmax-
        # jacobian diagonal correction
        goT = np.empty((nb, d + 1, lq), dtype=np.float32)
        goT.reshape(*batch_shape, d + 1, lq)[..., :d, :] = np.swapaxes(g, -1, -2)
        np.negative(((g * out_full) @ ones).reshape(nb, lq), out=goT[:, d])
        dq = np.zeros((nb, lq, d), dtype=np.float32)
        dk = np.zeros((nb, lk, d), dtype=np.float32)
        dv = np.zeros((nb, lk, d), dtype=np.float32)
        per = max(1, _TILE_BYTES // (4 * bs * bs))  # items per pass
        with np.errstate(**_TILE_ERRSTATE):
            for c in (slice(c0, c0 + per) for c0 in range(0, nb, per)):
                floor = sharp[c].any()
                for j0 in range(0, lk, bs):
                    j1 = min(j0 + bs, lk)
                    for i0 in range(0, lq, bs):
                        i1 = min(i0 + bs, lq)
                        pT = k1[c, j0:j1] @ qT[c, :, i0:i1]  # recomputed s - lse, log2
                        if floor:
                            np.maximum(pT, _EXP2_FLOOR, out=pT)
                        np.exp2(pT, out=pT)
                        goi = np.swapaxes(goT[c, :d, i0:i1], -1, -2)
                        dv[c, j0:j1] += pT @ goi
                        pT *= v1[c, j0:j1] @ goT[c, :, i0:i1]  # p * (dp - delta)
                        dq[c, i0:i1] += np.swapaxes(pT, -1, -2) @ k1[c, j0:j1, :d]
                        dk[c, j0:j1] += pT @ np.swapaxes(qT[c, :d, i0:i1], -1, -2)
        # qT carries sc * log2(e), so dk has sc and one log2(e) too many;
        # k1 carries neither
        dq *= np.float32(sc)
        dk *= np.float32(np.log(2.0))
        return (
            (q, dq.reshape(q.shape)),
            (k, dk.reshape(k.shape)),
            (v, dv.reshape(v.shape)),
        )

    return Tensor._from_op(out_full, (q, k, v), backward, "flash_attention", replay=run_blocks)


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
