"""Multi-head self- and cross-attention layers.

Self-attention is the quadratic-cost core of the ViT (blocked flash kernel
or naive reference); cross-attention is Reslim's variable aggregator
(Fig. 2, purple block) that collapses the physical-variable dimension into
a single token stream, run as the fused :func:`pooled_attention` node.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from .flash_attention import flash_attention, naive_attention
from .layers import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention", "CrossAttention", "pooled_attention"]


def _split_heads(x: Tensor, num_heads: int) -> Tensor:
    """(B, L, D) → (B, H, L, D/H)."""
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).permute(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    """(B, H, L, Dh) → (B, L, H*Dh)."""
    b, h, l, dh = x.shape
    return x.permute(0, 2, 1, 3).reshape(b, l, h * dh)


class MultiHeadSelfAttention(Module):
    """Standard MHSA with optional flash (cache-blocked) kernel.

    Parameters
    ----------
    dim:
        Embedding width; must be divisible by ``num_heads``.
    use_flash:
        Route the score computation through the blocked online-softmax
        kernel.  Numerically equivalent; linear temporary memory in L.
    block_size:
        Flash tile edge in tokens.
    """

    def __init__(self, dim: int, num_heads: int, use_flash: bool = True,
                 block_size: int = 128, rng: np.random.Generator | None = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.num_heads = num_heads
        self.use_flash = use_flash
        self.block_size = block_size
        self.qkv = Linear(dim, 3 * dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, l, d = x.shape
        qkv = self.qkv(x)  # (B, L, 3D)
        q = _split_heads(qkv[:, :, :d], self.num_heads)
        k = _split_heads(qkv[:, :, d : 2 * d], self.num_heads)
        v = _split_heads(qkv[:, :, 2 * d :], self.num_heads)
        if self.use_flash:
            out = flash_attention(q, k, v, block_size=self.block_size)
        else:
            out = naive_attention(q, k, v)
        return self.proj(_merge_heads(out))


class CrossAttention(Module):
    """Attention of a query stream over a context stream.

    Reslim uses this to aggregate the V per-variable embeddings into one:
    queries come from a learned (or mean) aggregate token per spatial
    location, keys/values from the V variable embeddings, so the variable
    axis (length V ≈ 23) is the attention sequence — cheap, and the output
    sequence no longer scales with the number of physical variables.

    ``forward`` is the general-``L_q`` composed reference; the aggregator
    runs the fused single-query :func:`pooled_attention` node instead.
    """

    def __init__(self, dim: int, num_heads: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = rng or np.random.default_rng(0)
        self.num_heads = num_heads
        self.to_q = Linear(dim, dim, rng=rng)
        self.to_k = Linear(dim, dim, rng=rng)
        self.to_v = Linear(dim, dim, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, query: Tensor, context: Tensor) -> Tensor:
        """``query``: (B, Lq, D); ``context``: (B, Lk, D) → (B, Lq, D)."""
        q = _split_heads(self.to_q(query), self.num_heads)
        k = _split_heads(self.to_k(context), self.num_heads)
        v = _split_heads(self.to_v(context), self.num_heads)
        return self.proj(_merge_heads(naive_attention(q, k, v)))


def pooled_attention(x: Tensor, wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                     wv: Tensor, bv: Tensor, num_heads: int) -> Tensor:
    """Mean-query attention over the variable axis as one fused tape node.

    ``x``: (B, V, L, D) → (B, L, H, D/H): per token, the query
    ``W_q mean_v(x_v) + b_q`` attends over keys ``W_k x_v + b_k`` and values
    ``W_v x_v + b_v``.  One query per token lets both context projections
    fold into the query: ``sc·q_h·(W_k^h x_v + b_k^h) = q̃_h·x_v + const_h``
    with ``q̃_h = sc·W_k^hᵀ q_h``, and ``Σ_v p_v (W_v^h x_v + b_v^h) =
    W_v^h (Σ_v p_v x_v) + b_v^h`` because ``Σ_v p_v = 1``.  ``const_h`` is
    the same for every ``v`` and softmax is shift invariant, so ``bk``
    cannot reach the output: it stays a parent (its leaf hooks and
    flat-buffer slot fire as for any parameter) with an exactly zero gradient.

    Every GEMM is one BLAS call per ``b``, ``(b, h)`` or ``(b, l)`` item —
    ``x[b, :, l, :]`` is read in place as a ``(V, D)`` matrix of row stride
    ``L·D`` — so a sample's output and token-gradient bits do not depend on
    its batch; only the parameter gradients contract over ``B·L``, as
    ``linear``'s do.
    """
    from ..tensor.flops import add_flops

    b, v, l, d = x.shape
    h, dh, n = num_heads, d // num_heads, b * l
    sc = np.float32(1.0 / np.sqrt(dh))
    inv_v = np.float32(1.0 / v)
    flops = 2.0 * (3 * n * d * d + 2 * n * h * v * d)

    def tokens(a):  # (B, V, L, ·) array as one (V, ·) matrix per token
        return a.transpose(0, 2, 1, 3)

    heads = tokens  # (B, L, H, ·) array as one (L, ·) matrix per (b, h)

    def per_head(a):  # (B, L, H, ·) array as H matrices over all B·L tokens
        return a.reshape(n, h, -1).transpose(1, 0, 2)

    def split(w):  # (D, D) weight as its H row blocks W^h
        return w.data.reshape(h, dh, d)

    xbar = np.empty((b, l, d), dtype=np.float32)
    q = np.empty((b, l, h, dh), dtype=np.float32)   # sc · (W_q x̄ + b_q)
    qt = np.empty((b, l, h, d), dtype=np.float32)   # q̃
    # keys-major like flash_attention's tiles: reductions over V are
    # whole-slab SIMD accumulations, not 23-element row reductions
    p = np.empty((b, v, l, h), dtype=np.float32)
    px = np.empty((b, l, h, d), dtype=np.float32)   # Σ_v p_v x_v
    out = np.empty((b, l, h, dh), dtype=np.float32)

    def run():
        add_flops(flops)
        xt = tokens(x.data)
        np.mean(x.data, axis=1, out=xbar)
        q2 = q.reshape(b, l, d)
        np.matmul(xbar, wq.data.T, out=q2)
        np.add(q2, bq.data, out=q2)
        np.multiply(q2, sc, out=q2)
        np.matmul(heads(q), split(wk), out=heads(qt))
        np.matmul(xt, qt.swapaxes(-1, -2), out=tokens(p))
        np.subtract(p, p.max(axis=1, keepdims=True), out=p)
        np.exp(p, out=p)
        np.divide(p, p.sum(axis=1, keepdims=True), out=p)
        np.matmul(tokens(p).swapaxes(-1, -2), xt, out=px)
        np.matmul(heads(px), split(wv).swapaxes(-1, -2), out=heads(out))
        np.add(out, bv.data.reshape(h, dh), out=out)

    run()

    def backward(g):
        add_flops(2.0 * flops)
        xt = tokens(x.data)
        # gx is one GEMM per token, coef (V, 2H+1) @ rows (2H+1, D) with
        #   coef = [p, gs, 1/V]    rows = [g(Σpx); q̃; gx̄],
        # each block written in place by the step that produces it
        coef = np.empty((b, v, l, 2 * h + 1), dtype=np.float32)
        rows = np.empty((b, l, 2 * h + 1, d), dtype=np.float32)
        coef[..., :h] = p
        coef[..., 2 * h] = inv_v
        rows[:, :, h:2 * h] = qt
        gs, gpx, gxbar = coef[..., h:2 * h], rows[:, :, :h], rows[:, :, 2 * h]
        np.matmul(heads(g), split(wv), out=heads(gpx))
        gp = np.empty_like(p)
        np.matmul(xt, gpx.swapaxes(-1, -2), out=tokens(gp))
        np.subtract(gp, (gp * p).sum(axis=1, keepdims=True), out=gp)
        np.multiply(gp, p, out=gs)
        gqt = tokens(gs).swapaxes(-1, -2) @ xt
        gq = np.empty((b, l, h, dh), dtype=np.float32)  # d/d(sc·q), then d/dq
        np.matmul(heads(gqt), split(wk).swapaxes(-1, -2), out=heads(gq))
        gwk = per_head(q).swapaxes(-1, -2) @ per_head(gqt)
        gwv = per_head(g).swapaxes(-1, -2) @ per_head(px)
        np.multiply(gq, sc, out=gq)
        np.matmul(gq.reshape(b, l, d), wq.data, out=gxbar)
        gx = np.empty(x.shape, dtype=np.float32)
        np.matmul(tokens(coef), rows, out=tokens(gx))
        gq2 = gq.reshape(n, d)
        return (
            (x, gx),
            (wq, gq2.T @ xbar.reshape(n, d)), (bq, gq2.sum(axis=0)),
            (wk, gwk.reshape(d, d)), (bk, np.zeros_like(bk.data)),
            (wv, gwv.reshape(d, d)), (bv, g.reshape(n, d).sum(axis=0)),
        )

    return Tensor._from_op(out, (x, wq, bq, wk, bk, wv, bv), backward,
                           "pooled_attention", replay=run)
