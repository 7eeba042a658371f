"""Multi-head self- and cross-attention layers.

Self-attention is the quadratic-cost core of the ViT (blocked flash kernel
or naive reference); cross-attention is Reslim's variable aggregator
(Fig. 2, purple block) that collapses the physical-variable dimension into
a single token stream, run in patch space as the fused
:func:`aggregate_variables` node.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor
from ..tensor.tensor import _POOL, OUTPUT, SAVED, SCRATCH, _alloc
from .flash_attention import flash_attention, naive_attention
from .layers import Linear
from .module import Module

__all__ = ["MultiHeadSelfAttention", "CrossAttention", "aggregate_variables"]


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
    runs the fused single-query :func:`aggregate_variables` node instead.
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


def _patch_rows(a: np.ndarray, p: int) -> np.ndarray:
    """A ``(..., w)`` array as ``(..., w / p)`` whole float32 patch rows.

    Each element is one ``np.void`` of ``p`` floats, so a patch gather moves
    ``1/p`` as many elements for the same bytes.  A strided last axis (or
    another dtype) is copied to contiguous float32 first; any other layout
    stays a view.
    """
    if a.dtype != np.float32 or a.strides[-1] != 4:
        a = np.ascontiguousarray(a, dtype=np.float32)
    return a.view(np.dtype((np.void, 4 * p)))


def aggregate_variables(x: Tensor, wt: Tensor, bt: Tensor, var_embed: Tensor,
                        wq: Tensor, bq: Tensor, wk: Tensor, bk: Tensor,
                        wv: Tensor, bv: Tensor, num_heads: int) -> Tensor:
    """Tokenize, tag and mean-query-attend over the variable axis as one
    tape node that never builds the ``(B, V, L, D)`` token tensor.

    ``x``: raw field (B, V, h, w) → (B, L, H, D/H).  ``wt`` (D, p²) / ``bt``
    are the shared single-channel tokenizer, ``var_embed`` (V, 1, D) the
    variable identities, so token ``x_v = P_v Wtᵀ + c_v`` with ``P_v`` the
    variable's p × p patch and ``c_v = bt + e_v``: every token is a row of
    ``[onehot_v | P_v]`` times one ``(V + p², D)`` *basis* ``[c; Wtᵀ]``.
    Per token the query ``W_q mean_v(x_v) + b_q`` attends over keys
    ``W_k x_v + b_k`` and values ``W_v x_v + b_v``; one query per token
    folds both context projections into it (``q̃_h = sc·W_k^hᵀ q_h``;
    ``Σ_v p_v = 1``), and the basis does the rest in patch space:

    * ``x̄ = P̄ Wtᵀ + c̄``;
    * ``basis @ q̃ᵀ`` — one GEMM per sample, landing keys-major — is the
      ``c_v·q̃_h`` half of the scores stacked on ``r = q̃ Wt``; the other
      half is the rank-p² per-token term ``P_v·r_h``;
    * ``Σ_v p_v x_v = [p; Σ_v p_v P_v]ᵀ @ basis``, again one GEMM per sample.

    The backward mirrors it: both GEMMs transpose into ``g[p; ΣpP]`` and
    ``g q̃``, and the basis gradient (``g c`` over ``g Wtᵀ``) is their two
    operand products.  ``bk`` shifts all V scores of a head alike and
    cannot reach the output: it stays a parent (leaf hooks and flat-buffer
    slot fire as for any parameter) with an exactly zero gradient.  The
    input gradient is computed only when ``x`` asks for one.

    Every GEMM is one BLAS call per ``b``, ``(b, h)`` or ``(b, l)`` item, so
    a sample's output and input-gradient bits do not depend on its batch;
    only the parameter gradients contract over ``B``, as ``linear``'s do.
    """
    b, v, hh, ww = x.shape
    d, k = wt.shape
    p = math.isqrt(k)
    if p * p != k:
        raise ValueError(f"tokenizer weight {wt.shape} is not (D, p*p)")
    if hh % p or ww % p:
        raise ValueError(f"grid {(hh, ww)} not divisible by patch size {p}")
    if var_embed.shape != (v, 1, d):
        raise ValueError(f"expected {(v, 1, d)} variable embeddings, "
                         f"got {var_embed.shape}")
    gh, gw = hh // p, ww // p
    l, h, dh = gh * gw, num_heads, d // num_heads
    n, m = b * l, l * num_heads
    sc = np.float32(1.0 / np.sqrt(dh))
    inv_v = np.float32(1.0 / v)

    def tokens(a):  # (B, ·, L, H) keys-major array as one (·, H) matrix per token
        return a.transpose(0, 2, 1, 3)

    heads = tokens  # (B, L, H, ·) array as one (L, ·) matrix per (b, h)

    def per_head(a):  # (B, L, H, ·) array as H matrices over all B·L tokens
        return a.reshape(n, h, -1).transpose(1, 0, 2)

    def keys(a):  # (B, ·, L, H) array as one (·, L·H) matrix per sample
        return a.reshape(b, -1, m)

    def rows(a):  # (B, L, H, ·) array as one (L·H, ·) matrix per sample
        return a.reshape(b, m, -1)

    def split(w):  # (D, D) weight as its H row blocks W^h
        return w.data.reshape(h, dh, d)

    def empty(*shape):   # the backward's buffers, from the eager pool
        return _POOL.take(shape)

    def saved(*shape):
        return _alloc(SAVED, shape)

    patches = saved(b, l, v, k)                 # P
    xmean, pbar = _alloc(SCRATCH, (b, hh, ww)), saved(b, l, k)
    basis, cbar = saved(v + k, d), _alloc(SCRATCH, (d,))  # [c; Wtᵀ], c̄
    xbar = saved(b, l, d)
    q = saved(b, l, h, dh)                      # sc · (W_q x̄ + b_q)
    qt = saved(b, l, h, d)                      # q̃
    # keys-major like flash_attention's tiles: reductions over V are
    # whole-slab SIMD accumulations, not 23-element row reductions
    pa = saved(b, v + k, l, h)                  # [p; (Σ_v p_v P_v)ᵀ]
    prob, pooled = pa[:, :v], pa[:, v:]
    rt = saved(b, k, l, h)                      # rᵀ
    rank_k, stat = saved(b, v, l, h), saved(b, 1, l, h)   # both passes' scratch
    px = saved(b, l, h, d)                      # Σ_v p_v x_v
    out = _alloc(OUTPUT, (b, l, h, dh))

    def run():
        field = x.data
        np.copyto(_patch_rows(patches, p).reshape(b, gh, gw, v, p),
                  _patch_rows(field, p).reshape(b, v, gh, p, gw).transpose(0, 2, 4, 1, 3))
        np.add.reduce(field, axis=1, out=xmean)     # np.mean stages its divide
        np.multiply(xmean, inv_v, out=xmean)
        np.copyto(_patch_rows(pbar, p).reshape(b, gh, gw, p),
                  _patch_rows(xmean, p).reshape(b, gh, p, gw).transpose(0, 1, 3, 2))
        np.add(var_embed.data.reshape(v, d), bt.data, out=basis[:v])
        np.copyto(basis[v:], wt.data.T)
        np.add.reduce(basis[:v], axis=0, out=cbar)
        np.multiply(cbar, inv_v, out=cbar)
        np.matmul(pbar, basis[v:], out=xbar)
        np.add(xbar, cbar, out=xbar)
        q2 = q.reshape(b, l, d)
        np.matmul(xbar, wq.data.T, out=q2)
        np.add(q2, bq.data, out=q2)
        np.multiply(q2, sc, out=q2)
        np.matmul(heads(q), split(wk), out=heads(qt))
        np.matmul(basis, rows(qt).swapaxes(-1, -2), out=keys(pa))
        np.copyto(rt, pooled)
        np.matmul(patches, tokens(rt), out=tokens(rank_k))
        np.add(prob, rank_k, out=prob)
        np.max(prob, axis=1, keepdims=True, out=stat)
        np.subtract(prob, stat, out=prob)
        np.exp(prob, out=prob)
        np.sum(prob, axis=1, keepdims=True, out=stat)
        np.divide(prob, stat, out=prob)
        np.matmul(patches.swapaxes(-1, -2), tokens(prob), out=tokens(pooled))
        np.matmul(keys(pa).swapaxes(-1, -2), basis, out=rows(px))
        np.matmul(heads(px), split(wv).swapaxes(-1, -2), out=heads(out))
        np.add(out, bv.data.reshape(h, dh), out=out)

    run()
    wants_gx, bk_shape = x.requires_grad, bk.shape

    def backward(g):
        gwv = per_head(g).swapaxes(-1, -2) @ per_head(px)
        wide = empty(b, l, h, d)                # g(Σpx), then g q̃
        np.matmul(heads(g), split(wv), out=heads(wide))
        ga = empty(b, v + k, l, h)              # g[p; ΣpP], then [gs; g rᵀ]
        gs, gk = ga[:, :v], ga[:, v:]
        np.matmul(basis, rows(wide).swapaxes(-1, -2), out=keys(ga))
        gbasis = (keys(pa) @ rows(wide)).sum(axis=0)
        np.matmul(patches, tokens(gk), out=tokens(rank_k))
        np.add(gs, rank_k, out=gs)
        np.multiply(gs, prob, out=rank_k)
        np.sum(rank_k, axis=1, keepdims=True, out=stat)
        np.subtract(gs, stat, out=gs)
        np.multiply(gs, prob, out=gs)
        gpooled = gk.copy() if wants_gx else None
        np.matmul(patches.swapaxes(-1, -2), tokens(gs), out=tokens(gk))
        gbasis += (keys(ga) @ rows(qt)).sum(axis=0)
        np.matmul(keys(ga).swapaxes(-1, -2), basis, out=rows(wide))
        gq = empty(b, l, h, dh)                 # d/d(sc·q), then d/dq
        np.matmul(heads(wide), split(wk).swapaxes(-1, -2), out=heads(gq))
        gwk = per_head(q).swapaxes(-1, -2) @ per_head(wide)
        np.multiply(gq, sc, out=gq)
        gq2 = gq.reshape(n, d)
        gxbar = gq.reshape(b, l, d) @ wq.data
        gxbar2 = gxbar.reshape(n, d)
        gc = gbasis[:v] + gxbar2.sum(axis=0) * inv_v
        gwt = gxbar2.T @ pbar.reshape(n, k)
        gwt += gbasis[v:].T
        gx = None
        if wants_gx:
            gp = tokens(prob) @ tokens(gpooled).swapaxes(-1, -2)    # (B, L, V, k)
            gp += tokens(gs) @ tokens(rt).swapaxes(-1, -2)
            gp += ((gxbar @ wt.data) * inv_v)[:, :, None]
            gx = empty(b, v, hh, ww)
            np.copyto(_patch_rows(gx, p).reshape(b, v, gh, p, gw).transpose(0, 2, 4, 1, 3),
                      _patch_rows(gp, p).reshape(b, gh, gw, v, p))
        return (gx, gwt, gc.sum(axis=0), gc.reshape(v, 1, d),
                gq2.T @ xbar.reshape(n, d), gq2.sum(axis=0),
                gwk.reshape(d, d), np.zeros(bk_shape, np.float32),
                gwv.reshape(d, d), g.reshape(n, d).sum(axis=0))

    return Tensor._from_op(out, (x, wt, bt, var_embed, wq, bq, wk, bk, wv, bv),
                           backward, "aggregate_variables", replay=run,
                           reads=(wt.data, wq.data, wk.data, wv.data))
