"""Functional ops built on the :class:`~repro.tensor.Tensor` engine.

Contains the numerically careful primitives the models need: stable
softmax, exact GELU (through a branch-free pure-NumPy ``erfc``), bilinear
interpolation with a proper adjoint, and patch-gather 2-D convolution.
Everything is vectorised;
the only index arithmetic is precomputed gather/scatter tables.

Each kernel allocates its output, saved and scratch buffers once and fills
them in place with one ``run()`` from its parents' live ``.data``: the
eager call runs it, and compiled replay re-runs the same routine.
"""

from __future__ import annotations

import numpy as np

from .tensor import (_POOL, OUTPUT, PERSISTENT, SAVED, SCRATCH, Tensor, _alloc,
                     _binary_node, _reshaped, _unbroadcast)

__all__ = [
    "softmax",
    "gelu",
    "gelu_composed",
    "layernorm",
    "layernorm_composed",
    "linear",
    "add_bias",
    "bilinear_upsample",
    "col2im_shape",
    "conv2d",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` with a fused backward.

    The Jacobian-vector product is computed directly
    (``dx = s * (g - sum(g * s))``) instead of composing exp/sum nodes,
    halving temporary memory for long attention rows.
    """
    a = x
    s = _alloc(OUTPUT, like=a.data)

    def run():
        np.subtract(a.data, a.data.max(axis=axis, keepdims=True), out=s)
        np.exp(s, out=s)
        np.divide(s, s.sum(axis=axis, keepdims=True), out=s)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    run()
    return Tensor._from_op(s, (a,), backward, "softmax", replay=run)


# Numerical Recipes ``erfcc``: erfc(z) = t * exp(-z*z + P(t)), t = 2 / (2 + z),
# fractional error < 1.2e-7 for every z >= 0.  Held as Q(u) = P(2u), u = t/2
# (powers of two scale exactly), so erfc(z)/2 = u * exp(-z*z + Q(u)) spends
# no pass on the halves.  Highest power first.
_HALF_ERFC_POLY = tuple(c * 2.0 ** k for k, c in zip(range(9, -1, -1), (
    0.17087277, -0.82215223, 1.48851587, -1.13520398, 0.27886807,
    -0.18628806, 0.09678418, 0.37409196, 1.00002368, -1.26551223)))


def _normal_cdf(x: np.ndarray, phi: np.ndarray, acc: np.ndarray, tmp: np.ndarray) -> None:
    """``phi[...] = Phi(x) = erfc(-x/sqrt(2)) / 2`` in ``x``'s dtype; clobbers ``acc``, ``tmp``.

    Branch-free in-place passes over dense buffers of ``x``'s shape.
    ``erfc`` is taken of ``|x|/sqrt(2)`` and the sign selected afterwards,
    so the negative tail keeps its relative accuracy (``(1 + erf)/2``
    cancels there).  ``np.exp`` runs only on ``tmp``: a strided ``x`` must
    not pick another ``exp`` loop, hence other bits.
    """
    np.abs(x, out=tmp)
    tmp *= 0.7071067811865476
    # z*z overflows (warns) from |x| ~ 1.8e19; erfc(28) is 0 even in float64
    np.minimum(tmp, 28.0, out=tmp)  # z; NaN passes through
    np.add(tmp, 2.0, out=phi)
    np.divide(1.0, phi, out=phi)  # u
    np.multiply(phi, _HALF_ERFC_POLY[0], out=acc)
    for c in _HALF_ERFC_POLY[1:-1]:  # Horner
        acc += c
        acc *= phi
    acc += _HALF_ERFC_POLY[-1]
    tmp *= tmp
    np.subtract(acc, tmp, out=tmp)
    np.exp(tmp, out=tmp)
    tmp *= phi  # h = Phi(-|x|)
    # Phi = h if x <= 0 else 1 - h, as s + (1 - 2s)*h with s = [x > 0]: exact
    # for s in {0, 1}, and ~10x cheaper than a masked ufunc or np.where
    np.greater(x, 0.0, out=phi)
    np.multiply(phi, -2.0, out=acc)
    acc += 1.0
    acc *= tmp
    phi += acc


def gelu(x: Tensor) -> Tensor:
    """Exact GELU ``x * Phi(x)`` as a single fused tape node.

    ``Phi`` is :func:`_normal_cdf` (pure NumPy): against float64
    ``x * erfc(-x/sqrt(2)) / 2`` the float32 result is within 5e-7
    absolute, 5e-6 relative where ``|gelu| > 1e-3``.  The composed erf form
    expands into five nodes with a full-size temporary each; here the
    forward saves only ``Phi(x)`` (the output buffer is the kernel's
    accumulator) and the hand-written backward is
    ``g * (Phi(x) + x * pdf(x))``.
    """
    a = x
    phi = _alloc(SAVED, like=a.data)
    out_data = _alloc(OUTPUT, like=a.data)
    tmp = _alloc(SCRATCH, like=a.data)  # only run() holds it: transient on the eager tape

    def run():
        _normal_cdf(a.data, phi, out_data, tmp)
        np.multiply(a.data, phi, out=out_data)

    inv_sqrt_2pi = np.float32(1.0 / np.sqrt(2.0 * np.pi))

    def backward(g):
        # one scratch buffer end to end: t = x*pdf(x) + phi, then *= g
        t = np.multiply(a.data, a.data, out=_POOL.take_like(a.data))
        t *= -0.5
        np.exp(t, out=t)
        t *= inv_sqrt_2pi
        t *= a.data
        t += phi
        t *= g
        return (t,)

    run()
    return Tensor._from_op(out_data, (a,), backward, "gelu", replay=run, reads=(a.data,))


def gelu_composed(x: Tensor) -> Tensor:
    """Multi-node erf-form GELU (kept as the fused kernel's reference)."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return x * ((x * inv_sqrt2).erf() + 1.0) * 0.5


def layernorm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis as one fused tape node.

    Forward saves the normalised activations and the inverse stddev; the
    backward is the standard three-term JVP
    ``dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``
    with per-feature reductions for the affine parameters.  Replaces the
    ~8-node composition previously built by ``nn.LayerNorm``.

    Every row mean is one GEMV per leading item against a ``(d, 1)``
    vector of ``1/d`` (broadcasting ``np.matmul``); the leading dims are
    never flattened into one GEMV, so a sample's bits do not depend on
    its batch.  The forward allocates nothing: centred values land in
    ``xhat``, their squares in the output buffer as scratch, and the
    inverse stddev in ``inv``.  The backward allocates the input
    gradient and one scratch array.
    """
    a, w, b = x, weight, bias
    d = a.shape[-1]
    avg = _alloc(PERSISTENT, (d, 1), fill=1.0 / d)
    inv = _alloc(SAVED, (*a.shape[:-1], 1))
    xhat = _alloc(SAVED, like=a.data)
    out_data = _alloc(OUTPUT, like=a.data)

    def run():
        np.matmul(a.data, avg, out=inv)                 # mean
        np.subtract(a.data, inv, out=xhat)
        np.multiply(xhat, xhat, out=out_data)
        np.matmul(out_data, avg, out=inv)               # variance
        np.add(inv, np.float32(eps), out=inv)
        np.sqrt(inv, out=inv)
        np.divide(1.0, inv, out=inv)
        np.multiply(xhat, inv, out=xhat)
        np.multiply(xhat, w.data, out=out_data)
        np.add(out_data, b.data, out=out_data)

    red_axes = tuple(range(a.data.ndim - 1))  # all but the feature axis
    w_shape, b_shape = w.shape, b.shape

    def backward(g):
        # pooled only where NumPy gives both products C order: ``tmp``'s
        # sums below run in its layout order
        if g.flags.c_contiguous and xhat.flags.c_contiguous:
            gx = np.multiply(g, w.data, out=_POOL.take(g.shape))   # dxhat
            tmp = np.multiply(gx, xhat, out=_POOL.take(g.shape))
        else:
            gx = np.multiply(g, w.data)
            tmp = np.multiply(gx, xhat)
        m1, m2 = np.matmul(gx, avg), np.matmul(tmp, avg)
        np.multiply(g, xhat, out=tmp)
        gw = _unbroadcast(tmp.sum(axis=red_axes), w_shape)
        gb = _unbroadcast(g.sum(axis=red_axes), b_shape)
        np.subtract(gx, m1, out=gx)
        np.multiply(xhat, m2, out=tmp)
        np.subtract(gx, tmp, out=gx)
        np.multiply(gx, inv, out=gx)
        return gx, gw, gb

    run()
    return Tensor._from_op(out_data, (a, w, b), backward, "layernorm", replay=run, reads=(w.data,))


def layernorm_composed(x: Tensor, weight: Tensor, bias: Tensor,
                       eps: float = 1e-5) -> Tensor:
    """Multi-node layer norm (kept as the fused kernel's reference)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * weight + bias


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight.T + bias`` as one fused tape node.

    ``weight`` has shape ``(out_features, in_features)``; ``x`` may carry
    arbitrary leading dimensions.  Replaces the transpose + matmul + add
    chain previously built by ``nn.Linear`` and computes the weight
    gradient as a single flattened GEMM (the input gradient only when ``x``
    asks for one).
    """
    a, w = x, weight
    out_f, in_f = w.shape
    if a.shape[-1] != in_f:
        raise ValueError(f"input features {a.shape[-1]} != weight in {in_f}")
    out = _alloc(OUTPUT, (*a.shape[:-1], out_f))
    parents = (a, w) if bias is None else (a, w, bias)
    wants_gx, has_bias = a.requires_grad, bias is not None

    def run():
        np.matmul(a.data, w.data.T, out=out)
        if bias is not None:
            np.add(out, bias.data, out=out)

    def backward(g):
        gx = None
        if wants_gx:   # pooled where NumPy gives the product C order
            c_order = g.ndim <= 3 or g.flags.c_contiguous   # one batch axis at most
            gx = (np.matmul(g, w.data, out=_POOL.take((*g.shape[:-1], in_f)))
                  if c_order else g @ w.data)
        g2, x2 = _reshaped(g, (-1, out_f)), _reshaped(a.data, (-1, in_f))
        gw = g2.T @ x2
        return (gx, gw, g2.sum(axis=0)) if has_bias else (gx, gw)

    run()
    return Tensor._from_op(out, parents, backward, "linear", replay=run, reads=(a.data, w.data))


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Broadcast add as a single tape node (fused bias/positional add).

    Identical numerics to ``x + bias`` but records one node whose backward
    hands the upstream gradient through to ``x`` zero-copy.
    """
    return _binary_node(np.add, x, bias, "add_bias", lambda g, *_: (g, g), reads=())


# --------------------------------------------------------------------- #
# interpolation
# --------------------------------------------------------------------- #
def _bilinear_matrix(in_size: int, out_size: int) -> np.ndarray:
    """``(out, in)`` matrix of 1-D bilinear resize (align_corners=False)."""
    scale = in_size / out_size
    coords = (np.arange(out_size, dtype=np.float64) + 0.5) * scale - 0.5
    coords = np.clip(coords, 0.0, in_size - 1.0)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, in_size - 1)
    w_hi = (coords - lo).astype(np.float32)
    rows = np.arange(out_size)
    m = np.zeros((out_size, in_size), dtype=np.float32)
    m[rows, lo] = 1.0 - w_hi
    m[rows, hi] += w_hi  # lo == hi at a clipped edge: the weights sum to 1
    return m


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resize of an NCHW tensor to ``(out_h, out_w)``.

    Separable: ``My @ x @ Mxᵀ`` with the ``(out, in)`` 1-D resize matrices,
    one GEMM pair per ``(n, c)`` item, so a sample's bits never depend on
    its batch.  The adjoint is the exact transpose, ``Myᵀ @ g @ Mx``, so
    gradient checks pass to float32 precision.  This is the residual
    path's upsampler (Sec. III-A, "Residual Learning").

    The matrices are dense, so an item costs ``O(out_h·h·out_w +
    h·w·out_w)`` rather than the two-tap gather's ``O(out_h·out_w)``: the
    GEMM forward is 2–3× faster at this repository's grids (0.10 against
    0.32 ms at ``(2, 3, 32, 64) → (64, 128)``, one thread on a 2-vCPU
    Xeon) and still ahead at ``(180, 360) → (720, 1440)``, but 1.6× slower
    at ``(360, 720) → (1440, 2880)``, and the gap grows with the input
    edge.  Paper-scale grids would want a banded form.
    """
    a = x
    my = _alloc(PERSISTENT, (out_h, a.shape[2]), fill=_bilinear_matrix(a.shape[2], out_h))
    mx = _alloc(PERSISTENT, (out_w, a.shape[3]), fill=_bilinear_matrix(a.shape[3], out_w))
    out_data = _alloc(OUTPUT, (*a.shape[:2], out_h, out_w))

    def run():
        np.matmul(my, a.data @ mx.T, out=out_data)

    def backward(g):
        return ((my.T @ g) @ mx,)

    run()
    return Tensor._from_op(out_data, (a,), backward, "bilinear_upsample", replay=run, reads=())


# --------------------------------------------------------------------- #
# convolution as one GEMM over gathered patches
# --------------------------------------------------------------------- #
def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def col2im_shape(
    cols: np.ndarray, in_shape: tuple[int, ...], k: int, stride: int, pad: int
) -> np.ndarray:
    """Scatter-add ``(N, C*k*k, out_h*out_w)`` patch columns back to NCHW.

    The adjoint of gathering the sliding ``k x k`` windows of a
    zero-padded input (what :func:`conv2d` multiplies by).
    """
    n, c, h, w = in_shape
    out_h = _conv_out_size(h, k, stride, pad)
    out_w = _conv_out_size(w, k, stride, pad)
    padded = _POOL.take((n, c, h + 2 * pad, w + 2 * pad))
    padded.fill(0)
    cols6 = cols.reshape(n, c, k, k, out_h, out_w)
    for ky in range(k):  # k is tiny (<=7); inner work stays vectorised
        for kx in range(k):
            padded[
                :, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride
            ] += cols6[:, :, ky, kx]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) on NCHW input.

    ``weight`` has shape ``(out_c, in_c, k, k)``.  The forward copies the
    input into one zero-bordered buffer and gathers its ``k x k`` windows
    straight into the saved patches ``(N, C*k*k, out_h*out_w)`` — a 1x1,
    stride-1, unpadded, contiguous input is read in place instead — then
    runs one GEMM per sample (broadcasting ``np.matmul``), so a sample's
    output bits do not depend on who else is in the batch.  Forward and
    backward read the weights' live ``.data``; the input gradient is
    computed only when ``x`` asks for one.
    """
    a, wgt = x, weight
    n, in_c, h, w = a.shape
    out_c, in_c2, k, k2 = wgt.shape
    if in_c != in_c2 or k != k2:
        raise ValueError(f"weight shape {wgt.shape} incompatible with input {a.shape}")
    out_h = _conv_out_size(h, k, stride, pad)
    out_w = _conv_out_size(w, k, stride, pad)
    out = _alloc(OUTPUT, (n, out_c, out_h, out_w))
    direct = k == 1 and stride == 1 and pad == 0 and a.data.flags.c_contiguous
    if not direct:  # only run() holds the bordered copy: transient on the eager tape
        padded = _alloc(PERSISTENT, (n, in_c, h + 2 * pad, w + 2 * pad), fill=0.0)
        s0, s1, s2, s3 = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded, shape=(n, in_c, k, k, out_h, out_w),
            strides=(s0, s1, s2, s3, s2 * stride, s3 * stride), writeable=False)
        cols = _alloc(SAVED, (n, in_c * k * k, out_h * out_w))

    held = a if direct else None   # the backward reads the input only in place

    def patches():
        return held.data.reshape(n, in_c, h * w) if direct else cols

    def run():
        if not direct:
            np.copyto(padded[:, :, pad:pad + h, pad:pad + w], a.data)
            np.copyto(cols.reshape(n, in_c, k, k, out_h, out_w), windows)
        np.matmul(wgt.data.reshape(out_c, -1), patches(),
                  out=out.reshape(n, out_c, out_h * out_w))
        if bias is not None:
            np.add(out, bias.data.reshape(1, out_c, 1, 1), out=out)

    parents = (a, wgt) if bias is None else (a, wgt, bias)
    a_shape, wants_gx, has_bias = a.shape, a.requires_grad, bias is not None

    def backward(g):
        g2 = g.reshape(n, out_c, out_h * out_w)
        gw = (g2 @ np.swapaxes(patches(), -1, -2)).sum(axis=0).reshape(wgt.shape)
        gx = None
        if wants_gx:
            wt2 = wgt.data.reshape(out_c, -1).T   # one batch axis: a C-order product
            cols_g = np.matmul(wt2, g2, out=_POOL.take((n, wt2.shape[0], out_h * out_w)))
            gx = col2im_shape(cols_g, a_shape, k, stride, pad)
        return (gx, gw, g.sum(axis=(0, 2, 3))) if has_bias else (gx, gw)

    run()
    return Tensor._from_op(out, parents, backward, "conv2d", replay=run,
                           reads=(wgt.data, a.data) if direct else (wgt.data,))
