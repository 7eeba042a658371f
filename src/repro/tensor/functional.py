"""Functional ops built on the :class:`~repro.tensor.Tensor` engine.

Contains the numerically careful primitives the models need: stable
softmax, exact GELU (through a branch-free pure-NumPy ``erfc``), bilinear
interpolation with a proper adjoint, patch-gather 2-D convolution, and pixel
shuffle for the decoder's sub-pixel upsampling.  Everything is vectorised;
the only index arithmetic is precomputed gather/scatter tables.

Each kernel allocates its output, saved and scratch buffers once and fills
them in place with one ``run()`` from its parents' live ``.data``: the
eager call runs it, and compiled replay re-runs the same routine.
"""

from __future__ import annotations

import numpy as np

from .tensor import (OUTPUT, PERSISTENT, SAVED, SCRATCH, Tensor, _alloc,
                     _binary_node, _sigmoid, _unbroadcast)

__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "gelu_composed",
    "silu",
    "silu_composed",
    "layernorm",
    "layernorm_composed",
    "softmax_cross_entropy",
    "softmax_cross_entropy_composed",
    "linear",
    "add_bias",
    "bilinear_upsample",
    "pixel_shuffle",
    "pixel_unshuffle",
    "col2im_shape",
    "conv2d",
    "avg_pool2d",
    "dropout",
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
        return ((a, s * (g - dot)),)

    run()
    return Tensor._from_op(s, (a,), backward, "softmax", replay=run)


def _log_softmax(x: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out[...] = log(softmax(x))`` along ``axis``, shifted by the max."""
    np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.subtract(out, np.log(np.exp(out).sum(axis=axis, keepdims=True)), out=out)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably with a fused backward."""
    a = x
    out = _alloc(OUTPUT, like=a.data)
    s = _alloc(SAVED, like=a.data)

    def run():
        _log_softmax(a.data, axis, out)
        np.exp(out, out=s)

    def backward(g):
        return ((a, g - s * g.sum(axis=axis, keepdims=True)),)

    run()
    return Tensor._from_op(out, (a,), backward, "log_softmax", replay=run)


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
        t = np.multiply(a.data, a.data)
        t *= -0.5
        np.exp(t, out=t)
        t *= inv_sqrt_2pi
        t *= a.data
        t += phi
        t *= g
        return ((a, t),)

    run()
    return Tensor._from_op(out_data, (a,), backward, "gelu", replay=run)


def gelu_composed(x: Tensor) -> Tensor:
    """Multi-node erf-form GELU (kept as the fused kernel's reference)."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return x * ((x * inv_sqrt2).erf() + 1.0) * 0.5


def silu(x: Tensor) -> Tensor:
    """SiLU / swish ``x * sigmoid(x)`` as a single fused tape node.

    Saves only the sigmoid; backward is ``g * s * (1 + x * (1 - s))``.
    """
    a = x
    s = _alloc(SAVED, like=a.data)
    out_data = _alloc(OUTPUT, like=a.data)

    def run():
        _sigmoid(a.data, s)
        np.multiply(a.data, s, out=out_data)

    def backward(g):
        return ((a, g * (s * (1.0 + a.data * (1.0 - s)))),)

    run()
    return Tensor._from_op(out_data, (a,), backward, "silu", replay=run)


def silu_composed(x: Tensor) -> Tensor:
    """Two-node SiLU (kept as the fused kernel's reference)."""
    return x * x.sigmoid()


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

    def backward(g):
        gx = np.multiply(g, w.data)                     # dxhat
        tmp = np.multiply(gx, xhat)
        m1, m2 = np.matmul(gx, avg), np.matmul(tmp, avg)
        np.multiply(g, xhat, out=tmp)
        gw = _unbroadcast(tmp.sum(axis=red_axes), w.shape)
        gb = _unbroadcast(g.sum(axis=red_axes), b.shape)
        np.subtract(gx, m1, out=gx)
        np.multiply(xhat, m2, out=tmp)
        np.subtract(gx, tmp, out=gx)
        np.multiply(gx, inv, out=gx)
        return ((a, gx), (w, gw), (b, gb))

    run()
    return Tensor._from_op(out_data, (a, w, b), backward, "layernorm", replay=run)


def layernorm_composed(x: Tensor, weight: Tensor, bias: Tensor,
                       eps: float = 1e-5) -> Tensor:
    """Multi-node layer norm (kept as the fused kernel's reference)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    return centered * inv * weight + bias


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, axis: int = -1,
                          reduction: str = "mean") -> Tensor:
    """Softmax followed by cross-entropy with integer labels, fused.

    ``labels`` is an integer array shaped like ``logits`` without ``axis``.
    The backward is the closed form ``g * (softmax - onehot)`` (scaled by
    ``1/N`` under mean reduction) — no log/exp/gather nodes on the tape.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    a = logits
    labels = np.asarray(labels)
    if not np.issubdtype(labels.dtype, np.integer):
        raise TypeError(f"labels must be integers, got dtype {labels.dtype}")

    # labels are a captured constant (non-Tensor argument); only the
    # logits vary between replays
    idx = np.expand_dims(labels, axis)
    n = labels.size
    logp = _alloc(SAVED, like=a.data)
    out_data = _alloc(OUTPUT)

    def run():
        _log_softmax(a.data, axis, logp)
        total = -np.take_along_axis(logp, idx, axis=axis).sum(dtype=np.float32)
        out_data[...] = total / np.float32(n) if reduction == "mean" else total

    def backward(g):
        ds = np.exp(logp)  # softmax from the saved log-probabilities
        np.put_along_axis(ds, idx, np.take_along_axis(ds, idx, axis=axis) - 1.0,
                          axis=axis)
        scale = g / n if reduction == "mean" else g
        return ((a, (ds * scale).astype(np.float32)),)

    run()
    return Tensor._from_op(out_data, (a,), backward, "softmax_xent", replay=run)


def softmax_cross_entropy_composed(logits: Tensor, labels: np.ndarray,
                                   axis: int = -1,
                                   reduction: str = "mean") -> Tensor:
    """log_softmax + one-hot contraction (the fused kernel's reference)."""
    labels = np.asarray(labels)
    logp = log_softmax(logits, axis=axis)
    onehot = np.zeros(logits.shape, dtype=np.float32)
    np.put_along_axis(onehot, np.expand_dims(labels, axis), 1.0, axis=axis)
    total = -(logp * Tensor(onehot)).sum()
    if reduction == "mean":
        return total * (1.0 / labels.size)
    return total


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

    def run():
        np.matmul(a.data, w.data.T, out=out)
        if bias is not None:
            np.add(out, bias.data, out=out)

    def backward(g):
        gx = g @ w.data if a.requires_grad else None
        g2 = g.reshape(-1, out_f)
        x2 = a.data.reshape(-1, in_f)
        gw = g2.T @ x2
        grads = [(a, gx), (w, gw)]
        if bias is not None:
            grads.append((bias, g2.sum(axis=0)))
        return tuple(grads)

    run()
    return Tensor._from_op(out, parents, backward, "linear", replay=run)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Broadcast add as a single tape node (fused bias/positional add).

    Identical numerics to ``x + bias`` but records one node whose backward
    hands the upstream gradient through to ``x`` zero-copy.
    """
    return _binary_node(np.add, x, bias, "add_bias", lambda g, *_: (g, g))


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
        return ((a, (my.T @ g) @ mx),)

    run()
    return Tensor._from_op(out_data, (a,), backward, "bilinear_upsample", replay=run)


def pixel_shuffle(x: Tensor, factor: int) -> Tensor:
    """Rearrange ``(N, C*r^2, H, W)`` to ``(N, C, H*r, W*r)`` (sub-pixel conv)."""
    n, crr, h, w = x.shape
    r = factor
    if crr % (r * r) != 0:
        raise ValueError(f"channels {crr} not divisible by factor^2 {r * r}")
    c = crr // (r * r)
    y = x.reshape(n, c, r, r, h, w)
    y = y.permute(0, 1, 4, 2, 5, 3)
    return y.reshape(n, c, h * r, w * r)


def pixel_unshuffle(x: Tensor, factor: int) -> Tensor:
    """Inverse of :func:`pixel_shuffle`."""
    n, c, hr, wr = x.shape
    r = factor
    if hr % r or wr % r:
        raise ValueError(f"spatial dims {(hr, wr)} not divisible by factor {r}")
    h, w = hr // r, wr // r
    y = x.reshape(n, c, h, r, w, r)
    y = y.permute(0, 1, 3, 5, 2, 4)
    return y.reshape(n, c * r * r, h, w)


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
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float32)
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

    def patches():
        return a.data.reshape(n, in_c, h * w) if direct else cols

    def run():
        if not direct:
            np.copyto(padded[:, :, pad:pad + h, pad:pad + w], a.data)
            np.copyto(cols.reshape(n, in_c, k, k, out_h, out_w), windows)
        np.matmul(wgt.data.reshape(out_c, -1), patches(),
                  out=out.reshape(n, out_c, out_h * out_w))
        if bias is not None:
            np.add(out, bias.data.reshape(1, out_c, 1, 1), out=out)

    parents = (a, wgt) if bias is None else (a, wgt, bias)

    def backward(g):
        g2 = g.reshape(n, out_c, out_h * out_w)
        gw = (g2 @ np.swapaxes(patches(), -1, -2)).sum(axis=0).reshape(wgt.shape)
        gx = None
        if a.requires_grad:
            gx = col2im_shape(wgt.data.reshape(out_c, -1).T @ g2, a.shape, k, stride, pad)
        grads = [(a, gx), (wgt, gw)]
        if bias is not None:
            grads.append((bias, g.sum(axis=(0, 2, 3))))
        return tuple(grads)

    run()
    return Tensor._from_op(out, parents, backward, "conv2d", replay=run)


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping ``k x k`` average pooling (used for coarsening)."""
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ValueError(f"spatial dims {(h, w)} not divisible by pool size {k}")
    y = x.reshape(n, c, h // k, k, w // k, k)
    return y.mean(axis=(3, 5))


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(mask)
