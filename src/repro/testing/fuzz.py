"""Seeded property-based fuzzer for the tensor-engine ops.

Samples shapes, broadcast patterns, dtypes (float32 and the bfloat16
grid), and op parameters for every op in ``repro.tensor.functional``,
the core ``Tensor`` arithmetic, ``flash_attention`` and
``aggregate_variables``, then cross-checks:

* **forward** values against an independent float64 NumPy reference
  (naive loops for conv, explicit coordinate math for interpolation —
  never the engine's own code path);
* **backward** gradients of ``sum(out * W)`` (random fixed ``W``)
  against central differences of the float64 reference.

Every sample is derived from ``(seed, sample_index)`` alone, so a failure
report pinpoints a reproducible case: re-run ``fuzz_ops(seed=..., only
that op)`` and the exact arrays regenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from ..nn.attention import aggregate_variables
from ..nn.flash_attention import flash_attention
from ..tensor import Tensor
from ..tensor import functional as F
from ..tensor.dtypes import DTYPE_BF16, DTYPE_F32, bf16_round
from .gradcheck import numerical_grad_multi

__all__ = [
    "OpSpec",
    "FuzzFailure",
    "FuzzReport",
    "OPS",
    "fuzz_ops",
    "seeded_arrays",
]


# --------------------------------------------------------------------- #
# shape / value sampling
# --------------------------------------------------------------------- #
def _shape(rng: np.random.Generator, ndim_lo=1, ndim_hi=3, dim_hi=5) -> tuple[int, ...]:
    ndim = int(rng.integers(ndim_lo, ndim_hi + 1))
    return tuple(int(rng.integers(1, dim_hi + 1)) for _ in range(ndim))


def _broadcast_partner(rng: np.random.Generator, shape: tuple[int, ...]) -> tuple[int, ...]:
    """A shape that broadcasts against ``shape``: random dims collapsed to
    1 and random leading dims dropped."""
    out = [d if rng.random() < 0.6 else 1 for d in shape]
    drop = int(rng.integers(0, len(out) + 1))
    out = out[drop:]
    return tuple(out) if out else (1,)


def _values(rng: np.random.Generator, shape: tuple[int, ...],
            dtype: str, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    x = (rng.standard_normal(shape) * scale + offset).astype(np.float32)
    if dtype == DTYPE_BF16:
        x = bf16_round(x)
    return x


def seeded_arrays(seed: int, n: int, size: int = 256,
                  exponent_range: tuple[int, int] = (-30, 30)
                  ) -> Iterator[np.ndarray]:
    """Deterministic float32 arrays with a wide dynamic range.

    The generator behind the bfloat16 property tests: mantissas from a
    normal distribution scaled by random powers of two, so rounding
    behaviour is exercised across the exponent range rather than only
    near 1.0.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        mant = rng.standard_normal(size)
        expo = rng.integers(exponent_range[0], exponent_range[1], size=size)
        yield (mant * np.exp2(expo.astype(np.float64))).astype(np.float32)


# --------------------------------------------------------------------- #
# float64 references (independent of the engine's code paths)
# --------------------------------------------------------------------- #
def _ref_softmax(x, axis):
    s = x - x.max(axis=axis, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=axis, keepdims=True)


def _ref_log_softmax(x, axis):
    s = x - x.max(axis=axis, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=axis, keepdims=True))


def _ref_gelu(x):
    from scipy import special  # the float64 reference; no workload imports scipy

    return x * 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))


def _ref_silu(x):
    return x / (1.0 + np.exp(-x))


def _ref_erf(x):
    from scipy import special  # the float64 reference; no workload imports scipy

    return special.erf(x)


def _ref_layernorm(x, w, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * w + b


def _ref_softmax_xent(x, labels, axis=-1, reduction="mean"):
    logp = _ref_log_softmax(x, axis)
    picked = np.take_along_axis(logp, np.expand_dims(labels, axis), axis)
    total = -picked.sum()
    return total / labels.size if reduction == "mean" else total


def _ref_linear(x, w, b=None):
    out = x @ w.T
    return out if b is None else out + b


def _ref_conv2d(x, w, b, stride, pad):
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (ww + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            patch = x[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    if b is not None:
        out += b.reshape(1, cout, 1, 1)
    return out


def _ref_attention(q, k, v, scale, block_size):
    """Naive O(L²) attention; ``block_size`` must not change the result."""
    sc = 1.0 / np.sqrt(q.shape[-1]) if scale is None else scale
    return _ref_softmax(q @ np.swapaxes(k, -1, -2) * sc, -1) @ v


def _ref_aggregate_variables(x, wt, bt, var_embed, wq, bq, wk, bk, wv, bv,
                             num_heads):
    """The aggregator's composed chain: every variable's patches through
    the shared tokenizer, plus its embedding; mean query, K/V projections
    of all V tokens, per-head softmax over V.  (B, V, h, w) → (B, L, H, D/H)."""
    b, v, hh, ww = x.shape
    d, k = wt.shape
    p = int(round(np.sqrt(k)))
    l = (hh // p) * (ww // p)
    patches = (x.reshape(b, v, hh // p, p, ww // p, p)
                .transpose(0, 1, 2, 4, 3, 5).reshape(b, v, l, k))
    ctx = (patches @ wt.T + bt + var_embed).transpose(0, 2, 1, 3)    # (B, L, V, D)

    def heads(t):  # (B, L, n, D) → (B, L, H, n, D/H)
        return np.swapaxes(t.reshape(b, l, -1, num_heads, d // num_heads), 2, 3)

    q = heads(ctx.mean(axis=2, keepdims=True) @ wq.T + bq)
    key, val = heads(ctx @ wk.T + bk), heads(ctx @ wv.T + bv)
    return _ref_attention(q, key, val, None, None)[:, :, :, 0]


def _ref_avg_pool2d(x, k):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def _ref_pixel_shuffle(x, factor):
    r = factor
    n, crr, h, w = x.shape
    c = crr // (r * r)
    return (x.reshape(n, c, r, r, h, w)
             .transpose(0, 1, 4, 2, 5, 3)
             .reshape(n, c, h * r, w * r))


def _ref_pixel_unshuffle(x, factor):
    r = factor
    n, c, hr, wr = x.shape
    h, w = hr // r, wr // r
    return (x.reshape(n, c, h, r, w, r)
             .transpose(0, 1, 3, 5, 2, 4)
             .reshape(n, c * r * r, h, w))


def _ref_bilinear(x, out_h, out_w):
    """Direct (non-tabulated) bilinear resize, align_corners=False."""
    n, c, h, w = x.shape
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    for oi, y in enumerate(ys):
        y0 = int(np.floor(y)); y1 = min(y0 + 1, h - 1); wy = y - y0
        for oj, xx in enumerate(xs):
            x0 = int(np.floor(xx)); x1 = min(x0 + 1, w - 1); wx = xx - x0
            out[:, :, oi, oj] = (
                x[:, :, y0, x0] * (1 - wy) * (1 - wx)
                + x[:, :, y0, x1] * (1 - wy) * wx
                + x[:, :, y1, x0] * wy * (1 - wx)
                + x[:, :, y1, x1] * wy * wx
            )
    return out


def _ref_dropout(x, p, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask


# --------------------------------------------------------------------- #
# op registry
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OpSpec:
    """One fuzzable op: a sampler, the engine path, a float64 reference."""

    name: str
    #: rng -> (input arrays, kwargs)
    sample: Callable[[np.random.Generator, str], tuple[list[np.ndarray], dict]]
    #: (input Tensors, kwargs) -> output Tensor
    run: Callable[..., Tensor]
    #: (float64 input arrays, kwargs) -> float64 output array
    reference: Callable[..., np.ndarray]
    #: indices of differentiable inputs (backward is checked for these)
    diff_inputs: tuple[int, ...] = (0,)
    fwd_rtol: float = 1e-4
    fwd_atol: float = 1e-5
    grad_rtol: float = 2e-2
    grad_atol: float = 2e-3


def _binary_sampler(offset=0.0, scale=1.0, away_from=None):
    def sample(rng, dtype):
        a_shape = _shape(rng)
        b_shape = _broadcast_partner(rng, a_shape)
        a = _values(rng, a_shape, dtype, scale, offset)
        b = _values(rng, b_shape, dtype, scale, offset)
        if away_from is not None:
            # keep denominators / tie-breaking inputs away from the
            # non-differentiable set
            b = np.where(np.abs(b - away_from) < 0.3,
                         b + np.sign(b - away_from + 1e-6), b).astype(np.float32)
            if dtype == DTYPE_BF16:
                b = bf16_round(b)
        return [a, b], {}
    return sample


def _unary_sampler(scale=1.0, offset=0.0, kinks=(), positive=False):
    """Values moved 0.5 away from any of ``kinks`` they fall within 0.2
    of (so central differences never straddle one); ``positive`` keeps
    them at least 0.5 (``log``, ``sqrt``)."""
    def sample(rng, dtype):
        x = (rng.standard_normal(_shape(rng)) * scale + offset).astype(np.float32)
        if positive:
            x = np.abs(x) + np.float32(0.5)
        for k in kinks:
            x = np.where(np.abs(x - k) < 0.2, x + np.copysign(0.5, x - k), x)
        return [bf16_round(x) if dtype == DTYPE_BF16 else x], {}
    return sample


def _clip_sampler(rng, dtype):
    arrays, _ = _unary_sampler(scale=1.5, kinks=(-1.0, 1.0))(rng, dtype)
    return arrays, {"lo": -1.0, "hi": 1.0}


def _pad_sampler(rng, dtype):
    x = _values(rng, _shape(rng), dtype)
    pad_width = tuple((int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in x.shape)
    return [x], {"pad_width": pad_width, "value": float(rng.choice([0.0, 1.5]))}


def _join_sampler(stack):
    """2–3 parents of one shape (``stack``), or of sizes that differ along
    ``axis`` only (``concat``)."""
    def sample(rng, dtype):
        shape = list(_shape(rng))
        axis = int(rng.integers(-len(shape) - stack, len(shape) + stack))
        arrays = []
        for _ in range(int(rng.integers(2, 4))):
            if not stack:
                shape[axis] = int(rng.integers(1, 4))
            arrays.append(_values(rng, tuple(shape), dtype))
        return arrays, {"axis": axis}
    return sample


def _axis_sampler(rng, dtype):
    x = _values(rng, _shape(rng, ndim_lo=2, ndim_hi=3), dtype)
    axis = int(rng.integers(-1, x.ndim))
    return [x], {"axis": axis}


def _reduce_sampler(rng, dtype):
    x = _values(rng, _shape(rng, ndim_lo=1, ndim_hi=3), dtype)
    axis = int(rng.integers(0, x.ndim)) if rng.random() < 0.7 else None
    keepdims = bool(rng.random() < 0.5)
    return [x], {"axis": axis, "keepdims": keepdims}


def _matmul_sampler(rng, dtype):
    n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
    if rng.random() < 0.4:  # batched left operand broadcasting over a 2-D right
        b = int(rng.integers(1, 4))
        a = _values(rng, (b, n, k), dtype)
    else:
        a = _values(rng, (n, k), dtype)
    w = _values(rng, (k, m), dtype)
    return [a, w], {}


def _conv_sampler(rng, dtype):
    n = int(rng.integers(1, 3))
    cin = int(rng.integers(1, 3))
    cout = int(rng.integers(1, 3))
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    pad = int(rng.choice([0, 1]))
    h = int(rng.integers(k, k + 3))
    w = int(rng.integers(k, k + 3))
    x = _values(rng, (n, cin, h, w), dtype)
    wgt = _values(rng, (cout, cin, k, k), dtype, scale=0.5)
    bias = _values(rng, (cout,), dtype) if rng.random() < 0.5 else None
    arrays = [x, wgt] if bias is None else [x, wgt, bias]
    return arrays, {"stride": stride, "pad": pad}


def _pool_sampler(rng, dtype):
    k = int(rng.choice([1, 2]))
    n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h = k * int(rng.integers(1, 4))
    w = k * int(rng.integers(1, 4))
    return [_values(rng, (n, c, h, w), dtype)], {"k": k}


def _shuffle_sampler(rng, dtype):
    r = 2
    n, c = 1, int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    return [_values(rng, (n, c * r * r, h, w), dtype)], {"factor": r}


def _unshuffle_sampler(rng, dtype):
    r = 2
    n, c = 1, int(rng.integers(1, 3))
    h, w = r * int(rng.integers(1, 3)), r * int(rng.integers(1, 3))
    return [_values(rng, (n, c, h, w), dtype)], {"factor": r}


def _bilinear_sampler(rng, dtype):
    n, c = 1, int(rng.integers(1, 3))
    h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    out_h = int(rng.integers(2, 2 * h + 1))
    out_w = int(rng.integers(2, 2 * w + 1))
    return [_values(rng, (n, c, h, w), dtype)], {"out_h": out_h, "out_w": out_w}


def _dropout_sampler(rng, dtype):
    x = _values(rng, _shape(rng), dtype)
    p = float(rng.choice([0.0, 0.25, 0.5]))
    seed = int(rng.integers(0, 2**31))
    return [x], {"p": p, "seed": seed}


def _layernorm_sampler(rng, dtype):
    x = _values(rng, _shape(rng, ndim_lo=2, ndim_hi=3), dtype)
    d = x.shape[-1]
    w = _values(rng, (d,), dtype, scale=0.5, offset=1.0)
    b = _values(rng, (d,), dtype, scale=0.5)
    return [x, w, b], {}


def _xent_sampler(rng, dtype):
    # labels are integer indices, not differentiable inputs — they ride in
    # kwargs so _check_sample doesn't wrap them as float Tensors
    n = int(rng.integers(1, 5))
    c = int(rng.integers(2, 6))
    logits = _values(rng, (n, c), dtype, scale=2.0)
    labels = rng.integers(0, c, size=(n,))
    reduction = "mean" if rng.random() < 0.5 else "sum"
    return [logits], {"labels": labels, "reduction": reduction}


def _linear_sampler(rng, dtype):
    in_f, out_f = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    lead = _shape(rng, ndim_lo=0, ndim_hi=2, dim_hi=4)
    x = _values(rng, (*lead, in_f), dtype)
    w = _values(rng, (out_f, in_f), dtype)
    arrays = [x, w]
    if rng.random() < 0.5:
        arrays.append(_values(rng, (out_f,), dtype))
    return arrays, {}


def _flash_sampler(rng, dtype):
    """Every hazard met while sizing kernel epoch 1 (ISSUE 17): cross
    lengths, ragged last blocks, block sizes from 1 to beyond L, custom
    scale, 0–2 leading dims, parents that are permuted views (what
    ``_split_heads`` hands over), and queries scaled to saturate softmax."""
    lead = _shape(rng, ndim_lo=0, ndim_hi=2, dim_hi=2)
    d = int(rng.integers(1, 5))
    lq = int(rng.integers(1, 7))
    lk = lq if rng.random() < 0.5 else int(rng.integers(1, 7))

    def parent(length, scale=1.0):
        x = _values(rng, (*lead, length, d), dtype, scale)
        if len(lead) == 2 and rng.random() < 0.5:
            # a (B, L, H, d) buffer seen as (B, H, L, d): not contiguous
            x = np.ascontiguousarray(x.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)
        return x

    q = parent(lq, 50.0 if rng.random() < 0.2 else 1.0)
    k, v = parent(lk), parent(lk)
    block_size = int(rng.integers(1, max(lq, lk) + 3))
    scale = float(rng.uniform(0.2, 1.5)) if rng.random() < 0.4 else None
    return [q, k, v], {"scale": scale, "block_size": block_size}


def _aggregate_sampler(rng, dtype):
    """The aggregator's edges: V from 1 to 30, L = 1, one head and one
    channel per head, ``patch_size`` 1 and patches wider than the embedding
    (p² ≥ D), a field that is a permuted view, and key weights scaled until
    the softmax saturates (x20: at x50 it is the eps = 1e-3 central
    difference through ``bt`` / ``var_embed``, which move every token at
    once, that leaves the tolerance, not the kernel).  Sizes keep about two
    thirds of the samples under the fuzzer's backward-probe budget."""
    d = int(rng.integers(1, 5))
    num_heads = int(rng.choice([h for h in (1, 2, 3, 4) if d % h == 0]))
    p = int(rng.choice([1, 2, 3], p=[0.3, 0.5, 0.2]))
    b = int(rng.integers(1, 3))
    gh, gw = (1, 1) if rng.random() < 0.4 else (int(rng.integers(1, 3)),
                                                int(rng.integers(1, 3)))
    v = int(rng.integers(1, 31 if rng.random() < 0.2 else 5))
    x = _values(rng, (b, v, gh * p, gw * p), dtype)
    if rng.random() < 0.3:
        x = np.ascontiguousarray(x.transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
    wt = _values(rng, (d, p * p), dtype, scale=1.0 / p)   # unit-variance tokens
    bt = _values(rng, (d,), dtype, scale=0.5)
    var_embed = _values(rng, (v, 1, d), dtype, scale=0.5)
    wq, wk, wv = (_values(rng, (d, d), dtype) for _ in range(3))
    bq, bk, bv = (_values(rng, (d,), dtype, scale=0.5) for _ in range(3))
    if rng.random() < 0.2:
        wk = _values(rng, (d, d), dtype, scale=20.0)
    return [x, wt, bt, var_embed, wq, bq, wk, bk, wv, bv], {"num_heads": num_heads}


def _add_bias_sampler(rng, dtype):
    shape = _shape(rng, ndim_lo=1, ndim_hi=3)
    x = _values(rng, shape, dtype)
    b = _values(rng, _broadcast_partner(rng, shape), dtype)
    return [x, b], {}


def _conv_run(x, w, b=None, *, stride, pad):
    return F.conv2d(x, w, b, stride=stride, pad=pad)


def _conv_ref(x, w, b=None, *, stride, pad):
    return _ref_conv2d(x, w, b, stride, pad)


OPS: dict[str, OpSpec] = {
    spec.name: spec
    for spec in [
        OpSpec("add", _binary_sampler(), lambda a, b: a + b, lambda a, b: a + b,
               diff_inputs=(0, 1)),
        OpSpec("sub", _binary_sampler(), lambda a, b: a - b, lambda a, b: a - b,
               diff_inputs=(0, 1)),
        OpSpec("mul", _binary_sampler(), lambda a, b: a * b, lambda a, b: a * b,
               diff_inputs=(0, 1)),
        OpSpec("div", _binary_sampler(away_from=0.0), lambda a, b: a / b,
               lambda a, b: a / b, diff_inputs=(0, 1)),
        OpSpec("neg", _unary_sampler(), lambda x: -x, lambda x: -x),
        OpSpec("exp", _unary_sampler(), Tensor.exp, np.exp),
        OpSpec("log", _unary_sampler(positive=True), Tensor.log, np.log),
        OpSpec("sqrt", _unary_sampler(positive=True), Tensor.sqrt, np.sqrt),
        OpSpec("tanh", _unary_sampler(), Tensor.tanh, np.tanh),
        OpSpec("sigmoid", _unary_sampler(), Tensor.sigmoid,
               lambda x: 1.0 / (1.0 + np.exp(-x))),
        OpSpec("erf", _unary_sampler(), Tensor.erf, _ref_erf),
        OpSpec("abs", _unary_sampler(kinks=(0.0,)), Tensor.abs, np.abs),
        OpSpec("relu", _unary_sampler(kinks=(0.0,)), Tensor.relu,
               lambda x: np.maximum(x, 0.0)),
        OpSpec("clip", _clip_sampler, Tensor.clip,
               lambda x, lo, hi: np.clip(x, lo, hi)),
        OpSpec("pad", _pad_sampler, Tensor.pad,
               lambda x, pad_width, value: np.pad(x, pad_width, constant_values=value)),
        OpSpec("concat", _join_sampler(stack=False),
               lambda *ts, axis: Tensor.concatenate(ts, axis=axis),
               lambda *xs, axis: np.concatenate(xs, axis=axis), diff_inputs=(0, 1, 2)),
        OpSpec("stack", _join_sampler(stack=True),
               lambda *ts, axis: Tensor.stack(ts, axis=axis),
               lambda *xs, axis: np.stack(xs, axis=axis), diff_inputs=(0, 1, 2)),
        OpSpec("maximum", _binary_sampler(), lambda a, b: a.maximum(b),
               lambda a, b: np.maximum(a, b), diff_inputs=()),
        OpSpec("matmul", _matmul_sampler, lambda a, b: a @ b,
               lambda a, b: a @ b, diff_inputs=(0, 1)),
        OpSpec("softmax", _axis_sampler, F.softmax, _ref_softmax),
        OpSpec("log_softmax", _axis_sampler, F.log_softmax, _ref_log_softmax),
        OpSpec("gelu", _unary_sampler(), F.gelu, _ref_gelu),
        OpSpec("silu", _unary_sampler(), F.silu, _ref_silu),
        OpSpec("layernorm", _layernorm_sampler, F.layernorm, _ref_layernorm,
               diff_inputs=(0, 1, 2), grad_atol=5e-3),
        OpSpec("softmax_xent", _xent_sampler, F.softmax_cross_entropy,
               _ref_softmax_xent),
        OpSpec("linear", _linear_sampler, F.linear, _ref_linear,
               diff_inputs=(0, 1, 2)),
        OpSpec("add_bias", _add_bias_sampler, F.add_bias,
               lambda a, b: a + b, diff_inputs=(0, 1)),
        OpSpec("sum", _reduce_sampler, Tensor.sum,
               lambda x, axis, keepdims: x.sum(axis=axis, keepdims=keepdims)),
        OpSpec("mean", _reduce_sampler, Tensor.mean,
               lambda x, axis, keepdims: x.mean(axis=axis, keepdims=keepdims)),
        OpSpec("max", _reduce_sampler, Tensor.max,
               lambda x, axis, keepdims: x.max(axis=axis, keepdims=keepdims),
               diff_inputs=()),
        OpSpec("conv2d", _conv_sampler, _conv_run, _conv_ref,
               diff_inputs=(0, 1, 2), fwd_atol=1e-4, grad_atol=5e-3),
        OpSpec("flash_attention", _flash_sampler, flash_attention,
               _ref_attention, diff_inputs=(0, 1, 2)),
        OpSpec("aggregate_variables", _aggregate_sampler, aggregate_variables,
               _ref_aggregate_variables, diff_inputs=tuple(range(10))),
        OpSpec("avg_pool2d", _pool_sampler, F.avg_pool2d, _ref_avg_pool2d),
        OpSpec("pixel_shuffle", _shuffle_sampler, F.pixel_shuffle,
               _ref_pixel_shuffle),
        OpSpec("pixel_unshuffle", _unshuffle_sampler, F.pixel_unshuffle,
               _ref_pixel_unshuffle),
        OpSpec("bilinear_upsample", _bilinear_sampler, F.bilinear_upsample,
               _ref_bilinear),
        OpSpec("dropout", _dropout_sampler,
               lambda x, p, seed: F.dropout(x, p, np.random.default_rng(seed)),
               lambda x, p, seed: _ref_dropout(x, p, seed),
               diff_inputs=()),
    ]
}

# max/maximum: subgradient at ties and mask-based backward are exact but
# finite differences straddle the kink, so only the forward is fuzzed;
# dropout's mask is likewise checked forward-only against a same-seed
# reference mask.


# --------------------------------------------------------------------- #
# the fuzz loop
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuzzFailure:
    """One forward or backward mismatch, reproducible from (seed, index)."""

    op: str
    sample_index: int
    seed: int
    kind: str                     # 'forward' | 'backward'
    dtype: str
    shapes: tuple[tuple[int, ...], ...]
    max_abs_err: float
    detail: str = ""

    def __str__(self) -> str:
        return (f"[{self.kind}] op={self.op} sample={self.sample_index} "
                f"seed={self.seed} dtype={self.dtype} shapes={self.shapes} "
                f"max_abs_err={self.max_abs_err:.3g} {self.detail}")


@dataclass
class FuzzReport:
    """Outcome of one fuzz sweep."""

    n_samples: int
    seed: int
    per_op: dict[str, int] = field(default_factory=dict)
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        ops = ", ".join(f"{k}×{v}" for k, v in sorted(self.per_op.items()))
        head = (f"fuzzed {self.n_samples} samples (seed={self.seed}): "
                f"{len(self.failures)} failure(s)\n  coverage: {ops}")
        if self.failures:
            head += "\n" + "\n".join(f"  {f}" for f in self.failures[:20])
        return head

    def raise_if_failed(self) -> None:
        if self.failures:
            raise AssertionError(self.summary())


def _scalarize(out: np.ndarray, weight: np.ndarray) -> float:
    return float(np.sum(out * weight))


def _check_sample(spec: OpSpec, index: int, seed: int, dtype: str,
                  rng: np.random.Generator, check_backward: bool,
                  max_grad_elems: int) -> list[FuzzFailure]:
    arrays, kwargs = spec.sample(rng, dtype)
    shapes = tuple(a.shape for a in arrays)
    failures: list[FuzzFailure] = []

    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = spec.run(*tensors, **kwargs)
    ref = np.asarray(
        spec.reference(*[a.astype(np.float64) for a in arrays], **kwargs)
    )

    if out.data.shape != ref.shape:
        return [FuzzFailure(spec.name, index, seed, "forward", dtype, shapes,
                            float("inf"),
                            f"shape {out.data.shape} != reference {ref.shape}")]
    err = np.abs(out.data.astype(np.float64) - ref)
    beyond = ~(err <= spec.fwd_atol + spec.fwd_rtol * np.abs(ref))  # NaN is beyond
    if np.any(beyond):
        failures.append(FuzzFailure(
            spec.name, index, seed, "forward", dtype, shapes,
            float(err.max()),
            f"{int(np.sum(beyond))} elements beyond "
            f"rtol={spec.fwd_rtol} atol={spec.fwd_atol}"))

    if not check_backward or not spec.diff_inputs:
        return failures
    diff = [i for i in spec.diff_inputs if i < len(arrays)]
    if not diff or sum(arrays[i].size for i in diff) > max_grad_elems:
        return failures

    weight = rng.standard_normal(out.data.shape).astype(np.float32)
    scalar = (out * Tensor(weight)).sum()
    scalar.backward()

    def f(*probe):
        full = list(probe)
        return _scalarize(
            np.asarray(spec.reference(*full, **kwargs)),
            weight.astype(np.float64))

    numeric = numerical_grad_multi(f, arrays, eps=1e-3, wrt=diff)
    for i in diff:
        analytic = tensors[i].grad
        if analytic is None:
            analytic = np.zeros_like(arrays[i])
        a64 = analytic.astype(np.float64)
        n64 = numeric[i]
        gerr = np.abs(a64 - n64)
        beyond = ~(gerr <= spec.grad_atol + spec.grad_rtol * np.abs(n64))
        if np.any(beyond):
            failures.append(FuzzFailure(
                spec.name, index, seed, "backward", dtype, shapes,
                float(gerr.max()),
                f"input {i}: {int(np.sum(beyond))} elements beyond "
                f"rtol={spec.grad_rtol} atol={spec.grad_atol}"))
    return failures


def fuzz_ops(n_samples: int = 200, seed: int = 0,
             ops: Sequence[str] | None = None, check_backward: bool = True,
             bf16_fraction: float = 0.2, max_grad_elems: int = 96) -> FuzzReport:
    """Run a seeded fuzz sweep over the op registry.

    Each sample draws its own generator from ``(seed, index)`` so any
    failure is reproducible in isolation.  ``bf16_fraction`` of samples
    snap their inputs to the bfloat16 grid (the engine still computes in
    float32 — what changes is the input lattice, which is exactly how the
    mixed-precision trainer feeds ops).  Inputs with more than
    ``max_grad_elems`` elements skip the (O(n) probe) backward check.
    """
    names = list(OPS) if ops is None else list(ops)
    unknown = set(names) - set(OPS)
    if unknown:
        raise ValueError(f"unknown ops {sorted(unknown)}; known: {sorted(OPS)}")
    report = FuzzReport(n_samples=n_samples, seed=seed)
    for i in range(n_samples):
        sample_seed = seed * 1_000_003 + i
        rng = np.random.default_rng(sample_seed)
        spec = OPS[names[int(rng.integers(0, len(names)))]]
        dtype = DTYPE_BF16 if rng.random() < bf16_fraction else DTYPE_F32
        report.per_op[spec.name] = report.per_op.get(spec.name, 0) + 1
        report.failures.extend(
            _check_sample(spec, i, sample_seed, dtype, rng,
                          check_backward, max_grad_elems))
    return report
