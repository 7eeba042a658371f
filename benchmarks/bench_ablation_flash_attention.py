"""Ablation: flash (cache-blocked) attention vs naive attention.

Three claims from Sec. III-D pinned down:

* numerical equivalence — blocked online softmax is EXACT, not an
  approximation (values and gradients);
* memory — naive attention's working set grows quadratically with
  sequence length, flash linearly (the Table III OOM mechanism);
* block-size sensitivity — throughput varies with the tile edge, the
  knob the GPU kernel tunes to the SRAM size.
"""

import numpy as np
import pytest

from repro.nn import attention_peak_elems, flash_attention, naive_attention
from repro.tensor import Tensor

from benchmarks.common import write_table


def _qkv(L, d=32, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    mk = lambda: Tensor(rng.standard_normal((1, heads, L, d)).astype(np.float32))
    return mk(), mk(), mk()


def test_naive_attention_benchmark(benchmark):
    q, k, v = _qkv(256)
    benchmark(lambda: naive_attention(q, k, v))


def test_flash_attention_benchmark(benchmark):
    q, k, v = _qkv(256)
    benchmark(lambda: flash_attention(q, k, v, block_size=64))


@pytest.mark.parametrize("block", [16, 64, 256])
def test_flash_block_size_sweep(benchmark, block):
    q, k, v = _qkv(256)
    out = benchmark(lambda: flash_attention(q, k, v, block_size=block))
    ref = naive_attention(q, k, v)
    np.testing.assert_allclose(out.data, ref.data, rtol=1e-4, atol=1e-5)


def test_equivalence_and_memory_table(benchmark):
    rows = []
    for L in (64, 256, 1024, 4096, 16384):
        naive_elems = attention_peak_elems(L, 64, 128, flash=False)
        flash_elems = attention_peak_elems(L, 64, 128, flash=True)
        rows.append((L, naive_elems, flash_elems, naive_elems / flash_elems))
    q, k, v = _qkv(128)
    out_f = benchmark(lambda: flash_attention(q, k, v, block_size=32))
    out_n = naive_attention(q, k, v)
    max_err = float(np.abs(out_f.data - out_n.data).max())

    lines = [
        "Ablation: flash vs naive attention",
        f"max |flash - naive| at L=128: {max_err:.2e} (exact to fp32 rounding)",
        "-" * 60,
        f"{'seq len':>8s} {'naive elems':>12s} {'flash elems':>12s} {'ratio':>8s}",
    ]
    for L, ne, fe, ratio in rows:
        lines.append(f"{L:8d} {ne:12.3g} {fe:12.3g} {ratio:7.0f}x")
    write_table("ablation_flash_attention", lines)

    assert max_err < 1e-4
    ratios = [r[3] for r in rows]
    assert ratios == sorted(ratios)       # gap grows with L
    # quadratic vs linear; the flash side counts its O(L*d) GEMM operands,
    # which is why the gap opens only past L ~ 4 * (d + 1) = 260 here
    assert ratios[-1] > 30


def test_gradient_equivalence(benchmark):
    """Backward pass parity — flash training is exactly naive training."""
    L = 96
    rng = np.random.default_rng(3)
    data = [rng.standard_normal((1, 2, L, 16)).astype(np.float32) for _ in range(3)]
    w = rng.standard_normal((1, 2, L, 16)).astype(np.float32)

    def grads(impl, **kw):
        q, k, v = (Tensor(d.copy(), requires_grad=True) for d in data)
        (impl(q, k, v, **kw) * Tensor(w)).sum().backward()
        return q.grad, k.grad, v.grad

    gf = benchmark.pedantic(lambda: grads(flash_attention, block_size=32),
                            rounds=1, iterations=1)
    gn = grads(naive_attention)
    for a, b in zip(gf, gn):
        np.testing.assert_allclose(a, b, rtol=2e-3, atol=1e-4)
