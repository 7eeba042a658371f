"""Autograd instrumentation: FLOP accounting vs the analytic perf model,
and proof that tracing never changes the recorded graph."""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.distributed import transformer_flops
from repro.nn.transformer import TransformerBlock
from repro.obs import Tracer
from repro.tensor import Tensor, graph_counters, reset_graph_counters
from repro.tensor.flops import price


def _encoder_forward(L=64, d=32, heads=4, depth=2, seed=0):
    rng = np.random.default_rng(seed)
    blocks = [TransformerBlock(d, heads, rng=rng) for _ in range(depth)]
    x = Tensor(rng.standard_normal((1, L, d)).astype(np.float32))
    tracer = Tracer()
    with tracer:
        h = x
        for blk in blocks:
            h = blk(h)
    return tracer, ModelConfig("t", embed_dim=d, depth=depth, num_heads=heads)


class TestFlopAccounting:
    """Satellite check: traced per-op FLOP totals match the perf model's
    analytic transformer accounting within 1%."""

    def test_linear_flops_match_projection_term(self):
        L = 64
        tracer, cfg = _encoder_forward(L=L)
        traced = tracer.metrics.counters["engine/linear/flops"]
        # proj term of transformer_flops: total minus attention-free limit
        analytic_proj = transformer_flops(L, cfg, training=False,
                                          attention_divisor=np.inf)
        assert analytic_proj == 24.0 * L * cfg.embed_dim ** 2 * cfg.depth
        assert traced == pytest.approx(analytic_proj, rel=0.01)

    def test_flash_attention_flops_match_quadratic_term(self):
        L = 64
        tracer, cfg = _encoder_forward(L=L)
        traced = tracer.metrics.counters["engine/flash_attention/flops"]
        analytic_attn = (transformer_flops(L, cfg, training=False)
                         - transformer_flops(L, cfg, training=False,
                                             attention_divisor=np.inf))
        assert analytic_attn == 4.0 * L * L * cfg.embed_dim * cfg.depth
        assert traced == pytest.approx(analytic_attn, rel=0.01)

    def test_node_counts_recorded_per_op(self):
        tracer, cfg = _encoder_forward()
        m = tracer.metrics.counters
        # one fused qkv + one out-proj + two MLP linears per block
        assert m["engine/linear/nodes"] == 4 * cfg.depth
        assert m["engine/flash_attention/nodes"] == cfg.depth

    def test_unknown_op_prices_zero(self):
        data = np.zeros((2, 3), dtype=np.float32)
        assert price("reshape").forward(data, (data,)) == 0.0
        assert price("reshape").backward(data, (data,)) == 0.0


class TestGraphNeutrality:
    """Tracing must observe the tape, never alter it: node/copy counters
    for a small Reslim step are identical with and without a tracer."""

    @staticmethod
    def _step(model, x, y):
        reset_graph_counters()
        pred = model(Tensor(x))
        diff = pred - Tensor(y)
        loss = (diff * diff).mean()
        loss.backward()
        return graph_counters()

    def test_counters_stable_under_tracing(self):
        cfg = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=4)
        model = Reslim(cfg, 2, 1, factor=2, max_tokens=256,
                       rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 16, 16)).astype(np.float32)
        y = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)

        self._step(model, x, y)  # warm-up: allocate grad buffers
        untraced = self._step(model, x, y)
        with Tracer() as tracer:
            traced = self._step(model, x, y)
        assert traced == untraced
        assert traced["nodes"] > 0
        # and the tracer saw exactly the recorded nodes
        hook_nodes = sum(v for k, v in tracer.metrics.counters.items()
                         if k.startswith("engine/") and k.endswith("/nodes"))
        assert hook_nodes == traced["nodes"]

    def test_hook_uninstalled_after_exit(self):
        with Tracer() as tracer:
            pass
        before = dict(tracer.metrics.counters)
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        (a * a).sum().backward()
        assert tracer.metrics.counters == before
