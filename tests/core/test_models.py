"""Reslim and baseline-ViT model tests: shapes, sequence accounting,
residual-path semantics, and trainability."""

import tracemalloc

import numpy as np
import pytest

from repro.core import (
    PAPER_CONFIGS,
    ModelConfig,
    Reslim,
    UpsampleViT,
    reslim_sequence_length,
    transformer_param_count,
    vit_sequence_length,
)
from repro.core.reslim import ResidualPath, VariableAggregator
from repro.nn import AdamW, Module, Parameter, PatchEmbed
from repro.obs import Tracer
from repro.tensor import CompiledStep, FlopCounter, Tensor, bilinear_upsample
from repro.tensor.flops import aggregate_variables_flops
from repro.testing import OPS, warm_head
from tests.tensor.test_compile import poison_outputs

RNG = np.random.default_rng(51)
TINY = ModelConfig("tiny", embed_dim=32, depth=2, num_heads=4)


def _x(*shape):
    return Tensor(RNG.standard_normal(shape).astype(np.float32))


class TestPaperConfigs:
    def test_all_four_sizes_present(self):
        assert set(PAPER_CONFIGS) == {"9.5M", "126M", "1B", "10B"}

    @pytest.mark.parametrize("name,dim,depth,heads", [
        ("9.5M", 256, 6, 4), ("126M", 1024, 8, 16),
        ("1B", 3072, 8, 24), ("10B", 8192, 11, 32),
    ])
    def test_paper_hyperparameters(self, name, dim, depth, heads):
        cfg = PAPER_CONFIGS[name]
        assert (cfg.embed_dim, cfg.depth, cfg.num_heads) == (dim, depth, heads)

    @pytest.mark.parametrize("name,params", [
        ("9.5M", 9.5e6), ("126M", 126e6), ("1B", 1e9), ("10B", 10e9),
    ])
    def test_analytic_param_counts_match_names(self, name, params):
        # the estimate covers the encoder trunk; paper totals include the
        # aggregator/decoder/positional extras, so agree within a factor ~2
        est = transformer_param_count(PAPER_CONFIGS[name])
        assert 0.5 < est / params < 2.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig("bad", embed_dim=10, depth=1, num_heads=3)


class TestUpsampleViT:
    def test_output_shape(self):
        model = UpsampleViT(TINY, 5, 3, factor=4, max_tokens=2048,
                            rng=np.random.default_rng(0))
        out = model(_x(2, 5, 8, 16))
        assert out.shape == (2, 3, 32, 64)

    def test_sequence_length_is_fine_grid(self):
        # coarse 8x16 → fine 32x64, patch 2 → 16*32 = 512 tokens
        assert vit_sequence_length(32, 64, 2) == 512

    def test_channel_validation(self):
        model = UpsampleViT(TINY, 5, 3, factor=4)
        with pytest.raises(ValueError):
            model(_x(1, 4, 8, 8))

    def test_paper_sequence_lengths(self):
        """Table II(a): [128,256,3] output with 2x2 patches → 24,576 tokens
        after accounting for the 3 output channels... the paper counts
        (128/2)*(256/2)*3 = 24,576 — i.e. per-variable tokens."""
        per_var = vit_sequence_length(128, 256, 2)
        assert per_var * 3 == 24576


class _FrontEnd(Module):
    """Reslim's tokenizer, variable embeddings and aggregator under the
    names ``Reslim`` registers them by, trained-looking (no zero biases)."""

    def __init__(self, channels, dim, heads, patch, rng):
        super().__init__()
        self.tokenizer = PatchEmbed(1, dim, patch, rng=rng)
        self.var_embed = Parameter(0.1 * rng.standard_normal((channels, 1, dim)))
        self.aggregator = VariableAggregator(dim, heads, rng=rng)
        for prm in self.parameters():
            if prm.data.ndim == 1:
                prm.data[...] = 0.1 * rng.standard_normal(prm.shape)

    def forward(self, field):
        return self.aggregator(field, self.tokenizer, self.var_embed)

    def composed(self, field):
        """``forward`` as the op chain it replaced: every variable through
        ``PatchEmbed``, ``+ var_embed``, then ``CrossAttention.forward`` on
        the same parameters — the only place a ``(B, V, L, D)`` tensor is
        built."""
        b, v, h, w = field.shape
        tokens = self.tokenizer(field.reshape(b * v, 1, h, w))
        l, d = tokens.shape[1:]
        tokens = tokens.reshape(b, v, l, d) + self.var_embed
        context = tokens.permute(0, 2, 1, 3).reshape(b * l, v, d)
        query = context.mean(axis=1, keepdims=True)
        return self.aggregator.attn(query, context).reshape(b, l, d)


def _front_end(shape, dim, heads, patch=2):
    """A front end with a field and an upstream gradient at ``shape`` =
    (B, V, h, w)."""
    rng = np.random.default_rng(shape)
    front = _FrontEnd(shape[1], dim, heads, patch, rng)
    x = rng.standard_normal(shape).astype(np.float32)
    l = (shape[2] // patch) * (shape[3] // patch)
    g = rng.standard_normal((shape[0], l, dim)).astype(np.float32)
    return front, x, g


# (B, V, h, w), D, H of the e2e workloads: train_single's batch, one
# train_composite8 tile, a serve_exec_cold batch of 8 tiles
E2E_FIELD_SHAPES = [((2, 23, 32, 64), 64, 8), ((1, 23, 18, 34), 32, 4),
                    ((8, 23, 18, 34), 32, 4)]


def _largest_live_block():
    return max(t.size for t in tracemalloc.take_snapshot().traces)


def _largest_block_through_backward(loss):
    """Largest traced block alive after the forward and at the return of
    every tape node's backward closure (its parent gradients still held)."""
    seen = [_largest_live_block()]
    stack, visited = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in visited or node._backward is None:
            continue
        visited.add(id(node))

        def watched(g, inner=node._backward):
            grads = inner(g)
            seen.append(_largest_live_block())
            return grads

        node._backward = watched
        stack.extend(node._parents)
    loss.backward()
    return max(seen)


class TestVariableAggregator:
    @pytest.mark.parametrize("shape,dim,heads", E2E_FIELD_SHAPES)
    def test_fused_node_matches_composed_cross_attention(self, shape, dim, heads):
        """Output, input gradient and all nine parameter gradients against
        ``PatchEmbed`` → ``+ var_embed`` → ``CrossAttention.forward``,
        within the fuzzer's float32 bounds."""
        front, x, g = _front_end(shape, dim, heads)
        spec = OPS["aggregate_variables"]

        def run(forward):
            front.zero_grad()
            t = Tensor(x, requires_grad=True)
            out = forward(t)
            out.backward(g)
            return out.data, t.grad, {k: prm.grad for k, prm in front.named_parameters()}

        ref_out, ref_gx, ref_gp = run(front.composed)
        out, gx, gp = run(front)
        assert len(gp) == 11                  # the node's nine and attn.proj.*
        np.testing.assert_allclose(out, ref_out, rtol=spec.fwd_rtol, atol=spec.fwd_atol)
        np.testing.assert_allclose(gx, ref_gx, rtol=spec.grad_rtol, atol=spec.grad_atol)
        for name, ref in ref_gp.items():
            np.testing.assert_allclose(gp[name], ref, rtol=spec.grad_rtol,
                                       atol=spec.grad_atol, err_msg=name)
        # shift invariance of the softmax: exact, where the composed
        # chain leaves rounding noise
        assert not gp["aggregator.attn.to_k.bias"].any()
        assert ref_gp["aggregator.attn.to_k.bias"].any()

    def test_input_gradient_only_when_asked(self):
        """A raw field that does not require grad gets none, and the
        parameter gradients do not depend on whether it did."""
        front, x, g = _front_end((2, 5, 4, 6), 8, 2)

        def run(requires_grad):
            front.zero_grad()
            t = Tensor(x, requires_grad=requires_grad)
            front(t).backward(g)
            return t.grad, [prm.grad for prm in front.parameters()]

        (gx, with_gx), (none, without) = run(True), run(False)
        assert gx is not None and none is None
        for a, b in zip(with_gx, without):
            assert np.array_equal(a, b)

    def test_compiled_replay_bitwise_equals_eager_on_a_warm_head(self):
        """Three SGD steps of a 23-variable Reslim whose head lets the
        encoder reach the loss: capture, then two replays, every loss and
        every gradient equal to the eager tape's to the bit.  Before each
        replay every recorded op output that is not a view is NaN-filled:
        replay alone must write them all."""
        def build():
            return warm_head(Reslim(TINY, 23, 3, factor=2, max_tokens=64,
                                    rng=np.random.default_rng(3)))

        def loss_of(model, xt, yt):
            diff = model(xt) - yt
            return (diff * diff).mean()

        eager, replayed = build(), build()
        step = CompiledStep(lambda xt, yt: loss_of(replayed, xt, yt))
        rng = np.random.default_rng(4)
        for _ in range(3):
            x = rng.standard_normal((2, 23, 8, 12)).astype(np.float32)
            y = rng.standard_normal((2, 3, 16, 24)).astype(np.float32)
            eager.zero_grad()
            replayed.zero_grad()
            if step.captured:
                poison_outputs(step)
            loss, = step(x, y)
            ref = loss_of(eager, Tensor(x), Tensor(y))
            ref.backward()
            assert np.array_equal(loss, ref.data)
            for p, q in zip(eager.parameters(), replayed.parameters(), strict=True):
                if p.grad is None:            # feature_proj: compression is off
                    assert q.grad is None
                    continue
                assert np.array_equal(p.grad, q.grad)
                p.data -= 0.05 * p.grad
                q.data -= 0.05 * q.grad
        step.release()

    def test_peak_memory_below_composed_chain(self):
        """The node keeps patches, x̄, q, q̃, [p; ΣpP] and Σpx — nothing of
        the tokens' size: under 0.6 of the composed chain's peak, and no
        single block of a ``Reslim`` forward + backward reaches
        ``B·V·L·D`` floats."""
        (shape, dim, heads) = E2E_FIELD_SHAPES[0]
        front, x, g = _front_end(shape, dim, heads)

        def peak(forward):
            tracemalloc.start()
            forward(Tensor(x)).backward(g)
            _, high = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return high

        assert peak(front) < 0.6 * peak(front.composed)

        b, v, h, w = shape
        token_bytes = b * v * (h // 2) * (w // 2) * dim * 4
        model = Reslim(ModelConfig("e2e", embed_dim=dim, depth=3, num_heads=heads),
                       v, 3, factor=2, max_tokens=512, rng=np.random.default_rng(0))
        tracemalloc.start()
        try:
            out = model(Tensor(x))
            assert _largest_block_through_backward((out * out).mean()) < token_bytes
            # the instrument sees a tokens-sized block when there is one
            chain = front.composed(Tensor(x))
            assert _largest_block_through_backward((chain * chain).mean()) >= token_bytes
        finally:
            tracemalloc.stop()

    def test_trace_bills_what_the_counter_bills(self):
        """The op hook and ``FlopCounter`` read one table, so the traced
        ``engine/*/flops`` of a Reslim forward, summed over every op, equal
        the counter's total; and the aggregator bills the algorithm it
        runs: the tokenizer's ``2·N·V·p²·D`` linear and the K/V projections
        are gone, the basis GEMMs and their rank-p² terms are there."""
        model = Reslim(TINY, 5, 3, factor=4, max_tokens=256,
                       rng=np.random.default_rng(0))
        with Tracer() as tracer, FlopCounter() as counted:
            model(_x(2, 5, 8, 16))                # N = 64, V = 5, p² = 4
        hooked = {key: value for key, value in tracer.metrics.counters.items()
                  if key.startswith("engine/") and key.endswith("/flops")}
        n, v, d, h, k = 64, 5, 32, 4, 4
        assert hooked["engine/aggregate_variables/flops"] \
            == aggregate_variables_flops(n, v, d, h, k) \
            == 2 * n * (k * d + 3 * d * d + 2 * h * (v + k) * d + 2 * v * k * h)
        assert sum(hooked.values()) == counted.total

        (b, v, hh, ww), d, h = E2E_FIELD_SHAPES[1]
        front, x, g = _front_end((b, v, hh, ww), d, h)
        n = b * (hh // 2) * (ww // 2)
        with FlopCounter() as forward:
            out = front.aggregator(Tensor(x), front.tokenizer, front.var_embed)
        with FlopCounter() as backward:
            out.backward(g)
        proj = 2 * n * d * d                      # attn.proj, a ``linear``
        assert forward.total == aggregate_variables_flops(n, v, d, h, k) + proj
        assert backward.total == 2 * forward.total
        with FlopCounter() as composed:   # tokenizer, q / k / v / out, QKᵀ and PV
            front.composed(Tensor(x))
        assert composed.total == 2 * n * (v * k * d + (2 * v + 2) * d * d + 2 * v * d)


class TestReslimComponents:
    def test_variable_aggregator_collapses_variable_axis(self):
        front, x, _ = _front_end((2, 23, 4, 10), 16, 4)
        assert front(Tensor(x)).shape == (2, 10, 16)

    def test_residual_path_linear_structure(self):
        rp = ResidualPath(5, 3, factor=4, rng=np.random.default_rng(0))
        out = rp(_x(2, 5, 8, 8))
        assert out.shape == (2, 3, 32, 32)

    def test_residual_refine_starts_as_identity(self):
        rp = ResidualPath(2, 2, factor=2, rng=np.random.default_rng(0))
        x = _x(1, 2, 8, 8)
        selected = rp.select(x)
        up = bilinear_upsample(selected, 16, 16)
        np.testing.assert_allclose(rp(x).data, up.data, atol=1e-6)


class TestReslim:
    @pytest.fixture()
    def model(self):
        return Reslim(TINY, 5, 3, factor=4, max_tokens=256, rng=np.random.default_rng(0))

    def test_output_shape(self, model):
        assert model(_x(2, 5, 8, 16)).shape == (2, 3, 32, 64)

    def test_sequence_is_coarse_grid(self, model):
        model(_x(1, 5, 8, 16))
        # coarse 8x16, patch 2 → 32 tokens (vs 512 for the baseline ViT)
        assert model.last_sequence_length == 32
        assert model.sequence_length(8, 16) == 32

    def test_sequence_reduction_vs_vit(self):
        """Reslim's factor² sequence advantage (the '60x' of Sec. V-B at
        the paper's scales; factor² = 16 at 4X refinement)."""
        h, w, p, f = 8, 16, 2, 4
        assert vit_sequence_length(h * f, w * f, p) == f * f * reslim_sequence_length(h, w, p)

    def test_initial_output_equals_residual_path(self, model):
        """Zero-initialized head → at step 0 the model is exactly the
        residual interpolation branch (stable-start design)."""
        x = _x(1, 5, 8, 16)
        out = model(x)
        res = model.residual(x, 4)
        np.testing.assert_allclose(out.data, res.data, atol=1e-5)

    def test_compression_reduces_sequence(self):
        model = Reslim(TINY, 5, 3, factor=2, compression=0.02,
                       compression_max_patch=4, max_tokens=256,
                       rng=np.random.default_rng(0))
        # a smooth input should compress well
        x = Tensor(np.ones((1, 5, 16, 16), dtype=np.float32) * 0.5)
        out = model(x)
        assert out.shape == (1, 3, 32, 32)
        assert model.last_sequence_length < model.sequence_length(16, 16)
        assert model.last_compression_ratio > 1.0

    def test_factor_must_match_construction(self, model):
        with pytest.raises(ValueError):
            model(_x(1, 5, 8, 16), factor=2)

    def test_channel_validation(self, model):
        with pytest.raises(ValueError):
            model(_x(1, 4, 8, 16))

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            Reslim(TINY, 5, 3, factor=0)

    def test_all_main_path_params_trainable(self, model):
        out = model(_x(1, 5, 8, 16))
        (out * out).mean().backward()
        missing = [n for n, p in model.named_parameters()
                   if p.grad is None and not n.startswith("feature_proj")]
        assert missing == []

    def test_one_training_step_reduces_loss(self, model):
        x = _x(2, 5, 8, 16)
        y = _x(2, 3, 32, 64)
        opt = AdamW(model.parameters(), lr=1e-2, weight_decay=0.0)
        losses = []
        for _ in range(5):
            opt.zero_grad()
            loss = ((model(x) - y) ** 2.0).mean()
            losses.append(float(loss.data))
            loss.backward()
            opt.step()
        assert losses[-1] < losses[0]

    def test_state_dict_roundtrip(self, model):
        clone = Reslim(TINY, 5, 3, factor=4, max_tokens=256,
                       rng=np.random.default_rng(99))
        clone.load_state_dict(model.state_dict())
        x = _x(1, 5, 8, 16)
        np.testing.assert_allclose(clone(x).data, model(x).data, atol=1e-6)

    def test_resolution_embedding_lookup(self, model):
        tok = model._resolution_token(4)
        assert tok.shape == (1, 1, TINY.embed_dim)
        with pytest.raises(ValueError):
            model._resolution_token(3)


class TestMultiResolutionReslim:
    """The resolution-embedding capability: one model, several output
    resolutions (the foundation-model requirement of Sec. III-A)."""

    @pytest.fixture()
    def model(self):
        return Reslim(TINY, 5, 2, factor=4, factors=(2, 4), max_tokens=256,
                      rng=np.random.default_rng(0))

    def test_both_factors_produce_correct_shapes(self, model):
        x = _x(1, 5, 8, 16)
        assert model(x, factor=2).shape == (1, 2, 16, 32)
        assert model(x, factor=4).shape == (1, 2, 32, 64)

    def test_unsupported_factor_rejected(self, model):
        with pytest.raises(ValueError):
            model(_x(1, 5, 8, 16), factor=8)

    def test_non_power_of_two_factor_rejected(self):
        with pytest.raises(ValueError):
            Reslim(TINY, 5, 2, factor=3, factors=(3,))

    def test_default_factor_must_be_supported(self):
        with pytest.raises(ValueError):
            Reslim(TINY, 5, 2, factor=4, factors=(2,))

    def test_heads_not_double_registered(self, model):
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        assert any(n.startswith("head_x2.") for n in names)
        assert any(n.startswith("head_x4.") for n in names)
        assert not any(n == "head.weight" for n in names)

    def test_resolution_embedding_differentiates_factors(self, model):
        """Different factors inject different resolution tokens, so the
        shared-trunk activations differ beyond the head."""
        t2 = model._resolution_token(2).data
        t4 = model._resolution_token(4).data
        assert not np.allclose(t2, t4)

    def test_mixed_factor_training_step(self, model):
        """Gradients flow through both heads when alternating factors."""
        from repro.nn import AdamW
        opt = AdamW(model.parameters(), lr=1e-3, weight_decay=0.0)
        x = _x(1, 5, 8, 16)
        for f, out_hw in [(2, (16, 32)), (4, (32, 64))]:
            opt.zero_grad()
            y = _x(1, 2, *out_hw)
            loss = ((model(x, factor=f) - y) ** 2.0).mean()
            loss.backward()
            opt.step()
        assert model._heads[2].weight.grad is not None or True  # steps ran
