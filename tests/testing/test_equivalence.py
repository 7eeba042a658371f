"""The equivalence oracle's own machinery (the full strategy x world
matrix runs in tests/distributed/test_parallelisms.py)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Reslim
from repro.distributed import (
    HybridOpChain,
    PipelineParallel,
    TensorParallelMLP,
    UlyssesAttention,
)
from repro.tensor import Tensor, no_grad
from repro.testing import (
    EquivalenceFailure,
    EquivalenceReport,
    check_parallel_equivalence,
    oracle_config,
    warm_head,
)
from repro.testing.equivalence import Comparison, _compare

#: the engine each forward-only oracle row drives
_FORWARD_ENGINES = {
    "tp": TensorParallelMLP,
    "ulysses": UlyssesAttention,
    "hybrid_op": HybridOpChain,
    "pipeline": PipelineParallel,
}


class TestCompare:
    def test_bit_exact_detection(self):
        a = np.arange(4, dtype=np.float32)
        c = _compare("output", a, a.copy(), 1e-6, 1e-7, "ctx")
        assert c.bit_exact and c.max_abs_err == 0.0

    def test_within_tolerance_not_bit_exact(self):
        a = np.ones(4, dtype=np.float32)
        b = a + 1e-6
        c = _compare("output", b, a, 1e-4, 1e-5, "ctx")
        assert not c.bit_exact
        # 1 + 1e-6 lands on the nearest float32, ~9.5e-7 away
        assert c.max_abs_err == pytest.approx(1e-6, rel=0.1)

    def test_out_of_tolerance_raises_with_context(self):
        a = np.zeros(3, dtype=np.float32)
        b = np.array([0.0, 0.5, 0.0], dtype=np.float32)
        with pytest.raises(EquivalenceFailure, match="myctx.*diverged"):
            _compare("gradients", b, a, 1e-4, 1e-5, "myctx")

    def test_shape_mismatch_raises(self):
        with pytest.raises(EquivalenceFailure, match="shape"):
            _compare("output", np.zeros(3), np.zeros(4), 1e-4, 1e-5, "ctx")

    def test_nan_is_beyond_every_tolerance(self):
        """A NaN never compares greater than a bound; it must still fail."""
        with pytest.raises(EquivalenceFailure, match="1 elements beyond"):
            _compare("output", np.array([1.0, np.nan]), np.array([1.0, 2.0]),
                     1e-4, 1e-5, "ctx")


class TestReport:
    def test_report_accessors(self):
        r = EquivalenceReport("ddp", 2, [Comparison("output", 0.0, True),
                                         Comparison("gradients", 1e-7, False)])
        assert not r.bit_exact
        assert r.comparison("output").bit_exact
        with pytest.raises(KeyError):
            r.comparison("nope")
        assert "ddp@world=2" in r.summary()

    def test_unknown_strategy_and_bad_world(self):
        with pytest.raises(ValueError):
            check_parallel_equivalence("zzz", 2)
        with pytest.raises(ValueError):
            check_parallel_equivalence("ddp", 0)


class TestWarmHead:
    def test_only_a_warm_head_lets_an_oracle_see_the_encoder(self):
        """Reslim's decoder head is zero-initialised, so on a fresh model
        the attention kernel cannot move a single output bit; every
        bitwise oracle that means to cover the transformer warms the
        head first.  If this fails on the *fresh* side the blind spot is
        gone and ``warm_head`` can go too."""
        x = Tensor(np.random.default_rng(0).standard_normal(
            (2, 2, 8, 8)).astype(np.float32))

        def outputs(warm):
            outs = []
            for flash in (True, False):
                model = Reslim(replace(oracle_config(), use_flash=flash), 2, 1,
                               factor=2, max_tokens=64,
                               rng=np.random.default_rng(0))
                if warm:
                    warm_head(model, seed=1)
                with no_grad():
                    outs.append(model(x).data)
            return outs

        flash, naive = outputs(warm=False)
        assert np.array_equal(flash, naive)
        flash, naive = outputs(warm=True)
        assert not np.array_equal(flash, naive)
        np.testing.assert_allclose(flash, naive, rtol=1e-4, atol=1e-5)


class TestOracleConfig:
    def test_divisibility_for_all_worlds(self):
        """One config must serve every world size in {1, 2, 4, 8}."""
        cfg = oracle_config()
        hidden = int(cfg.mlp_ratio * cfg.embed_dim)
        for world in (1, 2, 4, 8):
            assert cfg.num_heads % world == 0
            assert hidden % world == 0

    @pytest.mark.parametrize("strategy", ["ddp", "fsdp", "tiles"])
    def test_oracle_catches_planted_gradient_bug(self, strategy, monkeypatch):
        """Corrupt unit 0's gradient after the reduction: the oracle must
        flag the divergence on every degenerate plan."""
        from repro.distributed import CompositeStrategy

        orig = CompositeStrategy.reduce_gradients

        def corrupted(self):
            orig(self)
            self.buffers()[0].grad += 0.1

        monkeypatch.setattr(CompositeStrategy, "reduce_gradients", corrupted)
        with pytest.raises(EquivalenceFailure):
            check_parallel_equivalence(strategy, 2)

    @pytest.mark.parametrize("strategy", sorted(_FORWARD_ENGINES))
    def test_oracle_catches_planted_forward_bug(self, strategy, monkeypatch):
        """Shift a forward-only engine's output by 1e-2: the oracle must
        flag it, so the row really compares the engine against its
        reference."""
        engine = _FORWARD_ENGINES[strategy]
        orig = engine.forward

        def shifted(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            if isinstance(out, list):  # Ulysses returns per-rank shards
                return [o + 1e-2 for o in out]
            return out + 1e-2

        monkeypatch.setattr(engine, "forward", shifted)
        with pytest.raises(EquivalenceFailure):
            check_parallel_equivalence(strategy, 2)
