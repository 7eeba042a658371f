"""Failure-injection tests: the system must degrade loudly and recover.

Large-scale training's failure modes — gradient overflow storms, NaN
poisoning through collectives, corrupted checkpoints, degenerate data —
are injected deliberately and the guard rails (dynamic loss scaling,
strict state-dict loading, normalizer floors, validation errors) are
checked to respond correctly.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import ChannelNormalizer, DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, CompositeStrategy, VirtualCluster
from repro.nn import AdamW, GradScaler, Linear, Parameter, SGD, clip_grad_norm
from repro.tensor import Tensor
from repro.train import TrainConfig, Trainer, load_checkpoint, save_checkpoint

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


class TestOverflowRecovery:
    def test_scaler_survives_overflow_storm(self):
        """Ten consecutive overflowing steps: every step is skipped, the
        scale backs off geometrically, weights stay untouched, and a
        clean step afterwards trains normally."""
        p = Parameter(np.ones(4, dtype=np.float32))
        opt = SGD([p], lr=0.1)
        scaler = GradScaler(init_scale=2.0**16)
        for _ in range(10):
            p.grad = np.array([np.inf, 1, 2, 3], dtype=np.float32)
            assert not scaler.step(opt)
        assert scaler.num_overflows == 10
        assert scaler.scale_value == max(2.0**16 * 0.5**10, 1.0)
        np.testing.assert_array_equal(p.data, 1.0)
        # recovery
        p.grad = np.full(4, float(scaler.scale_value), dtype=np.float32)
        assert scaler.step(opt)
        np.testing.assert_allclose(p.data, 1.0 - 0.1, rtol=1e-6)

    def test_trainer_skips_bad_steps_and_continues(self):
        """A trainer whose loss occasionally explodes (injected) keeps
        finite weights thanks to the scaler's skip logic."""
        spec = DatasetSpec(name="f", fine_grid=Grid(16, 32), factor=4,
                           years=(2000,), samples_per_year=4, seed=5,
                           output_channels=(17, 18, 19))
        ds = DownscalingDataset(spec, years=(2000,))
        model = Reslim(TINY, 23, 3, factor=4, max_tokens=128,
                       rng=np.random.default_rng(0))
        trainer = Trainer(model, ds, TrainConfig(epochs=1, batch_size=2, bf16=True))

        # poison one parameter's gradient via a hook-like wrapper
        original_step = trainer.scaler.step
        calls = {"n": 0}

        def poisoned_step(opt):
            calls["n"] += 1
            if calls["n"] == 1:
                opt.params[0].grad = np.full_like(opt.params[0].grad, np.nan)
            return original_step(opt)

        trainer.scaler.step = poisoned_step
        trainer.fit()
        assert trainer.history.skipped_steps >= 1
        for p in model.parameters():
            assert np.all(np.isfinite(p.data))


class TestNaNPropagation:
    def test_nan_from_one_rank_is_detected_after_allreduce(self):
        """A single rank's NaN gradient poisons the averaged bucket on ALL
        ranks — exactly why the scaler's overflow check runs after the
        all-reduce; verify the detection fires everywhere."""
        def loss_fn(pred, target):
            d = pred - target
            return (d * d).mean()

        ddp = CompositeStrategy(CompositePlan(VirtualCluster(4), ddp=4), loss_fn)
        ddp.setup(lambda r: Linear(4, 2, rng=np.random.default_rng(0)))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 4)).astype(np.float32)
        y = rng.standard_normal((4, 2)).astype(np.float32)
        ddp.forward_backward(x, y)
        # inject NaN on rank 2 between backward and the reduction; the
        # reduction's per-step check passes only if every rank's reduced
        # gradient holds the same NaN bytes
        ddp._work_grads[(2, 0)][...] = np.nan
        ddp.reduce_gradients()
        assert GradScaler().found_overflow(ddp.model.parameters())

    def test_clip_grad_norm_reports_nonfinite(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        p.grad = np.array([np.inf, 1.0], dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert not np.isfinite(norm)
        # left as found: overflow checks see the inf, not inf * 0 = NaN
        np.testing.assert_array_equal(p.grad, [np.inf, 1.0])


class TestCorruptedState:
    def test_truncated_checkpoint_rejected(self, tmp_path):
        model = Reslim(TINY, 5, 2, factor=2, max_tokens=64,
                       rng=np.random.default_rng(0))
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        clone = Reslim(TINY, 5, 2, factor=2, max_tokens=64,
                       rng=np.random.default_rng(1))
        with pytest.raises(Exception):
            load_checkpoint(clone, path)

    def test_checkpoint_from_different_architecture_rejected(self, tmp_path):
        small = Reslim(TINY, 5, 2, factor=2, max_tokens=64)
        big = Reslim(ModelConfig("big", embed_dim=32, depth=1, num_heads=2),
                     5, 2, factor=2, max_tokens=64)
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(small, path)
        with pytest.raises((KeyError, ValueError)):
            load_checkpoint(big, path)

    def test_optimizer_on_mutated_parameter_set(self):
        """Adding parameters after optimizer construction must not
        silently train them (state arrays are bound at construction)."""
        lin = Linear(4, 4)
        opt = AdamW(lin.parameters(), lr=1e-3)
        extra = Parameter(np.ones(3, dtype=np.float32))
        extra.grad = np.ones(3, dtype=np.float32)
        opt.step()  # extra is not in opt.params
        np.testing.assert_array_equal(extra.data, 1.0)


class TestDegenerateData:
    def test_constant_channel_does_not_nan_training(self):
        """A dead (constant) input channel gets a unit-std floor in the
        normalizer; training stays finite."""
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        x[:, 1] = 5.0  # dead channel
        norm = ChannelNormalizer.fit(x)
        z = norm.normalize(x[0])
        assert np.all(np.isfinite(z))
        np.testing.assert_allclose(z[1], 0.0, atol=1e-5)

    def test_empty_and_mismatched_batches_rejected(self):
        strat = CompositeStrategy(CompositePlan(VirtualCluster(2), ddp=2),
                                  lambda pred, target: (pred - target).mean())
        strat.setup(lambda r: Linear(1, 1))
        with pytest.raises(ValueError, match="not divisible"):
            strat.forward_backward(np.zeros((3, 1), np.float32),
                                   np.zeros((3, 1), np.float32))

    def test_all_dry_precipitation_quantile_rmse_defined(self):
        from repro.evals import quantile_rmse
        t = np.zeros(100)
        p = np.full(100, 0.1)
        assert np.isfinite(quantile_rmse(p, t, 0.997))
