"""Trainer, checkpointing, and profiler tests."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim, PAPER_CONFIGS
from repro.data import DatasetSpec, DownscalingDataset, Grid, datasets
from repro.distributed import transformer_flops
from repro.train import (
    TrainConfig,
    Trainer,
    load_checkpoint,
    measure_sample_flops,
    parameter_bytes,
    profile_model,
    save_checkpoint,
)

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _dataset(years=(2000,), seed=3, samples=2):
    spec = DatasetSpec(name="t", fine_grid=Grid(16, 32), factor=4, years=years,
                       samples_per_year=samples, seed=seed,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=years)


def _model(seed=0):
    return Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                  rng=np.random.default_rng(seed))


class TestTrainer:
    def test_loss_decreases_over_epochs(self):
        ds = _dataset(samples=3)
        trainer = Trainer(_model(), ds, TrainConfig(epochs=4, batch_size=3, lr=2e-3))
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

    def test_validation_tracked(self):
        train_ds, val_ds = _dataset(years=(2000,)), _dataset(years=(2001,))
        trainer = Trainer(_model(), train_ds, TrainConfig(epochs=2, batch_size=2),
                          val_dataset=val_ds)
        history = trainer.fit()
        assert len(history.val_loss) == 2
        assert all(np.isfinite(history.val_loss))

    def test_val_dataset_reuses_normalizer(self):
        train_ds, val_ds = _dataset(), _dataset(years=(2001,))
        trainer = Trainer(_model(), train_ds, TrainConfig(epochs=1))
        assert trainer.val_dataset is None
        trainer2 = Trainer(_model(), _dataset(), TrainConfig(epochs=1),
                           val_dataset=val_ds)
        assert val_ds.normalizer is trainer2.dataset.normalizer

    def test_grad_norms_recorded_and_finite(self):
        trainer = Trainer(_model(), _dataset(), TrainConfig(epochs=1, batch_size=2))
        trainer.fit()
        assert len(trainer.history.grad_norms) > 0
        assert all(np.isfinite(trainer.history.grad_norms))

    def test_bf16_training_runs(self):
        trainer = Trainer(_model(), _dataset(), TrainConfig(epochs=1, bf16=True))
        history = trainer.fit()
        assert np.isfinite(history.train_loss[0])

    def test_lr_schedule_applied(self):
        trainer = Trainer(_model(), _dataset(samples=4),
                          TrainConfig(epochs=1, batch_size=1, lr=1e-2, warmup_steps=2))
        trainer.train_epoch()
        # after warmup the lr must have moved off the warmup ramp start
        assert trainer.optimizer.lr != 1e-2 * 1 / 2

    def test_evaluate_no_grad_side_effects(self):
        trainer = Trainer(_model(), _dataset(), TrainConfig(epochs=1))
        loss = trainer.evaluate()
        assert np.isfinite(loss)
        assert all(p.grad is None for p in trainer.model.parameters())

    def test_resident_store_does_not_change_training(self, monkeypatch):
        """Losses and parameters are bitwise the same whether every sample
        is resident (default budget) or regenerated on every visit (0)."""
        def run():
            trainer = Trainer(_model(), _dataset(samples=3),
                              TrainConfig(epochs=1, batch_size=2, lr=2e-3))
            rng = np.random.default_rng(5)
            losses = [trainer.train_step(batch) for _ in range(3)
                      for batch in trainer.dataset.batches(2, shuffle=True, rng=rng)]
            return trainer, losses

        resident, losses = run()
        assert len(resident.dataset._resident) == len(resident.dataset)
        monkeypatch.setattr(datasets, "RESIDENT_BUDGET_BYTES", 0)
        regenerated, losses_regenerated = run()
        assert not regenerated.dataset._resident
        assert losses == losses_regenerated
        for p, q in zip(resident.model.parameters(),
                        regenerated.model.parameters(), strict=True):
            assert np.array_equal(p.data, q.data)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m1, m2 = _model(seed=1), _model(seed=2)
        path = tmp_path / "ckpt.pkl"
        save_checkpoint(m1, path, extra={"epoch": 3})
        extra = load_checkpoint(m2, path)
        assert extra["epoch"] == 3
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)


    def test_parent_kernel_epoch_checkpoint_loads_and_predicts(self):
        """``data/reslim_kernel_epoch3.ckpt`` was written by the commit
        before ``aggregate_variables`` (composed tokenizer → ``+ var_embed``
        → aggregator chain) together with an input and that commit's
        prediction: the keys, shapes and parameter count did not move, so
        it loads strictly and predicts the same field to float32 rounding."""
        from repro.tensor import Tensor, no_grad

        model = Reslim(ModelConfig("ckpt", embed_dim=16, depth=1, num_heads=2),
                       3, 2, factor=2, max_tokens=32, rng=np.random.default_rng(0))
        path = Path(__file__).parent / "data" / "reslim_kernel_epoch3.ckpt"
        extra = load_checkpoint(model, path)
        assert extra["kernel_epoch"] == 3
        model.eval()
        with no_grad():
            pred = model(Tensor(extra["input"])).data
        np.testing.assert_allclose(pred, extra["prediction"], rtol=1e-4, atol=1e-5)

    def test_front_end_keeps_its_state_dict_keys_and_count(self):
        """The ``train_single`` model: nine front-end parameters under the
        names checkpoints and flat layouts know, 241 997 in all."""
        model = Reslim(ModelConfig("e2e-single", embed_dim=64, depth=3, num_heads=8),
                       23, 3, factor=2, max_tokens=512, rng=np.random.default_rng(0))
        assert model.num_parameters() == 241_997
        front = [k for k in model.state_dict()
                 if k.startswith(("tokenizer.", "var_embed", "aggregator.attn.to_"))]
        assert front == ["var_embed", "tokenizer.proj.weight", "tokenizer.proj.bias"] + [
            f"aggregator.attn.to_{n}.{part}" for n in "qkv" for part in ("weight", "bias")]


class TestProfiler:
    def test_flops_scale_with_input(self):
        m = _model()
        small = measure_sample_flops(m, (1, 23, 8, 16), training=False)
        large = measure_sample_flops(m, (1, 23, 16, 32), training=False)
        assert large > 2 * small

    def test_training_flops_exceed_forward(self):
        m = _model()
        fwd = measure_sample_flops(m, (1, 23, 8, 16), training=False)
        train = measure_sample_flops(m, (1, 23, 8, 16), training=True)
        assert 2 * fwd < train < 4 * fwd

    def test_measured_matches_analytic_transformer(self):
        """The measured encoder FLOPs validate the perf model's formula."""
        from repro.nn import TransformerEncoder
        from repro.tensor import FlopCounter, Tensor

        cfg = ModelConfig("t", embed_dim=32, depth=2, num_heads=4)
        enc = TransformerEncoder(cfg.embed_dim, cfg.depth, cfg.num_heads, max_len=128,
                                 rng=np.random.default_rng(0))
        L = 64
        x = Tensor(np.random.default_rng(1).standard_normal((1, L, 32)).astype(np.float32))
        with FlopCounter() as forward:
            out = enc(x)
        with FlopCounter() as backward:
            (out * out).mean().backward()
        assert forward.total == transformer_flops(L, cfg, training=False)
        # the counter bills executed FLOPs: flash's backward recomputes
        # QKᵀ, half the attention term, which the model-FLOP form omits
        recompute = 2.0 * L * L * cfg.embed_dim * cfg.depth
        assert forward.total + backward.total \
            == transformer_flops(L, cfg, training=True) + recompute

    def test_parameter_bytes(self):
        m = _model()
        assert parameter_bytes(m, training=True) == 14 * m.num_parameters()
        assert parameter_bytes(m, training=False) == 4 * m.num_parameters()

    def test_profile_model_keys(self):
        prof = profile_model(_model(), (1, 23, 8, 16))
        assert set(prof) == {"parameters", "flops_forward", "flops_train",
                             "train_state_bytes"}
        assert prof["flops_train"] > prof["flops_forward"]

    def test_flop_counter_nesting_and_isolation(self):
        from repro.tensor import FlopCounter, Tensor
        a = Tensor(np.ones((4, 4), dtype=np.float32))
        with FlopCounter() as outer:
            _ = a @ a
            with FlopCounter() as inner:
                _ = a @ a
        assert inner.total == 2 * 4 * 4 * 4
        assert outer.total == inner.total  # outer paused while inner active
        # no counting outside any context
        _ = a @ a
        assert outer.total == inner.total
