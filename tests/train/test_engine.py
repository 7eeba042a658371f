"""DistributedEngine: Trainer machinery running the composite stack."""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, VirtualCluster
from repro.train import DistributedEngine, TrainConfig, Trainer, mse_loss

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _dataset(years=(2000,), seed=3, samples=4):
    spec = DatasetSpec(name="eng", fine_grid=Grid(16, 32), factor=4,
                       years=years, samples_per_year=samples, seed=seed,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=years)


def _factory(seed=0, factor=4):
    def make(unit_index=0):
        return Reslim(TINY, 23, 3, factor=factor, max_tokens=64,
                      rng=np.random.default_rng(seed))
    return make


class TestDistributedEngine:
    def test_world1_bit_identical_to_trainer(self):
        """The trivial plan degenerates to single-process training exactly."""
        config = TrainConfig(epochs=3, batch_size=1, lr=2e-3, seed=7)
        plan = CompositePlan(VirtualCluster(1))
        engine = DistributedEngine(_factory(seed=5), _dataset(), config, plan,
                                   halo=2, factor=4)
        eng_history = engine.fit()

        trainer = Trainer(_factory(seed=5)(), _dataset(), config)
        trainer.loss_fn = mse_loss  # match the engine's per-tile objective
        ref_history = trainer.fit()

        assert eng_history.train_loss == ref_history.train_loss
        for p_eng, p_ref in zip(engine.model.parameters(),
                                trainer.model.parameters()):
            np.testing.assert_array_equal(p_eng.data, p_ref.data)

    def test_composite_training_learns_and_stays_synchronized(self):
        config = TrainConfig(epochs=3, batch_size=2, lr=2e-3, seed=1)
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)
        engine = DistributedEngine(_factory(seed=2), _dataset(), config, plan,
                                   halo=2, factor=4)
        history = engine.fit()
        assert history.train_loss[-1] < history.train_loss[0]
        engine.assert_synchronized(atol=0.0)

        summary = engine.communication_summary()
        assert summary["steps"] > 0
        for level in ("fsdp", "tiles", "ddp"):
            assert summary[f"{level}_level_bytes"] > 0
        engine.reset_comm()
        assert engine.communication_summary()["steps"] == 0

    def test_evaluate_uses_tiled_forward(self):
        config = TrainConfig(epochs=1, batch_size=2, lr=2e-3, seed=1)
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        engine = DistributedEngine(_factory(seed=2), _dataset(), config, plan,
                                   halo=2, factor=4,
                                   val_dataset=_dataset(years=(2001,)))
        history = engine.fit()
        assert np.isfinite(history.val_loss[0])

    def test_batch_size_must_match_ddp_ways(self):
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)
        with pytest.raises(ValueError, match="batch_size"):
            DistributedEngine(_factory(), _dataset(),
                              TrainConfig(epochs=1, batch_size=4), plan)

    def test_dataset_must_divide_into_batches(self):
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        with pytest.raises(ValueError, match="does not divide"):
            DistributedEngine(_factory(), _dataset(samples=3),
                              TrainConfig(epochs=1, batch_size=2), plan)

    def test_bf16_amp_path_runs(self):
        config = TrainConfig(epochs=1, batch_size=2, lr=2e-3, seed=1, bf16=True)
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        engine = DistributedEngine(_factory(seed=2), _dataset(), config, plan,
                                   halo=2, factor=4)
        history = engine.fit()
        assert np.isfinite(history.train_loss[0])
        engine.assert_synchronized(atol=0.0)

    def test_optimizers_share_strategy_flat_buffers(self):
        """No re-flattening on the hot path: the AdamW gradient view IS the
        strategy's collective buffer."""
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        engine = DistributedEngine(_factory(seed=2), _dataset(),
                                   TrainConfig(epochs=1, batch_size=2), plan,
                                   halo=2, factor=4)
        for opt, buf in zip(engine._optimizers(), engine.strategy.buffers()):
            assert opt.flat is buf
            assert np.shares_memory(opt.flat.grad, buf.grad)


class TestLatitudeTileLoss:
    def test_world1_bit_identical_to_trainer_bayesian_data_term(self):
        """latitude_loss=True on the trivial plan reproduces the Trainer's
        full-grid latitude-weighted MSE (tv_weight=0) bit for bit."""
        config = TrainConfig(epochs=3, batch_size=1, lr=2e-3, seed=7,
                             tv_weight=0.0)
        plan = CompositePlan(VirtualCluster(1))
        engine = DistributedEngine(_factory(seed=5), _dataset(), config, plan,
                                   halo=2, factor=4, latitude_loss=True)
        eng_history = engine.fit()

        trainer = Trainer(_factory(seed=5)(), _dataset(), config)
        ref_history = trainer.fit()  # Trainer default IS the Bayesian loss

        assert eng_history.train_loss == ref_history.train_loss
        for p_eng, p_ref in zip(engine.model.parameters(),
                                trainer.model.parameters()):
            np.testing.assert_array_equal(p_eng.data, p_ref.data)

    def test_world4_tile_losses_decompose_to_full_grid_loss(self):
        """Oracle at world=4: the mean of the per-tile latitude-weighted
        losses equals the full-grid latitude-weighted MSE of the stitched
        prediction — the tiles slice the global weight matrix, they do
        not re-normalize."""
        from repro.core import LatitudeTileLoss, latitude_weighted_mse
        from repro.data.grids import latitude_weights
        from repro.distributed import CompositeStrategy
        from repro.tensor import Tensor

        spec = _dataset().spec
        w = latitude_weights(spec.fine_grid)
        loss = LatitudeTileLoss(w, factor=spec.factor)
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        strategy = CompositeStrategy(plan, loss, halo=2, factor=spec.factor)
        strategy.setup(lambda u: _factory(seed=5)())

        rng = np.random.default_rng(0)
        coarse = spec.fine_grid.n_lat // spec.factor, spec.fine_grid.n_lon // spec.factor
        x = rng.standard_normal((2, 23, *coarse)).astype(np.float32)
        y = rng.standard_normal(
            (2, 3, spec.fine_grid.n_lat, spec.fine_grid.n_lon)).astype(np.float32)
        losses = strategy.forward_backward(x, y)
        strategy.reduce_gradients()
        pred = strategy.forward(x)

        tiles = plan.tiles
        assert len(losses) == 2 * tiles
        for d in range(2):
            per_tile = losses[d * tiles:(d + 1) * tiles]
            full = float(latitude_weighted_mse(
                Tensor(pred[d:d + 1]), Tensor(y[d:d + 1]), w).data)
            assert np.isclose(np.mean(per_tile), full, rtol=1e-6, atol=0.0)

    def test_latitude_loss_excludes_custom_loss_fn(self):
        plan = CompositePlan(VirtualCluster(1))
        with pytest.raises(ValueError, match="not both"):
            DistributedEngine(_factory(), _dataset(),
                              TrainConfig(epochs=1, batch_size=1), plan,
                              loss_fn=mse_loss, latitude_loss=True)

    def test_world4_latitude_training_runs_and_stays_synchronized(self):
        config = TrainConfig(epochs=2, batch_size=2, lr=2e-3, seed=1,
                             tv_weight=0.0)
        plan = CompositePlan(VirtualCluster(4), tp=1, fsdp=1, tiles=2, ddp=2)
        engine = DistributedEngine(_factory(seed=2), _dataset(), config, plan,
                                   halo=2, factor=4, latitude_loss=True)
        history = engine.fit()
        assert np.isfinite(history.train_loss).all()
        assert history.train_loss[-1] < history.train_loss[0]
        engine.assert_synchronized(atol=0.0)


class TestEngineOverlap:
    def test_overlap_training_bit_identical_to_eager(self):
        """The engine's full training loop (AdamW, LR schedule, clipping)
        is unchanged by backward-driven bucketed async reduction."""
        config = TrainConfig(epochs=2, batch_size=2, lr=2e-3, seed=1)
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)

        def run(overlap):
            engine = DistributedEngine(_factory(seed=2), _dataset(), config,
                                       plan, halo=2, factor=4,
                                       overlap=overlap, bucket_bytes=1 << 12)
            history = engine.fit()
            return history, engine

        hist_eager, eng_eager = run(False)
        hist_overlap, eng_overlap = run(True)
        assert hist_overlap.train_loss == hist_eager.train_loss
        for a, b in zip(eng_overlap.model.parameters(),
                        eng_eager.model.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        launches = eng_overlap.communication_summary()["async_launches"]
        assert sum(n for per in launches.values() for n in per.values()) > 0


class TestAggregatorKeyBias:
    """``aggregator.attn.to_k.bias`` shifts every logit of a softmax row
    alike, so the fused aggregator hands it an exact zero gradient — as a
    parent like any other, so its ready hook and flat-buffer slot still
    fire — and AdamW without weight decay leaves its bytes alone."""

    @pytest.mark.parametrize("mode", ["eager", "compiled", "ddp2_overlap"])
    def test_gradient_is_exactly_zero_and_bytes_do_not_move(self, mode):
        config = TrainConfig(epochs=1, batch_size=2, lr=2e-3, seed=1,
                             weight_decay=0.0)
        if mode == "ddp2_overlap":
            trainer = DistributedEngine(
                _factory(seed=2), _dataset(), config,
                CompositePlan(VirtualCluster(2), ddp=2), halo=2, factor=4,
                overlap=True, bucket_bytes=1 << 12)
            models = trainer.strategy.units()
        else:
            trainer = Trainer(_factory(seed=2)(), _dataset(), config,
                              compile=(mode == "compiled"))
            models = [trainer.model]
        biases = [dict(m.named_parameters())["aggregator.attn.to_k.bias"]
                  for m in models]
        start = np.random.default_rng(0).standard_normal(biases[0].shape)
        for bias in biases:
            bias.data[...] = start
        before = biases[0].data.copy()
        for batch in trainer.dataset.batches(2):    # capture, then one replay
            trainer.train_step(batch)
        for bias in biases:
            assert bias.grad is not None and not bias.grad.any()
            assert bias.data.tobytes() == before.tobytes()
