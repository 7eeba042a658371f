"""Cross-subsystem integration tests: the full ORBIT-2 pipeline at toy
scale, combining data, model, loss, mixed precision, checkpointing,
compression, tiling, and the distributed engines."""

import runpy
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BayesianDownscalingLoss,
    ModelConfig,
    Reslim,
    TiledDownscaler,
)
from repro.data import DatasetSpec, DownscalingDataset, Grid, latitude_weights
from repro.distributed import CompositePlan, CompositeStrategy, VirtualCluster
from repro.evals import r2_score
from repro.nn import SGD, flatten_grads
from repro.tensor import Tensor
from repro.train import (
    TrainConfig,
    Trainer,
    load_checkpoint,
    predict_dataset,
    save_checkpoint,
)

TINY = ModelConfig("tiny", embed_dim=24, depth=2, num_heads=4)


def _dataset(years=(2000, 2001), samples=4, grid=Grid(16, 32)):
    spec = DatasetSpec(name="integ", fine_grid=grid, factor=4, years=years,
                       samples_per_year=samples, seed=13,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=years)


class TestFullPipeline:
    def test_train_checkpoint_reload_predict(self, tmp_path):
        """Train → save → reload into a fresh model → identical predictions."""
        ds = _dataset()
        model = Reslim(TINY, 23, 3, factor=4, max_tokens=128,
                       rng=np.random.default_rng(0))
        trainer = Trainer(model, ds, TrainConfig(epochs=3, batch_size=4, lr=3e-3))
        history = trainer.fit()
        assert history.train_loss[-1] < history.train_loss[0]

        path = tmp_path / "model.pkl"
        save_checkpoint(model, path, extra={"epochs": 3})
        clone = Reslim(TINY, 23, 3, factor=4, max_tokens=128,
                       rng=np.random.default_rng(42))
        load_checkpoint(clone, path)
        p1, _ = predict_dataset(model, ds)
        p2, _ = predict_dataset(clone, ds)
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_bf16_compression_checkpointed_training(self):
        """Every efficiency feature at once: bf16 mixed precision +
        adaptive compression + checkpointed encoder blocks, training to
        a finite decreasing loss."""
        ds = _dataset()
        model = Reslim(TINY, 23, 3, factor=4, compression=0.02,
                       compression_max_patch=4, max_tokens=128,
                       rng=np.random.default_rng(0))
        model.encoder.checkpoint_blocks = True
        trainer = Trainer(model, ds, TrainConfig(epochs=3, batch_size=4,
                                                 lr=3e-3, bf16=True))
        history = trainer.fit()
        assert all(np.isfinite(history.train_loss))
        assert history.train_loss[-1] < history.train_loss[0]
        assert model.last_compression_ratio >= 1.0

    def test_training_beats_interpolation_baseline(self):
        """The point of the whole system: the trained model outperforms
        pure bilinear interpolation of the coarse input."""
        from repro.tensor import bilinear_upsample

        ds = _dataset(years=(2000, 2001, 2002), samples=6)
        model = Reslim(TINY, 23, 3, factor=4, max_tokens=128,
                       rng=np.random.default_rng(0))
        trainer = Trainer(model, ds, TrainConfig(epochs=10, batch_size=4, lr=4e-3))
        trainer.fit()
        test_ds = _dataset(years=(2005,), samples=4)
        test_ds.normalizer = ds.normalizer
        test_ds.target_normalizer = ds.target_normalizer
        preds, targets = predict_dataset(model, test_ds)

        r2_model, r2_interp = [], []
        for i in range(len(test_ds)):
            coarse, fine = test_ds.raw_pair(i)
            interp = bilinear_upsample(
                Tensor(coarse[None, (17, 18, 19), :, :]), 16, 32).data[0]
            for c in range(3):
                r2_model.append(r2_score(preds[i, c], targets[i, c]))
                r2_interp.append(r2_score(interp[c], fine[c]))
        assert np.mean(r2_model) > np.mean(r2_interp)


class TestCombinedParallelisms:
    def test_ddp_over_tiled_models_matches_serial(self):
        """DDP across replicas that each run TILES internally — the outer
        two levels of Fig. 5 — must equal single-process training on the
        concatenated batch with the same tiled model."""
        world = 2
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 4, 16, 16)).astype(np.float32)
        y = rng.standard_normal((4, 2, 32, 32)).astype(np.float32)

        def loss_fn(pred, target):
            d = pred - target
            return (d * d).mean()

        def make_tiled(seed):
            inner = Reslim(TINY, 4, 2, factor=2, max_tokens=128,
                           rng=np.random.default_rng(seed))
            return TiledDownscaler(inner, n_tiles=4, halo=2, factor=2)

        reference = make_tiled(7)
        loss_fn(reference(Tensor(x)), Tensor(y)).backward()
        ref = flatten_grads(reference)

        # rank 0 starts from the reference weights and is broadcast; each
        # rank then runs its two samples through its own tiled replica
        ddp = CompositeStrategy(
            CompositePlan(VirtualCluster(world), ddp=world), loss_fn)
        ddp.setup(lambda r: make_tiled(seed=7 if r == 0 else r + 100))
        ddp.step(x, y)
        np.testing.assert_allclose(ddp.unit_grads(0), ref,
                                   rtol=1e-4, atol=1e-5)

    def test_tiles_sp_then_sgd_keeps_replicas_identical(self):
        """A TILES sequence-parallel group doing several optimizer steps
        stays weight-synchronized (the once-per-batch all-reduce suffices)."""
        rng = np.random.default_rng(3)

        def loss_fn(pred, target):
            d = pred - target
            return (d * d).mean()

        tsp = CompositeStrategy(CompositePlan(VirtualCluster(4), tiles=4),
                                loss_fn, halo=2, factor=2)
        tsp.setup(lambda t: Reslim(TINY, 4, 2, factor=2, max_tokens=128,
                                   rng=np.random.default_rng(t)))
        opts = [SGD(u.parameters(), lr=0.01) for u in tsp.units()]
        for step in range(3):
            x = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
            y = rng.standard_normal((1, 2, 32, 32)).astype(np.float32)
            tsp.step(x, y)
            for opt in opts:
                opt.step()
            assert tsp.comm_summary(reset=True)["calls"]["tiles"] == {
                "all_reduce": 1}
        tsp.assert_units_synchronized(atol=1e-6)

    def test_bayesian_loss_with_tiled_training(self):
        """The paper's loss + TILES + real data through one step."""
        ds = _dataset()
        ds.fit_normalizer()
        batch = next(ds.batches(2))
        model = Reslim(TINY, 23, 3, factor=4, max_tokens=128,
                       rng=np.random.default_rng(0))
        tiled = TiledDownscaler(model, n_tiles=2, halo=2, factor=4)
        loss_fn = BayesianDownscalingLoss(latitude_weights(ds.spec.fine_grid),
                                          tv_weight=0.05)
        loss = loss_fn(tiled(Tensor(batch.inputs)), Tensor(batch.targets))
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert grads and all(np.all(np.isfinite(g)) for g in grads)


def test_scaling_study_example_runs_end_to_end(capsys):
    """Nothing else imports ``examples/``: run the script so an API it
    uses cannot be deleted silently, and hold it to its own verdict."""
    script = Path(__file__).resolve().parents[1] / "examples" / "scaling_study.py"
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "max |DDP grad - single-process grad|" in out
    assert "(OK)" in out and "MISMATCH" not in out
