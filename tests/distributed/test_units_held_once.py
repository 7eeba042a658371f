"""The composite stack holds its replicas once.

Every (data-parallel rank, tile) unit runs the one model on its rows:
the engine holds the parameter, gradient and moment bytes of a one-rank
``Trainer``, step 1 captures one plan per tile, and a replan that keeps
the tile count keeps them.  What the replicas' equality used to show is
now checked every step: ``reduce_gradients`` raises when a unit's
reduced gradient differs from unit (0, 0)'s.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, VirtualCluster
from repro.tensor import graph_counters
from repro.testing.equivalence import _SPECS, oracle_config
from repro.train import DistributedEngine, TrainConfig, Trainer

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _dataset():
    spec = DatasetSpec(name="once", fine_grid=Grid(16, 32), factor=4,
                       years=(2000,), samples_per_year=4, seed=3,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=(2000,))


def _plan(fsdp=2, tiles=2, ddp=2):
    return CompositePlan(VirtualCluster(fsdp * tiles * ddp), fsdp=fsdp,
                         tiles=tiles, ddp=ddp)


class TestStructure:
    @staticmethod
    def _engine(calls=None, compile=False):
        def factory(unit_index):
            if calls is not None:
                calls.append(unit_index)
            return Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                          rng=np.random.default_rng(2))
        return DistributedEngine(factory, _dataset(),
                                 TrainConfig(epochs=1, batch_size=2, seed=7),
                                 _plan(), halo=2, factor=4, overlap=True,
                                 compile=compile)

    def test_world8_engine_holds_the_bytes_of_a_one_rank_trainer(self):
        calls = []
        engine = self._engine(calls)
        trainer = Trainer(Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                                 rng=np.random.default_rng(2)),
                          _dataset(), TrainConfig(epochs=1, batch_size=2))
        assert calls == [0]
        buf, = engine.strategy.buffers()
        assert engine.optimizer.flat is buf
        assert engine.model is engine.strategy.model
        ref = trainer.optimizer.flat
        assert (buf.data.nbytes, buf.grad.nbytes) == (ref.data.nbytes, ref.grad.nbytes)
        assert engine.optimizer.state_nbytes() == trainer.optimizer.state_nbytes()

    def test_plans_per_tile_kept_by_an_fsdp_replan(self):
        engine = self._engine(compile=True)
        batches = list(engine.dataset.batches(2))

        def steps(n):
            c0 = graph_counters()
            for i in range(n):
                engine.train_step(batches[i % len(batches)])
            c1 = graph_counters()
            return (c1["captures"] - c0["captures"],
                    c1["guard_misses"] - c0["guard_misses"])

        assert steps(3) == (2, 0)          # step 1 captures `tiles` plans
        engine.replan(_plan(fsdp=1))       # fsdp-only: the plans replay
        assert steps(2) == (0, 0)
        engine.replan(_plan(fsdp=2, tiles=1))   # the tile count changes
        assert steps(2) == (1, 0)


def _step_with_fault(level: str, overlap: bool):
    """One step of the world-8 oracle row whose ``level`` all-reduce
    shifts rank 1's buffer after reducing in place."""
    row = "composite_overlap" if overlap else "composite"
    strat, (x, y) = _SPECS[row].build(8, oracle_config(), 0,
                                      np.random.default_rng(0))
    groups = strat._tiles_groups if level == "tiles" else strat._ddp_groups
    group = groups[(0, 0)][-1]
    name = "all_reduce_async" if level == "tiles" and overlap else "all_reduce"
    collective = getattr(group, name)

    def faulty(buffers, **kw):
        out = collective(buffers, **kw)
        buffers[1][0] += 1.0
        return out

    setattr(group, name, faulty)
    strat.forward_backward(x, y)
    strat.reduce_gradients()


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
@pytest.mark.parametrize("level", ["tiles", "ddp"])
def test_drift_inside_an_all_reduce_fails_the_step(level, overlap):
    with pytest.raises(RuntimeError, match="drifted from unit"):
        _step_with_fault(level, overlap)
