"""Live replan on DistributedEngine: grow/shrink bitwise, fault recovery,
plan-aware checkpoints, and the replan observability surface."""

import pickle

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.distributed import CompositePlan, FaultPlan, VirtualCluster
from repro.obs import Tracer
from repro.train import (
    CHECKPOINT_FORMAT_VERSION,
    DistributedEngine,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
)

TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


def _dataset(seed=3, samples=4):
    spec = DatasetSpec(name="elastic", fine_grid=Grid(16, 32), factor=4,
                       years=(2000,), samples_per_year=samples, seed=seed,
                       output_channels=(17, 18, 19))
    return DownscalingDataset(spec, years=(2000,))


def _factory(seed=0):
    def make(unit_index=0):
        return Reslim(TINY, 23, 3, factor=4, max_tokens=64,
                      rng=np.random.default_rng(seed))
    return make


def _plan(tp=1, fsdp=1, tiles=1, ddp=1):
    world = tp * fsdp * tiles * ddp
    return CompositePlan(VirtualCluster(world), tp=tp, fsdp=fsdp,
                         tiles=tiles, ddp=ddp)


def _engine(plan, seed=2, compile=False):
    config = TrainConfig(epochs=1, batch_size=plan.ddp, lr=2e-3, seed=7)
    return DistributedEngine(_factory(seed), _dataset(), config, plan,
                             halo=2, factor=4, compile=compile)


def _batches(engine):
    # the Trainer fit the engine dataset's normalizer at construction
    return list(engine.dataset.batches(engine.config.batch_size))


def _steps(engine, batches, n):
    return [engine.train_step(batches[i % len(batches)]) for i in range(n)]


class TestReplanBitwise:
    @pytest.mark.parametrize("old,new", [
        ((1, 1, 2, 2), (1, 2, 2, 2)),  # grow 4 -> 8
        ((1, 2, 2, 2), (1, 1, 2, 2)),  # shrink 8 -> 4
    ])
    def test_replanned_run_matches_fresh_start(self, old, new):
        """Post-replan steps are bitwise = a fresh engine at the new world
        importing the same canonical state."""
        engine = _engine(_plan(*old))
        batches = _batches(engine)
        _steps(engine, batches, 2)
        snapshot = engine.export_state()

        report = engine.replan(_plan(*new))
        assert report["old"]["world"] == _plan(*old).world
        assert report["new"]["world"] == _plan(*new).world
        assert report["state_bytes"] == snapshot.nbytes
        assert engine.replan_log == [report]

        fresh = _engine(_plan(*new))
        fresh.import_state(snapshot)

        live = _steps(engine, batches, 3)
        ref = _steps(fresh, batches, 3)
        assert live == ref
        for p_live, p_ref in zip(engine.model.parameters(),
                                 fresh.model.parameters()):
            np.testing.assert_array_equal(p_live.data, p_ref.data)

    def test_replan_compiled_recaptures_transparently(self):
        eager = _engine(_plan(1, 1, 2, 2), compile=False)
        compiled = _engine(_plan(1, 1, 2, 2), compile=True)
        batches = _batches(eager)
        _steps(eager, batches, 2)
        _steps(compiled, batches, 2)  # captures at the old plan

        eager.replan(_plan(1, 2, 2, 2))
        compiled.replan(_plan(1, 2, 2, 2))  # same tiles: the plans replay

        assert _steps(compiled, batches, 2) == _steps(eager, batches, 2)
        for p_c, p_e in zip(compiled.model.parameters(),
                            eager.model.parameters()):
            np.testing.assert_array_equal(p_c.data, p_e.data)

    def test_replan_copies_no_state(self, monkeypatch):
        """A replan's report, ``state_bytes`` and the modeled reshard cost
        included, comes from the buffer and moment sizes: the canonical
        state is never exported."""
        twin, engine = _engine(_plan(1, 1, 2, 2)), _engine(_plan(1, 1, 2, 2))
        for e in (twin, engine):
            _steps(e, _batches(e), 2)
        want = twin.replan(_plan(1, 2, 2, 2))

        def copies(self):
            raise AssertionError("replan exported the canonical state")

        monkeypatch.setattr(DistributedEngine, "export_state", copies)
        got = engine.replan(_plan(1, 2, 2, 2))
        del got["downtime_s"], want["downtime_s"]   # wall clock
        assert got == want
        assert got["state_bytes"] == 3 * engine.optimizer.flat.data.nbytes

    def test_replan_rejects_batch_size_change(self):
        engine = _engine(_plan(1, 1, 2, 2))
        with pytest.raises(ValueError, match="batch_size"):
            engine.replan(_plan(1, 1, 1, 4))


class TestFaultRecovery:
    def test_rank_failure_recovers_within_one_step(self):
        engine = _engine(_plan(1, 2, 2, 2))
        engine.attach_fault_plan(FaultPlan({1: (4, 5, 6, 7)}))
        batches = _batches(engine)
        with Tracer() as tracer:
            losses = _steps(engine, batches, 3)
        assert all(np.isfinite(losses))
        # shrank at the step-1 boundary, exactly once
        assert engine.plan.world == 4
        assert len(engine.replan_log) == 1
        assert engine.replan_log[0]["dead_ranks"] == [4, 5, 6, 7]
        assert engine.replan_log[0]["step"] == 1
        assert tracer.metrics.counters["replan/count"] == 1
        assert tracer.metrics.counters["replan/rank_failures"] == 4
        assert tracer.metrics.histograms["replan/downtime_s"].total > 0
        assert any(sp.name.startswith("replan/") for sp in tracer.spans)

    def test_fault_outside_world_rejected(self):
        engine = _engine(_plan(1, 1, 2, 2))
        engine.attach_fault_plan(FaultPlan({0: (11,)}))
        batches = _batches(engine)
        with pytest.raises(ValueError, match="outside world"):
            engine.train_step(batches[0])


class TestPlanAwareCheckpoints:
    def test_round_trip_embeds_layout_and_version(self, tmp_path):
        engine = _engine(_plan(1, 1, 2, 2))
        batches = _batches(engine)
        _steps(engine, batches, 1)
        path = tmp_path / "ckpt.pkl"
        engine.save(path, extra={"epoch": 1})

        payload = pickle.loads(path.read_bytes())
        assert payload["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert payload["plan"] == engine.plan.layout()

        restored = _engine(_plan(1, 1, 2, 2), seed=9)
        extra = restored.load(path)
        assert extra == {"epoch": 1}
        for p_r, p_e in zip(restored.model.parameters(),
                            engine.model.parameters()):
            np.testing.assert_array_equal(p_r.data, p_e.data)

    def test_layout_mismatch_rejected(self, tmp_path):
        engine = _engine(_plan(1, 1, 2, 2))
        path = tmp_path / "ckpt.pkl"
        engine.save(path)
        other = _engine(_plan(1, 2, 2, 2))
        with pytest.raises(ValueError, match="reshard"):
            other.load(path)

    def test_v1_checkpoint_still_loads_without_expectation(self, tmp_path):
        model = _factory(seed=4)()
        path = tmp_path / "legacy.pkl"
        save_checkpoint(model, path, extra={"note": "old"})
        # forge a v1 payload: no format_version, no plan key
        payload = pickle.loads(path.read_bytes())
        del payload["format_version"], payload["plan"]
        path.write_bytes(pickle.dumps(payload))

        target = _factory(seed=5)()
        extra = load_checkpoint(target, path)
        assert extra == {"note": "old"}
        with pytest.raises(ValueError, match="no plan-layout metadata"):
            load_checkpoint(target, path, expect_plan=_plan(1, 1, 2, 2))

    def test_future_version_rejected(self, tmp_path):
        model = _factory()()
        path = tmp_path / "future.pkl"
        save_checkpoint(model, path)
        payload = pickle.loads(path.read_bytes())
        payload["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(model, path)
