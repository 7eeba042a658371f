"""DDP / FSDP / tensor-parallel / Hybrid-OP / TILES-SP correctness tests.

The central invariants: every parallel execution must match its
single-device reference bit-for-bit or to float32 tolerance, and the
communication volumes must follow the canonical formulas.  The
match-the-reference checks all run through the shared oracle in
``repro.testing.equivalence`` (see TestEquivalenceOracle); what stays
here are the per-level contracts — collective counts, batch scatter,
and input validation.  Plain DDP, FSDP and TILES are
``CompositeStrategy`` on a plan with the whole world on one level.
"""

import numpy as np
import pytest

from repro.core import ModelConfig, Reslim
from repro.distributed import (
    CompositePlan,
    CompositeStrategy,
    HybridOpChain,
    ProcessGroup,
    VirtualCluster,
    hybrid_chain_volume,
    naive_sharded_chain_volume,
    tiles_comm_volume,
    ulysses_comm_volume,
)
from repro.nn import FlatParamBuffer, Linear, Module, flatten_grads
from repro.tensor import Tensor
from repro.testing import PARALLELISMS, check_parallel_equivalence

RNG = np.random.default_rng(61)
TINY = ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2)


class TestEquivalenceOracle:
    """The tentpole invariant, one oracle call per (strategy, world).

    Replaces the former per-engine one-off reference checks: the oracle
    compares outputs — and, for the training engines, gradients and
    post-SGD parameters — against single-rank execution on a tiny Reslim
    config, and records where agreement is bit-for-bit.
    """

    @pytest.mark.parametrize("world", [1, 2, 4, 8])
    @pytest.mark.parametrize("strategy", PARALLELISMS)
    def test_matches_single_rank(self, strategy, world):
        report = check_parallel_equivalence(strategy, world)
        assert report.comparisons, "oracle must compare at least one quantity"
        # where no collective reorders a reduction, demand byte-identity:
        # FSDP reduces in float64 (mean of identical contributions is
        # exact) and Ulysses' all-to-alls only permute data.
        if strategy in ("fsdp", "ulysses"):
            assert report.bit_exact, report.summary()
        # DDP/TILES forwards never cross a reduction and every kernel is
        # batch-invariant (a sample's bits do not depend on how the batch
        # was split across ranks), so outputs are exact at every world —
        # encoder included: the oracle model's head is warm.  Their
        # gradients go through the float32 ring.
        if strategy in ("ddp", "tiles"):
            assert report.comparison("output").bit_exact, report.summary()
        # at world=1 every collective degenerates to a copy; only the
        # strategies whose reference re-runs the same float32 code path
        # can be byte-identical (TP's BLAS path and Hybrid-OP's float64
        # reference differ by design, tolerance-bounded).
        if world == 1 and strategy in ("ddp", "fsdp", "ulysses", "tiles"):
            assert report.bit_exact, report.summary()

    def test_training_engines_compare_grads_and_params(self):
        for strategy in ("ddp", "fsdp", "tiles"):
            report = check_parallel_equivalence(strategy, 2)
            quantities = {c.quantity for c in report.comparisons}
            assert quantities == {"output", "gradients", "params"}

    @pytest.mark.parametrize("pair", [
        ("ddp", "ddp_compiled"),
        ("composite", "composite_compiled"),
        ("composite_overlap", "composite_overlap_compiled"),
    ])
    def test_compiled_bitwise_matches_eager_at_world_8(self, pair):
        """The compiled rows' real claim: steady-state replay reproduces
        the eager schedule bit for bit.  Three steps at world 8 — step 1
        captures, steps 2-3 replay — and gradients and post-SGD params
        must be byte-identical to the eager strategy throughout."""
        from repro.tensor import graph_counters, reset_graph_counters
        from repro.testing.equivalence import _SPECS, oracle_config

        eager_name, compiled_name = pair

        def run(name):
            config = oracle_config()
            strat, (x, y) = _SPECS[name].build(
                8, config, 0, np.random.default_rng(0))
            data_rng = np.random.default_rng(42)
            trace = []
            for _ in range(3):
                xs = data_rng.standard_normal(x.shape).astype(np.float32)
                ys = data_rng.standard_normal(y.shape).astype(np.float32)
                strat.step(xs, ys)
                grads = strat.unit_grads()
                strat.apply_sgd(0.05)
                trace.append((grads, strat.unit_params()))
            return trace

        eager = run(eager_name)
        reset_graph_counters()
        compiled = run(compiled_name)
        counts = graph_counters()
        assert counts["captures"] > 0 and counts["replays"] > 0, \
            "compiled strategy never replayed — guard churn?"
        for step, ((eg, ep), (cg, cp)) in enumerate(zip(eager, compiled), 1):
            assert np.array_equal(eg, cg), f"step {step}: gradients diverged"
            assert np.array_equal(ep, cp), f"step {step}: params diverged"


def _mse(pred, target):
    diff = pred - target
    return (diff * diff).mean()


class _SmallNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(6, 8, rng=rng)
        self.fc2 = Linear(8, 2, rng=rng)

    def forward(self, x):
        return self.fc2(self.fc1(x).tanh())


def _one_level(factory, **level) -> CompositeStrategy:
    """A set-up strategy with the whole world on one level, e.g. ``ddp=4``."""
    (world,) = level.values()
    strat = CompositeStrategy(CompositePlan(VirtualCluster(world), **level),
                              _mse, halo=2, factor=2)
    strat.setup(factory)
    return strat


def _reduce_with_ddp_fault(fault):
    """One ddp=2 step whose DDP all-reduce runs ``fault(buffers)`` on
    the two ranks' buffers after reducing them in place."""
    strat = _one_level(lambda r: _SmallNet(), ddp=2)
    group = strat._ddp_groups[(0, 0)][-1]
    all_reduce = group.all_reduce

    def faulty(buffers, **kw):
        out = all_reduce(buffers, **kw)
        fault(buffers)
        return out

    group.all_reduce = faulty
    strat.forward_backward(RNG.standard_normal((4, 6)).astype(np.float32),
                           RNG.standard_normal((4, 2)).astype(np.float32))
    strat.reduce_gradients()
    return strat


class TestDDP:
    # the averaged-gradients-match-full-batch invariant is covered by
    # TestEquivalenceOracle; these tests pin the data-parallel contracts

    def test_replicas_synchronized_after_init(self):
        """The ranks hold no replicas: the one model is ``factory(0)``."""
        calls = []
        strat = _one_level(lambda r: calls.append(r) or _SmallNet(seed=r), ddp=3)
        assert calls == [0]
        ref = _SmallNet(seed=0).state_dict()
        for name, arr in strat.model.state_dict().items():
            assert arr.tobytes() == ref[name].tobytes(), name

    def test_exact_sync_check_rejects_one_ulp_drift(self):
        """The per-step check compares bytes: one ulp in one rank's
        reduced gradient fails it."""
        def drift(buffers):
            buffers[1][0] = np.nextafter(buffers[1][0], np.float32(np.inf))
        with pytest.raises(RuntimeError, match=r"unit \(1, 0\)'s reduced gradient drifted"):
            _reduce_with_ddp_fault(drift)

    def test_exact_sync_check_rejects_a_signed_zero(self):
        """``+0.0`` and ``-0.0`` compare equal but differ in their bytes."""
        def zeros(buffers):
            buffers[0][0], buffers[1][0] = 0.0, -0.0
        with pytest.raises(RuntimeError, match="drifted"):
            _reduce_with_ddp_fault(zeros)

    def test_exact_sync_check_accepts_identical_nan_replicas(self):
        def nans(buffers):
            for b in buffers:
                b[0] = np.nan
        strat = _reduce_with_ddp_fault(nans)
        assert np.isnan(strat.buffers()[0].grad[0])

    def test_replicas_stay_synchronized_through_sgd(self):
        """Three SGD steps on the one model track the single-model
        reference; each step's reduction checks that the ranks agree."""
        from repro.nn import SGD
        strat = _one_level(lambda r: _SmallNet(seed=r), ddp=2)
        opt = SGD(strat.model.parameters(), lr=0.1)
        ref = _SmallNet(seed=0)
        ref_buf = FlatParamBuffer(list(ref.parameters()))
        for step in range(3):
            x = RNG.standard_normal((4, 6)).astype(np.float32)
            y = RNG.standard_normal((4, 2)).astype(np.float32)
            strat.step(x, y)  # two samples per rank
            opt.step()
            ref_buf.data -= 0.1 * strat.reference_step(ref, x, y)
        np.testing.assert_allclose(strat.unit_params(), ref_buf.data,
                                   rtol=1e-5, atol=1e-6)

    def test_batch_rows_per_rank(self):
        """Rank ``d`` holds rows ``d*k:(d+1)*k``; the batch must split
        evenly and carry one target per input."""
        strat = _one_level(lambda r: _SmallNet(), ddp=4)
        x = RNG.standard_normal((8, 6)).astype(np.float32)
        y = RNG.standard_normal((8, 2)).astype(np.float32)
        losses = strat.forward_backward(x, y)
        assert len(losses) == 4
        net = _SmallNet()
        assert losses[1] == float(_mse(net(Tensor(x[2:4])), Tensor(y[2:4])).data)
        np.testing.assert_array_equal(strat.forward(x), net(Tensor(x)).data)
        with pytest.raises(ValueError, match="not divisible"):
            strat.forward_backward(np.zeros((7, 6), np.float32),
                                   np.zeros((7, 2), np.float32))
        with pytest.raises(ValueError, match="batch sizes differ"):
            strat.forward_backward(x, np.zeros((9, 2), np.float32))

    def test_flatten_unflatten_roundtrip(self):
        net = _SmallNet()
        out = net(Tensor(RNG.standard_normal((2, 6)).astype(np.float32)))
        out.sum().backward()
        flat = flatten_grads(net)
        grads_before = [p.grad.copy() for p in net.parameters()]
        buf = FlatParamBuffer(list(net.parameters()))
        buf.zero_grad()
        buf.load_grad(flat)
        for g0, p in zip(grads_before, net.parameters()):
            np.testing.assert_array_equal(g0, p.grad)

    def test_replica_count_validation(self):
        with pytest.raises(ValueError, match="!= world 2"):
            CompositePlan(VirtualCluster(2), ddp=1)


class TestFSDP:
    def test_communication_recorded(self):
        """One flat reduce-scatter and one flat all-gather per step — not
        one per parameter."""
        strat = _one_level(lambda r: _SmallNet(), fsdp=2)
        strat.step(RNG.standard_normal((4, 6)).astype(np.float32),
                   RNG.standard_normal((4, 2)).astype(np.float32))
        assert strat.comm_summary()["calls"]["fsdp"] == {
            "reduce_scatter": 1, "all_gather": 1}


class TestTensorParallel:
    """Megatron TP: the MLP as a one-pair Hybrid-OP chain."""

    @staticmethod
    def _mlp(g, d=4, hidden=8):
        w1 = RNG.standard_normal((hidden, d)).astype(np.float32)
        b1 = RNG.standard_normal(hidden).astype(np.float32)
        w2 = RNG.standard_normal((d, hidden)).astype(np.float32)
        b2 = RNG.standard_normal(d).astype(np.float32)
        mlp = HybridOpChain([w1, w2], g, biases=[b1, b2], activation=np.tanh)
        return mlp, (w1, b1, w2, b2)

    def test_column_then_gather_matches_dense(self):
        """fc1 is output-sharded: gathering the per-rank slices (with their
        bias slices) rebuilds the dense layer."""
        g = ProcessGroup([0, 1])
        mlp, (w1, b1, _, _) = self._mlp(g, 6, 8)
        x = RNG.standard_normal((3, 6)).astype(np.float32)
        slices = [(x @ w.T + b).T for w, b in zip(mlp.shards[0], np.split(b1, 2))]
        out = g.all_gather(slices)[0].T
        np.testing.assert_allclose(out, x @ w1.T + b1, rtol=1e-5, atol=1e-5)

    def test_row_parallel_matches_dense(self):
        """fc2 is input-sharded: each rank's feature slice times its shard,
        all-reduced, plus the bias once, is the dense layer."""
        g = ProcessGroup([0, 1])
        mlp, (_, _, w2, b2) = self._mlp(g, 4, 8)
        x = RNG.standard_normal((3, 8)).astype(np.float32)
        partials = [(xs @ w.T).astype(np.float32)
                    for xs, w in zip(np.split(x, 2, axis=1), mlp.shards[1])]
        out = g.all_reduce(partials, op="sum")[0] + b2
        np.testing.assert_allclose(out, x @ w2.T + b2, rtol=1e-4, atol=1e-5)

    def test_mlp_matches_dense(self):
        mlp, (w1, b1, w2, b2) = self._mlp(ProcessGroup([0, 1]))
        x = RNG.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_allclose(mlp.forward(x), np.tanh(x @ w1.T + b1) @ w2.T + b2,
                                   rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(mlp.reference(x), mlp.forward(x),
                                   rtol=1e-4, atol=1e-5)

    def test_exactly_one_allreduce_per_forward(self):
        g = ProcessGroup([0, 1])
        mlp, _ = self._mlp(g)
        mlp.forward(RNG.standard_normal((2, 4)).astype(np.float32))
        assert g.stats.calls.get("all_reduce", 0) == 1
        assert g.stats.calls.get("all_gather", 0) == 0

    def test_per_rank_params_are_fraction(self):
        mlp, (w1, _, w2, _) = self._mlp(ProcessGroup(list(range(4))), 8, 16)
        per_rank = sum(layer[0].nbytes for layer in mlp.shards)
        assert per_rank == (w1.nbytes + w2.nbytes) // 4

    def test_rejects_misshaped_biases(self):
        w = [np.zeros((8, 4), np.float32), np.zeros((4, 8), np.float32)]
        with pytest.raises(ValueError, match="bias"):
            HybridOpChain(w, ProcessGroup([0, 1]), biases=[np.zeros(8, np.float32)])

    def test_split_validation(self):
        from repro.distributed import split_columns, split_rows
        with pytest.raises(ValueError):
            split_columns(np.zeros((7, 4)), 2)
        with pytest.raises(ValueError):
            split_rows(np.zeros((4, 7)), 2)


class TestHybridOp:
    def test_one_allreduce_per_pair(self):
        g = ProcessGroup([0, 1])
        weights = [RNG.standard_normal((4, 4)).astype(np.float32) for _ in range(4)]
        chain = HybridOpChain(weights, g)
        chain.forward(RNG.standard_normal((2, 4)).astype(np.float32))
        assert g.stats.calls["all_reduce"] == 2
        assert chain.collectives_issued() == 2

    def test_rejects_odd_chain(self):
        with pytest.raises(ValueError):
            HybridOpChain([np.zeros((4, 4), dtype=np.float32)], ProcessGroup([0, 1]))

    def test_rejects_shape_mismatch(self):
        weights = [np.zeros((4, 6), dtype=np.float32), np.zeros((2, 5), dtype=np.float32)]
        with pytest.raises(ValueError):
            HybridOpChain(weights, ProcessGroup([0, 1]))

    def test_hybrid_beats_naive_volume(self):
        """The Hybrid-OP claim: less communication than per-layer sharding."""
        dims = [1024] * 9  # 8 layers
        naive = naive_sharded_chain_volume(32, dims, world=8)
        hybrid = hybrid_chain_volume(32, dims, world=8)
        # half the collective count; an all-reduce moves 2x an all-gather,
        # so at equal dims the byte volumes tie — the win is frequency
        assert hybrid <= naive
        # with narrow pair outputs, Hybrid-OP also wins on volume
        bottleneck = [1024] + [4096, 128] * 4
        assert hybrid_chain_volume(32, bottleneck, 8) < \
            naive_sharded_chain_volume(32, bottleneck, 8)


class TestTilesParallel:
    def test_gradient_averaging_synchronizes(self):
        strat = _one_level(
            lambda r: Reslim(TINY, 2, 1, factor=2, max_tokens=256,
                             rng=np.random.default_rng(r)), tiles=4)
        x = RNG.standard_normal((1, 2, 16, 16)).astype(np.float32)
        y = RNG.standard_normal((1, 1, 32, 32)).astype(np.float32)
        strat.step(x, y)  # raises unless every tile's reduced gradient agrees
        ref = Reslim(TINY, 2, 1, factor=2, max_tokens=256,
                     rng=np.random.default_rng(0))
        np.testing.assert_allclose(strat.unit_grads(),
                                   strat.reference_step(ref, x, y),
                                   rtol=1e-4, atol=1e-5)
        # only ONE all-reduce for the whole batch — the TILES property
        assert strat.comm_summary()["calls"]["tiles"]["all_reduce"] == 1

    def test_comm_volume_comparison(self):
        """TILES gradient-only traffic ≪ Ulysses per-layer all-to-alls at
        the paper's scales."""
        param_bytes = int(9.5e6 * 2)
        tiles = tiles_comm_volume(param_bytes, world=16)
        ulysses = ulysses_comm_volume(seq_len=777_660, embed_dim=256, n_layers=6, world=16)
        assert tiles < ulysses / 10
