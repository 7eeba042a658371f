"""Activation checkpointing composed with the composite parallel stack.

Checkpointing must be invisible to the distributed numerics: the flat
gradient buffers after the 4-phase reduce are bit-identical with
checkpointing on and off (eager and bucketed-async overlap paths), while
the retained forward tape — the high-water memory a tape autograd holds
between forward and backward — shrinks to the block boundaries.
"""

import numpy as np
import pytest

from repro.distributed import CompositePlan, CompositeStrategy, VirtualCluster
from repro.nn import CheckpointedSequential, Linear, MLP, Module, Sequential
from repro.tensor import Tensor
from tests.tape import tape_bytes, tape_nodes

DIM = 6
DEPTH = 3


class _PixelNet(Module):
    """Per-pixel channel MLP stack (factor 1): enough structure for the
    composite stack while keeping a clean Sequential body to wrap."""

    def __init__(self, checkpointed: bool, rng: np.random.Generator):
        super().__init__()
        blocks = [MLP(DIM, 2 * DIM, rng=rng) for _ in range(DEPTH)]
        self.body = (CheckpointedSequential(*blocks) if checkpointed
                     else Sequential(*blocks))
        self.head = Linear(DIM, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, c, h, w = x.shape
        t = x.permute(0, 2, 3, 1).reshape(b * h * w, c)
        t = self.head(self.body(t))
        return t.reshape(b, h, w, 1).permute(0, 3, 1, 2)


def _graph_size(t: Tensor) -> tuple[int, int]:
    """(nodes, bytes) of the tape reachable from ``t``: the retained
    forward graph a backward pass would walk, and the activation bytes
    its closures hold."""
    return len(tape_nodes(t)), tape_bytes(t)


def _run(checkpointed: bool, overlap: bool):
    """One composite step; returns (losses, per-unit flat grads, peak
    retained-tape stats observed at loss time)."""
    peak = {"nodes": 0, "bytes": 0}

    def loss_fn(pred, target):
        nodes, nbytes = _graph_size(pred)
        peak["nodes"] = max(peak["nodes"], nodes)
        peak["bytes"] = max(peak["bytes"], nbytes)
        diff = pred - target
        return (diff * diff).mean()

    plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)
    strategy = CompositeStrategy(plan, loss_fn, halo=1, factor=1,
                                 overlap=overlap, bucket_bytes=1 << 8)
    strategy.setup(lambda u: _PixelNet(checkpointed,
                                       np.random.default_rng(11 + u)))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((plan.ddp, DIM, 8, 8)).astype(np.float32)
    y = rng.standard_normal((plan.ddp, 1, 8, 8)).astype(np.float32)
    losses = strategy.forward_backward(x, y)
    strategy.reduce_gradients()
    grads = [buf.grad.copy() for buf in strategy.buffers()]
    return losses, grads, peak


class TestCheckpointedComposite:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_grads_bit_identical_checkpointing_on_off(self, overlap):
        losses_off, grads_off, _ = _run(checkpointed=False, overlap=overlap)
        losses_on, grads_on, _ = _run(checkpointed=True, overlap=overlap)
        assert losses_on == losses_off
        assert len(grads_on) == len(grads_off)
        for g_on, g_off in zip(grads_on, grads_off):
            np.testing.assert_array_equal(g_on, g_off)

    def test_tape_high_water_drops_under_checkpointing(self):
        _, _, peak_off = _run(checkpointed=False, overlap=False)
        _, _, peak_on = _run(checkpointed=True, overlap=False)
        # the checkpointed forward retains only block boundaries: the
        # per-block GELU/matmul internals never reach the outer tape
        assert peak_on["nodes"] < peak_off["nodes"]
        assert peak_on["bytes"] < peak_off["bytes"] / 2

    def test_overlap_hooks_fire_through_checkpoint_rerun(self):
        """The bucketed path's per-parameter ready hooks fire from the
        checkpoint re-run backward, so every bucket still launches."""
        plan = CompositePlan(VirtualCluster(8), tp=1, fsdp=2, tiles=2, ddp=2)

        def mse(pred, target):
            diff = pred - target
            return (diff * diff).mean()

        strategy = CompositeStrategy(plan, mse, halo=1, factor=1,
                                     overlap=True, bucket_bytes=1 << 8)
        strategy.setup(lambda u: _PixelNet(True, np.random.default_rng(11 + u)))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((plan.ddp, DIM, 8, 8)).astype(np.float32)
        y = rng.standard_normal((plan.ddp, 1, 8, 8)).astype(np.float32)
        strategy.forward_backward(x, y)
        strategy.reduce_gradients()
        launches = strategy.comm_summary()["async_launches"]
        assert sum(launches["fsdp"].values()) > 0
        assert sum(launches["tiles"].values()) > 0
