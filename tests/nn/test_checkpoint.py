"""Activation-checkpointing tests: gradient parity and memory accounting."""

import numpy as np
import pytest

from repro.nn import (
    CheckpointedSequential,
    Linear,
    MLP,
    Module,
    Sequential,
    TransformerBlock,
    checkpoint,
    checkpointed_activation_bytes,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(101)


def _t(*shape, grad=False):
    return Tensor(RNG.standard_normal(shape).astype(np.float32), requires_grad=grad)


class TestCheckpoint:
    def test_forward_value_identical(self):
        lin = Linear(6, 6, rng=np.random.default_rng(0))
        x = _t(3, 6)
        np.testing.assert_allclose(checkpoint(lin, x).data, lin(x).data)

    def test_input_gradient_identical(self):
        lin = Linear(5, 5, rng=np.random.default_rng(1))

        def run(use_ckpt):
            x = Tensor(RNG.standard_normal((2, 5)).astype(np.float32) * 0 + 1.0,
                       requires_grad=True)
            out = checkpoint(lin, x) if use_ckpt else lin(x)
            (out * out).sum().backward()
            return x.grad

        np.testing.assert_allclose(run(True), run(False), rtol=1e-5, atol=1e-6)

    def test_parameter_gradients_identical(self):
        data = RNG.standard_normal((4, 8)).astype(np.float32)

        def grads(use_ckpt):
            mlp = MLP(8, 16, rng=np.random.default_rng(2))
            x = Tensor(data)
            out = checkpoint(mlp, x) if use_ckpt else mlp(x)
            (out * out).mean().backward()
            return [p.grad.copy() for p in mlp.parameters()]

        for a, b in zip(grads(True), grads(False)):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)

    def test_no_graph_retained_in_forward(self):
        """The memory property: the checkpointed output's graph holds only
        the inputs, not the internal activations."""
        mlp = MLP(8, 32, rng=np.random.default_rng(3))
        x = _t(2, 8, grad=True)
        out = checkpoint(mlp, x)
        # parents are exactly the input + parameters: no intermediate
        # activation nodes are retained
        assert set(map(id, out._node.parents)) == {id(x), *map(id, mlp.parameters())}

    def test_multi_input_checkpoint(self):
        def fn(a, b):
            return (a * b).sum(axis=-1, keepdims=True) * a

        a = _t(3, 4, grad=True)
        b = _t(3, 4, grad=True)
        checkpoint(fn, a, b).sum().backward()
        ga, gb = a.grad.copy(), b.grad.copy()
        a.zero_grad(); b.zero_grad()
        fn(a, b).sum().backward()
        np.testing.assert_allclose(ga, a.grad, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(gb, b.grad, rtol=1e-5, atol=1e-6)


class TestCheckpointedSequential:
    def test_matches_plain_sequential(self):
        blocks = [TransformerBlock(16, 2, rng=np.random.default_rng(i))
                  for i in range(3)]
        plain = Sequential(*blocks)
        ckpt = CheckpointedSequential(*blocks)
        x = _t(1, 10, 16)
        np.testing.assert_allclose(ckpt(x).data, plain(x).data, rtol=1e-5, atol=1e-6)

    def test_training_parity(self):
        data = RNG.standard_normal((1, 6, 16)).astype(np.float32)

        def param_grads(cls):
            blocks = [TransformerBlock(16, 2, rng=np.random.default_rng(i))
                      for i in range(2)]
            seq = cls(*blocks)
            out = seq(Tensor(data))
            (out * out).mean().backward()
            return [p.grad.copy() for p in seq.parameters()]

        for a, b in zip(param_grads(CheckpointedSequential), param_grads(Sequential)):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-5)

    def test_registers_submodules(self):
        seq = CheckpointedSequential(Linear(4, 4), Linear(4, 4))
        assert len(seq.parameters()) == 4
        assert len(seq) == 2


class TestMemoryAccounting:
    def test_checkpointing_saves_memory_at_depth(self):
        plain = checkpointed_activation_bytes(24, 10_000, 1024, checkpointing=False)
        ckpt = checkpointed_activation_bytes(24, 10_000, 1024, checkpointing=True)
        assert ckpt < plain / 5

    def test_savings_grow_with_depth(self):
        def ratio(depth):
            return (checkpointed_activation_bytes(depth, 1000, 256, checkpointing=False)
                    / checkpointed_activation_bytes(depth, 1000, 256))
        assert ratio(48) > ratio(6)


class TestEncoderCheckpointing:
    def test_checkpointed_encoder_training_parity(self):
        """TransformerEncoder(checkpoint_blocks=True) trains identically."""
        from repro.nn import TransformerEncoder

        data = RNG.standard_normal((1, 8, 16)).astype(np.float32)

        def grads(ckpt):
            enc = TransformerEncoder(16, 2, 2, max_len=32, checkpoint_blocks=ckpt,
                                     rng=np.random.default_rng(7))
            out = enc(Tensor(data))
            (out * out).mean().backward()
            return [p.grad.copy() for p in enc.parameters()]

        for a, b in zip(grads(True), grads(False)):
            np.testing.assert_allclose(a, b, rtol=1e-3, atol=1e-5)

    def test_eval_mode_skips_checkpointing(self):
        from repro.nn import TransformerEncoder

        enc = TransformerEncoder(16, 1, 2, max_len=32, checkpoint_blocks=True,
                                 rng=np.random.default_rng(0))
        enc.eval()
        out = enc(_t(1, 4, 16))
        assert out.shape == (1, 4, 16)
