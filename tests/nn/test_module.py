"""Tests for Module/Parameter registration, state dicts, and layers."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    Conv2d,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    Sequential,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(7)


def _x(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


class _Identity(Module):
    def forward(self, x):
        return x


class Tiny(Module):
    def __init__(self):
        super().__init__()
        self.fc = Linear(4, 3, rng=np.random.default_rng(0))
        self.scale = Parameter(np.ones(1, dtype=np.float32))

    def forward(self, x):
        return self.fc(x) * self.scale


class TestModule:
    def test_named_parameters_paths(self):
        m = Tiny()
        names = dict(m.named_parameters())
        assert set(names) == {"fc.weight", "fc.bias", "scale"}

    def test_num_parameters(self):
        m = Tiny()
        assert m.num_parameters() == 4 * 3 + 3 + 1

    def test_state_dict_roundtrip(self):
        m1, m2 = Tiny(), Tiny()
        m1.fc.weight.data += 1.0
        m2.load_state_dict(m1.state_dict())
        np.testing.assert_array_equal(m2.fc.weight.data, m1.fc.weight.data)

    def test_state_dict_is_a_copy(self):
        m = Tiny()
        state = m.state_dict()
        state["scale"][...] = 99.0
        assert m.scale.data[0] == 1.0

    def test_load_strict_rejects_mismatch(self):
        m = Tiny()
        with pytest.raises(KeyError):
            m.load_state_dict({"nope": np.zeros(1)})

    def test_load_rejects_bad_shape(self):
        m = Tiny()
        state = m.state_dict()
        state["scale"] = np.zeros(5)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_train_eval_propagates(self):
        m = Tiny()
        m.eval()
        assert not m.training and not m.fc.training
        m.train()
        assert m.training and m.fc.training

    def test_zero_grad(self):
        m = Tiny()
        out = m(Tensor(_x(2, 4)))
        out.sum().backward()
        assert m.fc.weight.grad is not None
        m.zero_grad()
        assert m.fc.weight.grad is None

    def test_module_list(self):
        ml = ModuleList([_Identity(), _Identity()])
        assert len(ml) == 2
        assert list(ml) == list(ml._modules.values())
        assert list(ml._modules) == ["0", "1"]

    def test_sequential(self):
        seq = Sequential(Linear(4, 4, rng=np.random.default_rng(0)), _Identity())
        out = seq(Tensor(_x(2, 4)))
        assert out.shape == (2, 4)
        assert len(list(seq.named_parameters())) == 2


class TestLinear:
    def test_output_shape_and_grad(self):
        lin = Linear(5, 3, rng=np.random.default_rng(0))
        x = Tensor(_x(2, 7, 5), requires_grad=True)
        out = lin(x)
        assert out.shape == (2, 7, 3)
        out.sum().backward()
        assert lin.weight.grad.shape == (3, 5)
        assert lin.bias.grad.shape == (3,)
        assert x.grad.shape == (2, 7, 5)

    def test_no_bias(self):
        lin = Linear(4, 2, bias=False)
        assert lin.bias is None
        zero_in = lin(Tensor(np.zeros((1, 4), dtype=np.float32)))
        np.testing.assert_array_equal(zero_in.data, 0.0)

    def test_matches_manual_matmul(self):
        lin = Linear(4, 3, rng=np.random.default_rng(1))
        x = _x(2, 4)
        ref = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(Tensor(x)).data, ref, rtol=1e-5)


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(16)
        out = ln(Tensor(_x(4, 10, 16) * 5 + 3))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_affine_params_learnable(self):
        ln = LayerNorm(8)
        out = ln(Tensor(_x(2, 8)))
        out.sum().backward()
        assert ln.weight.grad is not None and ln.bias.grad is not None

    def test_scale_invariance(self):
        ln = LayerNorm(8)
        x = _x(2, 8)
        a = ln(Tensor(x)).data
        b = ln(Tensor(x * 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-3)


class TestConvMLP:
    def test_conv_shapes(self):
        conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        out = conv(Tensor(_x(2, 3, 10, 10)))
        assert out.shape == (2, 8, 10, 10)

    def test_conv_zero_init(self):
        conv = Conv2d(3, 3, 3, padding=1, zero_init=True)
        x = _x(1, 3, 6, 6)
        np.testing.assert_array_equal(conv(Tensor(x)).data, 0.0)

    def test_mlp_shapes_and_hidden(self):
        mlp = MLP(8, 32, rng=np.random.default_rng(0))
        assert mlp.fc1.weight.shape == (32, 8)
        out = mlp(Tensor(_x(2, 5, 8)))
        assert out.shape == (2, 5, 8)
