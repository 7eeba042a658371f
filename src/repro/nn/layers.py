"""Dense, convolutional, and normalization layers."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, conv2d, gelu, layernorm, linear
from . import init
from .module import Module, Parameter

__all__ = ["Linear", "Conv2d", "LayerNorm", "MLP", "Sequential"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` on the trailing dimension.

    Weight layout is ``(out_features, in_features)`` so tensor-parallel
    sharding (row = input dim, column = output dim) matches Megatron's
    convention (see ``repro.distributed.hybrid_op``).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution on NCHW tensors (patch gather + GEMM under the hood)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None, zero_init: bool = False):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        w = init.zeros(shape) if zero_init else init.kaiming_normal(shape, rng)
        self.weight = Parameter(w)
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.padding)


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones((dim,)))
        self.bias = Parameter(init.zeros((dim,)))

    def forward(self, x: Tensor) -> Tensor:
        return layernorm(x, self.weight, self.bias, eps=self.eps)


class MLP(Module):
    """Transformer feed-forward sub-layer: Linear → GELU → Linear."""

    def __init__(self, dim: int, hidden_dim: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        hidden_dim = hidden_dim or 4 * dim
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for i, mod in enumerate(self._items):
            self._modules[str(i)] = mod

    def forward(self, x: Tensor) -> Tensor:
        for mod in self._items:
            x = mod(x)
        return x
