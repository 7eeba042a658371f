"""Megatron-style tensor model parallelism (Sec. III-C).

Weight matrices are partitioned across the ranks of a tensor-parallel
group and *stay* partitioned throughout training (unlike FSDP's
transient gathers):

* :class:`ColumnParallelLinear` splits the output dimension — each rank
  computes a slice of the output features; no communication on the
  forward if the next layer is row-parallel.
* :class:`RowParallelLinear` splits the input dimension — each rank
  computes a partial product over its input slice, and one all-reduce
  sums the partials.

The canonical Megatron MLP (column → GELU → row) therefore needs exactly
ONE all-reduce per forward, which :class:`TensorParallelMLP` demonstrates
and the tests verify against the unsharded reference to float precision.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, gelu
from .comm import ProcessGroup

__all__ = ["ColumnParallelLinear", "RowParallelLinear", "TensorParallelMLP", "split_columns", "split_rows"]


def split_columns(weight: np.ndarray, world: int) -> list[np.ndarray]:
    """Split an (out, in) weight along the OUTPUT dimension."""
    if weight.shape[0] % world:
        raise ValueError(f"output dim {weight.shape[0]} not divisible by {world}")
    return [w.copy() for w in np.split(weight, world, axis=0)]


def split_rows(weight: np.ndarray, world: int) -> list[np.ndarray]:
    """Split an (out, in) weight along the INPUT dimension."""
    if weight.shape[1] % world:
        raise ValueError(f"input dim {weight.shape[1]} not divisible by {world}")
    return [w.copy() for w in np.split(weight, world, axis=1)]


def _gelu(x: np.ndarray) -> np.ndarray:
    return gelu(Tensor(x)).data


class ColumnParallelLinear:
    """y_r = x @ W_r^T + b_r with W split by output features."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None, group: ProcessGroup):
        self.group = group
        self.weight_shards = split_columns(weight, group.size)
        self.bias_shards = (
            [b.copy() for b in np.split(bias, group.size)] if bias is not None else None
        )

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Input is replicated; output is a per-rank slice (no comm)."""
        outs = []
        for r in range(self.group.size):
            y = x @ self.weight_shards[r].T
            if self.bias_shards is not None:
                y = y + self.bias_shards[r]
            outs.append(y.astype(np.float32))
        return outs

    def gather_output(self, outs: list[np.ndarray]) -> np.ndarray:
        """Optional all-gather when the full output is needed."""
        gathered = self.group.all_gather([o.T.copy() for o in outs])[0]
        return gathered.T  # concat along feature axis


class RowParallelLinear:
    """y = sum_r x_r @ W_r^T + b, with W split by input features."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None, group: ProcessGroup):
        self.group = group
        self.weight_shards = split_rows(weight, group.size)
        self.bias = bias.copy() if bias is not None else None

    def forward(self, x_shards: list[np.ndarray]) -> np.ndarray:
        """Per-rank input slices → all-reduced full output (ONE all-reduce)."""
        if len(x_shards) != self.group.size:
            raise ValueError(f"expected {self.group.size} input shards")
        partials = [
            (x_shards[r] @ self.weight_shards[r].T).astype(np.float32)
            for r in range(self.group.size)
        ]
        reduced = self.group.all_reduce(partials, op="sum")[0]
        if self.bias is not None:
            reduced = reduced + self.bias
        return reduced.astype(np.float32)


class TensorParallelMLP:
    """The Megatron MLP: column-parallel fc1 → GELU → row-parallel fc2.

    The GELU runs independently on each rank's activation slice; the only
    collective is the row layer's all-reduce, so per-token communication
    volume is one hidden-activation tensor per forward.
    """

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray,
                 group: ProcessGroup):
        hidden = w1.shape[0]
        if w2.shape[1] != hidden:
            raise ValueError("fc2 input dim must match fc1 output dim")
        self.fc1 = ColumnParallelLinear(w1, b1, group)
        self.fc2 = RowParallelLinear(w2, b2, group)
        self.group = group

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden_shards = self.fc1.forward(x)          # no comm
        activated = [_gelu(h) for h in hidden_shards]  # rank-local
        return self.fc2.forward(activated)           # one all-reduce

    @staticmethod
    def reference(x, w1, b1, w2, b2) -> np.ndarray:
        """Unsharded single-device computation for verification."""
        return (_gelu(x @ w1.T + b1) @ w2.T + b2).astype(np.float32)

    def per_rank_param_bytes(self) -> int:
        """Parameter bytes on one rank — 1/world of the full weights."""
        return (
            self.fc1.weight_shards[0].nbytes
            + (self.fc1.bias_shards[0].nbytes if self.fc1.bias_shards else 0)
            + self.fc2.weight_shards[0].nbytes
            + (self.fc2.bias.nbytes if self.fc2.bias is not None else 0)
        )
