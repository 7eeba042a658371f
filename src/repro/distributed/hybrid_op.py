"""Hybrid-OP: alternating row/column sharding for matrix chains.

Adopted from ORBIT (Sec. III-D, "Hybrid-OP Parallelism").  For a chain of
matrix multiplications ``x @ W1^T @ W2^T @ ... @ Wk^T``, sharding the
weights in *alternating* column/row orientation exploits the structure of
chain multiplication: a column-sharded layer produces exactly the
feature slices a row-sharded layer consumes, so communication is needed
only after every row layer (one all-reduce per PAIR) instead of an
all-gather after EVERY layer as naive output-sharding requires.  This
halves collective count and volume — the "reduced communication overhead
and frequency" the paper credits Hybrid-OP with.

Megatron tensor parallelism (Sec. III-C) is the one-pair case: the MLP
``fc2(gelu(fc1(x)))`` is ``HybridOpChain([w1, w2], group, biases=[b1,
b2], activation=gelu)`` — column-parallel fc1, a rank-local GELU on its
output slices, row-parallel fc2 and ONE all-reduce per forward.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .comm import ProcessGroup

__all__ = ["HybridOpChain", "hybrid_chain_volume", "naive_sharded_chain_volume",
           "split_columns", "split_rows"]


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


class HybridOpChain:
    """Execute a matrix chain with alternating column/row sharding.

    ``weights[i]`` has shape (d_{i+1}, d_i); even-indexed weights are
    column-sharded, odd-indexed row-sharded.  With an even-length chain
    the result is mathematically identical to the unsharded chain, with
    one all-reduce per weight pair.

    ``biases`` (one per weight) turns each layer affine: a column layer's
    bias is split with its output slices, a row layer's is added once,
    after the all-reduce.  ``activation`` runs rank-locally on every
    column layer's output slices.
    """

    def __init__(self, weights: list[np.ndarray], group: ProcessGroup,
                 biases: list[np.ndarray] | None = None,
                 activation: Callable[[np.ndarray], np.ndarray] | None = None):
        if not weights:
            raise ValueError("empty chain")
        if len(weights) % 2:
            raise ValueError("Hybrid-OP pairs layers; need an even-length chain")
        for a, b in zip(weights[:-1], weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValueError(f"chain shape mismatch: {a.shape} -> {b.shape}")
        if biases is not None and [b.shape for b in biases] != [w.shape[:1] for w in weights]:
            raise ValueError("need one (d_out,) bias per weight")
        self.group = group
        self.activation = activation
        self.shards: list[list[np.ndarray]] = []
        for i, w in enumerate(weights):
            if i % 2 == 0:
                self.shards.append(split_columns(w, group.size))   # output-sharded
            else:
                self.shards.append(split_rows(w, group.size))      # input-sharded
        self.weights = [w.copy() for w in weights]
        self.biases = None if biases is None else [b.copy() for b in biases]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the sharded chain; all-reduce only after each row layer."""
        current_full = x.astype(np.float32)
        for i in range(0, len(self.shards), 2):
            col_shards = self.shards[i]
            row_shards = self.shards[i + 1]
            # column layer: replicated input → per-rank slices (no comm)
            slices = [current_full @ w.T for w in col_shards]
            if self.biases is not None:
                slices = [(s + b).astype(np.float32) for s, b in
                          zip(slices, np.split(self.biases[i], self.group.size))]
            if self.activation is not None:
                slices = [self.activation(s) for s in slices]   # rank-local
            # row layer: per-rank slices → partial sums → ONE all-reduce
            partials = [
                (slices[r] @ row_shards[r].T).astype(np.float32)
                for r in range(self.group.size)
            ]
            current_full = self.group.all_reduce(partials, op="sum")[0]
            if self.biases is not None:
                current_full = (current_full + self.biases[i + 1]).astype(np.float32)
        return current_full

    def reference(self, x: np.ndarray) -> np.ndarray:
        """The unsharded chain in float64."""
        out = x.astype(np.float64)
        for i, w in enumerate(self.weights):
            out = out @ w.T
            if self.biases is not None:
                out = out + self.biases[i]
            if self.activation is not None and i % 2 == 0:
                out = self.activation(out)
        return out.astype(np.float32)

    def collectives_issued(self) -> int:
        """All-reduces per forward: one per layer pair."""
        return len(self.shards) // 2


def naive_sharded_chain_volume(batch: int, dims: list[int], world: int) -> float:
    """Bytes/rank for output-sharding every layer + all-gather after each.

    After every layer the (batch, d_out) activation must be all-gathered
    so the next layer sees its full input: volume (P-1)/P · batch·d_out·4
    per layer.
    """
    total = 0.0
    for d_out in dims[1:]:
        total += (world - 1) / world * batch * d_out * 4
    return total


def hybrid_chain_volume(batch: int, dims: list[int], world: int) -> float:
    """Bytes/rank under Hybrid-OP: one all-reduce after every layer PAIR.

    Ring all-reduce moves 2·(P-1)/P · batch·d_out·4 bytes per rank, but
    only at the pair outputs (every second dim).
    """
    if (len(dims) - 1) % 2:
        raise ValueError("need an even number of layers")
    total = 0.0
    for i in range(2, len(dims), 2):
        total += 2 * (world - 1) / world * batch * dims[i] * 4
    return total
