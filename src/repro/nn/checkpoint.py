"""Activation checkpointing (gradient rematerialization).

Long-sequence training is activation-memory bound; checkpointing trades
compute for memory by discarding intermediate activations in the forward
pass and recomputing them during backward.  This is the standard
technique large-model stacks pair with FSDP's layer wrapping (Sec. III-D)
to keep peak memory at O(one layer) instead of O(depth).

``checkpoint(fn, *inputs)`` runs ``fn`` WITHOUT building a graph, storing
only inputs and outputs; on backward it re-runs ``fn`` with gradients
enabled and backpropagates through the fresh subgraph.  Parameters used
inside ``fn`` receive their gradients during the re-run (they are graph
leaves), so training semantics are identical — verified in tests.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor.tensor import OUTPUT, _alloc
from .module import Module

__all__ = ["checkpoint", "CheckpointedSequential", "checkpointed_activation_bytes"]


def checkpoint(fn, *inputs: Tensor, params: list[Tensor] | None = None) -> Tensor:
    """Memory-saving evaluation of ``fn(*inputs)``.

    ``fn`` must be deterministic (re-run on backward) and return a single
    Tensor.  Gradients flow to ``inputs`` and to any Parameters ``fn``
    touches — if ``fn`` is a :class:`Module` its parameters are detected
    automatically; otherwise pass the trainables via ``params`` so the
    output participates in the outer graph even when no input requires
    grad.
    """
    if params is None and isinstance(fn, Module):
        params = fn.parameters()
    params = tuple(params or ())
    node_data = None

    def run():
        # opaque region: re-run fn eagerly (no graph) against the live
        # input buffers into the node's own buffer, which the first run
        # allocates (the region's output shape is known only once fn has
        # run); backward rematerializes a fresh subgraph anyway
        nonlocal node_data
        with no_grad():
            out = fn(*[Tensor(t.data) for t in inputs]).data
        if node_data is None:
            node_data = _alloc(OUTPUT, out.shape, fill=out)
        else:
            np.copyto(node_data, out)

    def backward(g):
        # rematerialize: rebuild the subgraph with gradients enabled; the
        # parameters are leaves of the fresh subgraph, so the inner
        # backward accumulates their .grad in place
        leaves = [Tensor(t.data, requires_grad=True) for t in inputs]
        out = fn(*leaves)
        out.backward(np.asarray(g, dtype=np.float32))
        grads = [(orig, leaf.grad) for orig, leaf in zip(inputs, leaves)]
        grads.extend((p, None) for p in params)  # already accumulated
        return tuple(grads)

    run()
    return Tensor._from_op(node_data, inputs + params, backward, "checkpoint", replay=run)


class CheckpointedSequential(Module):
    """Run sub-modules in order, checkpointing each one.

    Peak stored activations drop from O(depth · layer) to
    O(depth · boundary + one layer's recompute working set) — the
    layer-wrapping memory profile.
    """

    def __init__(self, *modules: Module):
        super().__init__()
        self._items = list(modules)
        for i, mod in enumerate(self._items):
            self._modules[str(i)] = mod

    def __len__(self):
        return len(self._items)

    def forward(self, x: Tensor) -> Tensor:
        for mod in self._items:
            x = checkpoint(mod, x)
        return x


def checkpointed_activation_bytes(depth: int, tokens: int, dim: int,
                                  per_layer_tensors: int = 16,
                                  bytes_per_elem: int = 2,
                                  checkpointing: bool = True) -> float:
    """Stored-activation bytes for a ``depth``-layer transformer.

    Without checkpointing every layer keeps ~``per_layer_tensors``
    activations alive for backward; with it, only the layer boundaries
    plus one layer's working set survive.
    """
    boundary = tokens * dim * bytes_per_elem
    if not checkpointing:
        return depth * per_layer_tensors * boundary
    return depth * boundary + per_layer_tensors * boundary
