"""Contiguous flat parameter/gradient buffers.

One allocation holds every parameter of a model, and a second one holds
every gradient.  Each :class:`~repro.nn.module.Parameter`'s ``.data`` is
re-pointed to a reshaped view into the flat data buffer, and ``.grad`` is
pre-attached to a view into the flat gradient buffer — the backward
pass's in-place leaf accumulation (``np.add(..., out=self.grad)``) then
writes straight into the flat array with zero copies.

This buys three things on the hot path:

* ``nn.optim`` runs **one** vectorised Adam/SGD update per model instead
  of a Python loop over dozens of parameter tensors;
* ``distributed.strategy`` issues **one** collective per reduce phase
  over the flat gradient buffer instead of per-parameter calls;
* gradient clipping / loss-scale unscaling (which use in-place ``*=``)
  operate on views and need no change.

The layout is the model's deterministic ``named_parameters()`` order, so
every rank of a data-parallel job builds an identical flat layout and
collectives over the raw buffers are element-aligned.
"""

from __future__ import annotations

import numpy as np

from .module import Module, Parameter

__all__ = ["FlatParamBuffer", "flatten_grads"]


def flatten_grads(model: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one float32 vector, in
    :class:`FlatParamBuffer` order (a missing gradient reads as zeros)."""
    parts = []
    for p in model.parameters():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        parts.append(g.reshape(-1))
    return np.concatenate(parts).astype(np.float32)


class FlatParamBuffer:
    """A flat float32 view over a list of parameters.

    Construction copies each parameter's current values into the flat
    ``data`` array once, then re-points ``p.data`` at a view of it; all
    later updates (optimizer steps, ``load_state_dict``'s in-place
    assignment) mutate the shared storage.
    ``p.grad`` is attached to a zeroed view of the flat ``grad`` array so
    gradient accumulation lands in the buffer directly.

    Gradient views are attached on the first :meth:`zero_grad` (every
    optimizer/DDP step starts with one), so backward's in-place leaf
    accumulation lands in the flat buffer directly.  Code that *detaches*
    ``p.grad`` (sets it to ``None`` or replaces the array, e.g.
    ``Module.zero_grad``) is reconciled by :meth:`sync_grads`, which
    copies stray arrays back into the flat views.  Prefer :meth:`zero_grad` over ``Module.zero_grad`` between
    steps to stay on the zero-copy path.
    """

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        if not self.params:
            raise ValueError("FlatParamBuffer got an empty parameter list")
        sizes = [int(p.data.size) for p in self.params]
        bounds = np.cumsum([0] + sizes)
        self.spans: list[tuple[int, int]] = [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self.size = int(bounds[-1])
        self.data = np.empty(self.size, dtype=np.float32)
        self.grad = np.zeros(self.size, dtype=np.float32)
        self._grad_views: list[np.ndarray] = []
        for p, (lo, hi) in zip(self.params, self.spans):
            dview = self.data[lo:hi].reshape(p.data.shape)
            dview[...] = p.data
            p.data = dview
            gview = self.grad[lo:hi].reshape(dview.shape)
            self._grad_views.append(gview)
        # .grad views are attached lazily by zero_grad()/sync_grads() so a
        # freshly wrapped model still reports p.grad is None until a
        # backward (or an explicit zero_grad) happens

    def _attach_grad_views(self) -> None:
        for p, gview in zip(self.params, self._grad_views):
            p.grad = gview

    def zero_grad(self) -> None:
        """Zero the flat gradient buffer and re-attach the per-param views."""
        self.grad[...] = 0.0
        self._attach_grad_views()

    def sync_grads(self) -> None:
        """Fold any detached per-parameter gradients back into the buffer.

        A parameter whose ``.grad`` is still the attached view costs
        nothing.  ``None`` becomes zeros (missing-grad-as-zero — see the
        optimizer docs); a foreign array is copied in and the view
        re-attached.
        """
        for p, gview in zip(self.params, self._grad_views):
            if p.grad is gview:
                continue
            if p.grad is None:
                gview[...] = 0.0
            else:
                gview[...] = p.grad
            p.grad = gview

    def padded_size(self, multiple: int) -> int:
        """Flat size rounded up to a multiple (FSDP shard alignment)."""
        if multiple < 1:
            raise ValueError("multiple must be >= 1")
        return -(-self.size // multiple) * multiple

    def load_grad(self, flat: np.ndarray) -> None:
        """Write a flat (possibly padded) gradient back into the buffer.

        The pre-attached per-parameter ``.grad`` views see the new values
        immediately — no per-parameter unflatten copies.
        """
        if flat.size < self.size:
            raise ValueError(f"gradient of {flat.size} < buffer of {self.size}")
        self.grad[...] = flat.reshape(-1)[: self.size]

    def export_data(self) -> np.ndarray:
        """Copy out the flat parameter vector (canonical layout).

        The layout is the deterministic ``named_parameters()`` order every
        plan shares, so the returned vector is the plan-independent
        canonical form used by :mod:`repro.distributed.elastic`.
        """
        return self.data.copy()

    def load_data(self, flat: np.ndarray) -> None:
        """Overwrite the flat parameter vector in place, bitwise.

        Every ``p.data`` view sees the new values immediately.  ``flat``
        may be padded; extra tail elements are ignored.
        """
        flat = np.asarray(flat, dtype=np.float32).reshape(-1)
        if flat.size < self.size:
            raise ValueError(f"state of {flat.size} < buffer of {self.size}")
        self.data[...] = flat[: self.size]
