"""BFLOAT16 mixed precision with dynamic gradient scaling.

Reproduces the paper's recipe (Sec. III-D): activations/weights are
rounded to the bfloat16 grid on the forward pass while master weights and
optimizer state stay float32, and a dynamic :class:`GradScaler` multiplies
the loss so small gradients survive the 8-bit mantissa, backing off on
overflow exactly like ``torch.cuda.amp.GradScaler``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, bf16_round
from ..tensor.tensor import _unary_node
from .module import Module, Parameter

__all__ = ["GradScaler", "autocast_module", "Bf16Cast"]


class GradScaler:
    """Dynamic loss scaling for bf16 training.

    ``scale()`` multiplies the loss; after backward, ``step()`` checks all
    gradients for inf/NaN.  If any are found the optimizer step is skipped
    and the scale halves; after ``growth_interval`` consecutive clean
    steps it doubles (capped).  This is the standard PyTorch algorithm.
    """

    def __init__(self, init_scale: float = 2.0**16, growth_factor: float = 2.0,
                 backoff_factor: float = 0.5, growth_interval: int = 200,
                 max_scale: float = 2.0**24):
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        self.scale_value = float(init_scale)
        self.growth_factor = growth_factor
        self.backoff_factor = backoff_factor
        self.growth_interval = growth_interval
        self.max_scale = max_scale
        self._good_steps = 0
        self.num_overflows = 0

    def scale(self, loss: Tensor) -> Tensor:
        return loss * self.scale_value

    def found_overflow(self, params: list[Parameter]) -> bool:
        for p in params:
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                return True
        return False

    def unscale(self, params: list[Parameter]) -> None:
        inv = 1.0 / self.scale_value
        for p in params:
            if p.grad is not None:
                p.grad *= inv

    def step(self, optimizer) -> bool:
        """Unscale, check, and either step the optimizer or skip.

        Returns True if the step was taken.
        """
        return self.step_all([optimizer])

    def step_all(self, optimizers) -> bool:
        """One scaler decision over several optimizers (one per replica).

        Distributed strategies hold one optimizer per model unit but the
        units share a gradient (post-reduction), so overflow must skip
        *all* steps together and the scale bookkeeping advances once per
        training step, not once per unit.  Returns True if stepped.
        """
        if any(self.found_overflow(opt.params) for opt in optimizers):
            self.num_overflows += 1
            self._good_steps = 0
            self.scale_value = max(self.scale_value * self.backoff_factor, 1.0)
            for opt in optimizers:
                opt.zero_grad()
            return False
        for opt in optimizers:
            self.unscale(opt.params)
            opt.step()
        self._good_steps += 1
        if self._good_steps >= self.growth_interval:
            self.scale_value = min(self.scale_value * self.growth_factor, self.max_scale)
            self._good_steps = 0
        return True


class Bf16Cast(Module):
    """Round activations to the bfloat16 grid in the forward pass.

    The rounding is treated as straight-through for gradients (the
    standard mixed-precision semantics: backward flows in the unrounded
    space, master copies stay float32).
    """

    def forward(self, x: Tensor) -> Tensor:
        return _unary_node(lambda v, out: np.copyto(out, bf16_round(v)), x,
                           "bf16_cast", lambda g, v, y: g)


def autocast_module(module: Module) -> None:
    """Round a module's parameters to the bf16 grid in place.

    Emulates casting the weights for a bf16 forward; call on a *copy* of
    the master weights (or accept the small parity loss) — the trainer
    keeps float32 masters and re-rounds per step when bf16 is enabled.
    """
    for p in module.parameters():
        p.data[...] = bf16_round(p.data)
