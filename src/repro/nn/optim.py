"""Optimizers and learning-rate schedules.

AdamW is the workhorse for ViT training; SGD exists as the simple
baseline and for tests.  Optimizer state lives in plain float32 NumPy
arrays keyed by parameter identity, which is also what FSDP shards when
it distributes optimizer state across ranks.

Both optimizers accept ``flatten=True``, which moves the model onto a
:class:`~repro.nn.flat.FlatParamBuffer` and performs **one** vectorised
update over the contiguous buffer per step instead of a Python loop over
parameter tensors.  The elementwise operation sequence is identical, so
flat and per-parameter modes produce bit-identical trajectories — with
one documented semantic difference: the per-parameter loop *skips*
parameters whose ``.grad`` is ``None``, while flat mode treats a missing
gradient as zero (moments still decay, weight decay still applies).
Models whose parameters all receive gradients every step — every Reslim
configuration in this repo — see no difference.
"""

from __future__ import annotations

import numpy as np

from .flat import FlatParamBuffer
from .module import Parameter

__all__ = ["SGD", "AdamW", "cosine_schedule", "warmup_cosine", "clip_grad_norm"]


class Optimizer:
    """Base optimizer: holds parameter list and learning rate.

    With ``flatten=True`` the parameters are moved onto a shared
    :class:`FlatParamBuffer` (``self.flat``) and ``zero_grad`` zeroes the
    flat gradient buffer in one memset, keeping the pre-attached views
    alive for the backward pass's in-place accumulation.  Passing an
    existing buffer via ``flat=`` *adopts* it instead of wrapping the
    parameters a second time — the path distributed strategies use so
    optimizer steps and gradient collectives share one allocation.
    """

    def __init__(self, params: list[Parameter], lr: float, flatten: bool = False,
                 flat: FlatParamBuffer | None = None):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = float(lr)
        if flat is not None:
            if len(flat.params) != len(self.params) or any(
                a is not b for a, b in zip(flat.params, self.params)
            ):
                raise ValueError("adopted FlatParamBuffer wraps different parameters")
            self.flat: FlatParamBuffer | None = flat
        else:
            self.flat = FlatParamBuffer(self.params) if flatten else None

    def zero_grad(self) -> None:
        if self.flat is not None:
            self.flat.zero_grad()
        else:
            for p in self.params:
                p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Plain SGD with optional momentum."""

    def __init__(self, params, lr: float = 1e-2, momentum: float = 0.0,
                 flatten: bool = False, flat: FlatParamBuffer | None = None):
        super().__init__(params, lr, flatten=flatten, flat=flat)
        self.momentum = momentum
        if self.flat is not None:
            self._velocity = [np.zeros_like(self.flat.data)]
        else:
            self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        if self.flat is not None:
            self.flat.sync_grads()
            g = self.flat.grad
            if self.momentum:
                v = self._velocity[0]
                v *= self.momentum
                v += g
                self.flat.data -= self.lr * v
            else:
                self.flat.data -= self.lr * g
            return
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class AdamW(Optimizer):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    In flat mode two scratch buffers make the step allocation-free.
    """

    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01,
                 flatten: bool = False, flat: FlatParamBuffer | None = None):
        super().__init__(params, lr, flatten=flatten, flat=flat)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        if self.flat is not None:
            self._m = [np.zeros_like(self.flat.data)]
            self._v = [np.zeros_like(self.flat.data)]
            self._scratch = (np.empty_like(self.flat.data),
                             np.empty_like(self.flat.data))
        else:
            self._m = [np.zeros_like(p.data) for p in self.params]
            self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        if self.flat is not None:
            # same elementwise sequence as the per-parameter loop below,
            # rewritten into preallocated scratch (bit-identical: float
            # multiplication commutes, so m_hat*lr == lr*m_hat etc.)
            self.flat.sync_grads()
            g = self.flat.grad
            m, v = self._m[0], self._v[0]
            s, s2 = self._scratch
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1 - self.beta2
            v += s
            if self.weight_decay:
                np.multiply(self.flat.data, self.lr * self.weight_decay, out=s)
                self.flat.data -= s
            np.divide(m, bc1, out=s)      # m_hat
            s *= self.lr                  # lr * m_hat
            np.divide(v, bc2, out=s2)     # v_hat
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s /= s2
            self.flat.data -= s
            return
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_nbytes(self) -> int:
        """Bytes of optimizer state — FSDP's sharding target (2 moments)."""
        return sum(m.nbytes + v.nbytes for m, v in zip(self._m, self._v))

    def export_state(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Copy out flat-mode moment vectors and step count (canonical form).

        Flat mode only: the moments live in the same canonical layout as
        the flat parameter buffer, which is what the elastic remap moves.
        """
        if self.flat is None:
            raise ValueError("export_state requires flat mode")
        return self._m[0].copy(), self._v[0].copy(), self.t

    def import_state(self, m: np.ndarray, v: np.ndarray, t: int) -> None:
        """Overwrite flat-mode moments and step count in place, bitwise.

        The scratch buffers need no reset — every step fully rewrites
        them via ``out=`` before reading, so imported state reproduces a
        fresh optimizer's trajectory bit-for-bit.
        """
        if self.flat is None:
            raise ValueError("import_state requires flat mode")
        m = np.asarray(m, dtype=np.float32).reshape(-1)
        v = np.asarray(v, dtype=np.float32).reshape(-1)
        size = self._m[0].size
        if m.size < size or v.size < size:
            raise ValueError(
                f"moment vectors of {m.size}/{v.size} < buffer of {size}")
        self._m[0][...] = m[:size]
        self._v[0][...] = v[:size]
        self.t = int(t)


def cosine_schedule(step: int, total_steps: int, base_lr: float, min_lr: float = 0.0) -> float:
    """Cosine decay from ``base_lr`` to ``min_lr`` over ``total_steps``."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    frac = min(max(step / total_steps, 0.0), 1.0)
    return min_lr + 0.5 * (base_lr - min_lr) * (1 + np.cos(np.pi * frac))


def warmup_cosine(step: int, warmup_steps: int, total_steps: int,
                  base_lr: float, min_lr: float = 0.0) -> float:
    """Linear warmup followed by cosine decay (the standard ViT schedule)."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    return cosine_schedule(step - warmup_steps, max(total_steps - warmup_steps, 1), base_lr, min_lr)


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging/instability detection).
    A non-finite norm is returned as is and the gradients are left
    untouched, so overflow detection downstream sees the original
    ``inf``/``NaN`` rather than ``inf * 0``.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        return norm
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm
