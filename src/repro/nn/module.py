"""Module/Parameter abstractions (the ``torch.nn.Module`` substitute).

A :class:`Module` tracks parameters and sub-modules through attribute
assignment, supports train/eval mode, flat ``state_dict`` round-trips for
checkpointing, and exposes parameter iteration for optimizers and for
:class:`~repro.nn.flat.FlatParamBuffer` (the flat vector FSDP shards is
exactly what ``parameters()`` yields, in order).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList", "Identity"]


class Parameter(Tensor):
    """A trainable tensor; always requires grad."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all model components."""

    def __init__(self):
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------ #
    # registration through attribute protocol
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    # ------------------------------------------------------------------ #
    # iteration
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for name, mod in self._modules.items():
            yield from mod.named_modules(prefix=f"{prefix}{name}.")

    def num_parameters(self) -> int:
        """Total scalar parameter count (used for the 9.5M/126M/1B/10B configs)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # train/eval & gradients
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # checkpoint round-trip
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            if name in state:
                arr = np.asarray(state[name], dtype=np.float32)
                if arr.shape != p.data.shape:
                    raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
                p.data[...] = arr

    # ------------------------------------------------------------------ #
    # call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """A list of sub-modules registered in order (e.g. transformer blocks)."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for mod in modules:
            self.append(mod)

    def append(self, mod: Module) -> None:
        self._modules[str(len(self._items))] = mod
        self._items.append(mod)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def forward(self, x):
        for mod in self._items:
            x = mod(x)
        return x


class Identity(Module):
    """No-op module (the disabled adaptive-compression slot in Reslim)."""

    def forward(self, x):
        return x
