"""Reverse-mode automatic differentiation on NumPy arrays.

This is the compute substrate for the whole reproduction: the paper uses
PyTorch, which is unavailable here, so we implement a tape-based autograd
engine of our own.  Design follows the guide's advice for numerical
Python — every op is a vectorised NumPy expression, gradients are computed
with broadcasting-aware reductions, and no per-element Python loops appear
anywhere on the hot path.

The public surface mirrors a small subset of ``torch.Tensor``:

>>> a = Tensor(np.ones((2, 3)), requires_grad=True)
>>> b = (a * 2.0).sum()
>>> b.backward()
>>> a.grad
array([[2., 2., 2.],
       [2., 2., 2.]], dtype=float32)

Gradients accumulate into ``.grad`` (float32).  A computation graph node
stores its parents and a closure that maps the upstream gradient to
parent gradients; ``backward`` runs a topological sort and walks it once.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

from .flops import FLOPS, active_counter, price

__all__ = [
    "Tensor",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "graph_counters",
    "reset_graph_counters",
    "set_op_hook",
    "set_recorder",
]

_state = threading.local()

#: Optional observer called once per recorded tape node with
#: ``(op, out_data, parent_datas)``.  None (the default) keeps the hot
#: path at a single identity check; ``repro.obs`` installs its FLOP/byte
#: accounting here while a tracer is active.
_op_hook = None


def set_op_hook(hook) -> None:
    """Install (or clear, with None) the per-tape-node observer."""
    global _op_hook
    _op_hook = hook


#: Optional tape recorder (see :mod:`repro.tensor.compile`).  While set,
#: every op constructed with grad enabled reports
#: ``(out, parents, op, replay)`` so a :class:`CompiledStep` can serialize
#: the forward program.  ``replay`` is either ``"view"`` (the output
#: aliases its parent's buffer and needs no recompute), the op's forward
#: routine, which the eager call already ran (zero arguments; it refills
#: the op's output and saved buffers in place from its parents' current
#: ``.data``), or None for ops that cannot be replayed.
_recorder = None


def set_recorder(recorder) -> None:
    """Install (or clear, with None) the tape recorder used for capture."""
    global _recorder
    _recorder = recorder


#: Forward buffer kinds: the op's result; state its backward reads; a
#: workspace read only inside its ``run()``; content set at allocation
#: (a zero border, a ones column) and read on every replay.
OUTPUT, SAVED, SCRATCH, PERSISTENT = range(4)


def _alloc(kind: int, shape=(), dtype=np.float32, like=None, fill=None) -> np.ndarray:
    """The one allocation site of ops' forward buffers.  ``like`` is
    ``np.empty_like``'s; ``fill`` sets the content.  Under a capture the
    recorder places the buffer (:mod:`repro.tensor.compile`)."""
    if _recorder is not None and is_grad_enabled():
        return _recorder.alloc(kind, shape, dtype, like, fill)
    buf = np.empty_like(like) if like is not None else np.empty(shape, dtype)
    if fill is not None:
        buf[...] = fill
    return buf


#: Deterministic accounting of graph construction and backward-pass memory
#: traffic.  Unlike wall-clock these counts are machine-independent, so the
#: golden regression test pins them to catch copy/allocation regressions.
#: ``arena_bytes`` is a gauge (live compiled-arena bytes), not a counter.
_COUNTERS = {
    "nodes": 0,            # tape nodes recorded by _from_op
    "bwd_inplace_adds": 0,  # accumulations done with np.add(..., out=)
    "bwd_new_buffers": 0,   # fresh arrays allocated during the walk
    "bwd_handoffs": 0,      # parent grads stored by reference (zero-copy)
    "leaf_copies": 0,       # copies made when materialising leaf .grad
    "captures": 0,          # CompiledStep tape captures (incl. recaptures)
    "replays": 0,           # CompiledStep program replays (no tape built)
    "guard_misses": 0,      # shape/dtype/flag guard failures -> recapture
    "arena_bytes": 0,       # live bytes held by compiled activation arenas
}


def graph_counters() -> dict[str, int]:
    """Snapshot of the engine's node/copy/allocation counters."""
    return dict(_COUNTERS)


def reset_graph_counters() -> None:
    """Zero all engine counters (call before a measured region).

    ``arena_bytes`` is exempt: it is a gauge of currently-live compiled
    arenas, decremented when a plan is released, so zeroing it while
    plans are alive would corrupt the accounting.
    """
    for key in _COUNTERS:
        if key != "arena_bytes":
            _COUNTERS[key] = 0


def is_grad_enabled() -> bool:
    """Whether new ops record themselves on the autograd tape."""
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    prev = is_grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


@contextlib.contextmanager
def enable_grad():
    """Context manager re-enabling graph construction inside ``no_grad``.

    Used by :class:`repro.tensor.compile.CompiledStep` so a forward-only
    capture still records the tape even when the caller wrapped inference
    in ``no_grad()``.
    """
    prev = is_grad_enabled()
    _state.grad_enabled = True
    try:
        yield
    finally:
        _state.grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` undoing NumPy broadcasting.

    Sums over the leading dimensions that were added and over axes where
    the original size was 1 but the broadcast size was larger.

    Fast paths: a shape match returns ``grad`` itself (zero-copy — the
    backward walk's ownership tracking makes handing the upstream gradient
    through safe), and a leading-dims-only reduction skips the keepdims
    scan and the final reshape when the summed result already matches.
    """
    if grad.shape == shape:
        return grad
    ndim_diff = grad.ndim - len(shape)
    if ndim_diff > 0:
        grad = grad.sum(axis=tuple(range(ndim_diff)))
        if grad.shape == shape:  # common case: only leading dims were added
            return grad
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape == shape:
        return grad
    return grad.reshape(shape)


def _reduced_shape(shape: tuple[int, ...], axis, keepdims: bool) -> tuple[int, ...]:
    """The shape of reducing ``shape`` over ``axis`` (None: every axis)."""
    axes = range(len(shape)) if axis is None else normalize_axis_tuple(axis, len(shape))
    return tuple(1 if i in axes else n for i, n in enumerate(shape)
                 if keepdims or i not in axes)


def _sigmoid(x: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = 1 / (1 + exp(-x))``, one in-place pass per step."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


def _unary_node(ufunc, a: "Tensor", op: str, grad, *args) -> "Tensor":
    """The node whose forward is the one call ``ufunc(a.data, *args)``.

    ``grad(g, x, y)`` maps the upstream gradient, the live input and the
    output to the input's gradient.  ``run`` fills the output in place:
    the eager call runs it once and compiled replay re-runs it.
    """
    out = _alloc(OUTPUT, like=a.data)

    def run():
        ufunc(a.data, *args, out=out)

    def backward(g):
        return ((a, grad(g, a.data, out)),)

    run()
    return Tensor._from_op(out, (a,), backward, op, replay=run)


def _binary_node(ufunc, a: "Tensor", b: "Tensor", op: str, grads,
                 shape: tuple[int, ...] | None = None) -> "Tensor":
    """The node whose forward is the one call ``ufunc(a.data, b.data)``.

    ``grads(g, x, y)`` maps the upstream gradient and the live inputs to
    both inputs' gradients before un-broadcasting; ``shape`` defaults to
    the broadcast of the inputs' shapes.
    """
    if shape is None:
        shape = np.broadcast(a.data, b.data).shape
    out = _alloc(OUTPUT, shape)

    def run():
        ufunc(a.data, b.data, out=out)

    def backward(g):
        ga, gb = grads(g, a.data, b.data)
        return ((a, _unbroadcast(ga, a.shape)), (b, _unbroadcast(gb, b.shape)))

    run()
    return Tensor._from_op(out, (a, b), backward, op, replay=run)


def _backward_released(g):
    """Sentinel installed on interior nodes after their graph is freed."""
    raise RuntimeError(
        "backward through a released graph: intermediate activations were "
        "freed by a previous backward(). Pass retain_graph=True to the "
        "first backward() if you need to backpropagate twice."
    )


# how the backward walk routed one closure-returned parent gradient: dropped,
# stored by reference, stored as a float32 cast, summed into a new buffer
# (second contribution), or added in place into the walk's own buffer
_SKIP, _STORE, _STORE_CAST, _ADD_NEW, _ADD_INPLACE = range(5)

# instruction kinds of a recorded backward program (see ``_walk_backward``)
_BW_NODE, _BW_LEAF = 0, 1


def _fold_leaf_grad(leaf: "Tensor", grad: np.ndarray, owned: bool) -> str | None:
    """Fold ``grad`` into ``leaf.grad`` with at most one allocation.

    ``owned=True`` promises that ``grad`` was freshly allocated by the
    caller (no other reference exists), so it can become ``leaf.grad``
    without a defensive copy.  Repeat accumulation is in-place, which
    also keeps ``leaf.grad`` valid when it is a view into a flat gradient
    buffer (see :mod:`repro.nn.flat`).  Bumps no counter: returns the
    name of the one the fold is charged to, or None for a handoff.
    """
    if leaf.grad is not None:
        np.add(leaf.grad, grad, out=leaf.grad)
        return "bwd_inplace_adds"
    if (owned and grad.dtype == np.float32
            and grad.flags.writeable and grad.shape == leaf.data.shape):
        leaf.grad = grad
        return None
    leaf.grad = np.array(grad, dtype=np.float32)
    if leaf.grad.shape != leaf.data.shape:  # broadcast-only grads
        leaf.grad = np.broadcast_to(leaf.grad, leaf.data.shape).copy()
    return "leaf_copies"


def _walk_backward(root: "Tensor", seed: np.ndarray,
                   program: list | None = None) -> tuple[list, float]:
    """Backpropagate ``seed`` from ``root``: the engine's one backward walk.

    The walk accumulates in-place wherever it is provably safe: a
    parent's first contribution is stored by reference (zero-copy —
    backward closures may hand the upstream gradient straight through),
    the second allocates the accumulation buffer, and every further
    contribution is an ``np.add(..., out=)`` into it.  Only arrays the
    walk itself allocated are ever mutated ("ownership tracking"), so
    closure outputs that alias forward activations or the upstream
    gradient are never corrupted.

    With a ``program`` list the walk also records itself for compiled
    replay (:mod:`repro.tensor.compile`): ``(_BW_LEAF, slot, leaf,
    owned)`` per leaf fold and ``(_BW_NODE, slot, closure, edges)`` per
    closure call, ``edges`` holding one ``(parent slot, mode)`` per
    returned gradient.  Slots index the walk's topological order, whose
    last entry is ``root``.

    Returns the topological order and the backward FLOPs, which are also
    charged to the active :class:`~repro.tensor.flops.FlopCounter`.
    """
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:  # iterative DFS: deep ViT graphs overflow recursion limits
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    slot = None if program is None else {id(n): i for i, n in enumerate(topo)}
    grads: dict[int, np.ndarray] = {id(root): seed}
    owned: set[int] = set()  # keys whose buffer was allocated by this walk
    flops = 0.0
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        g_owned = id(node) in owned
        owned.discard(id(node))
        if g is None:
            continue
        if node._backward is None:
            node._accumulate(g, owned=g_owned)
            if node._ready_hook is not None:
                # a leaf's grad is final exactly once per walk (reverse
                # topological order runs it after every consumer), so
                # this is the bucketed-reduction launch point
                node._ready_hook(node)
            if program is not None:
                program.append((_BW_LEAF, slot[id(node)], node, g_owned))
            continue
        edges = []
        for parent, pg in node._backward(g):
            key = id(parent)
            if not parent.requires_grad or pg is None:
                mode = _SKIP
            elif key in grads:
                if key in owned:
                    np.add(grads[key], pg, out=grads[key])
                    _COUNTERS["bwd_inplace_adds"] += 1
                    mode = _ADD_INPLACE
                else:
                    # second contribution: allocate the accumulation
                    # buffer once; later ones add into it in-place
                    grads[key] = grads[key] + pg
                    owned.add(key)
                    _COUNTERS["bwd_new_buffers"] += 1
                    mode = _ADD_NEW
            else:
                arr = np.asarray(pg, dtype=np.float32)
                grads[key] = arr
                if arr is not pg:  # dtype cast allocated a fresh array
                    owned.add(key)
                    _COUNTERS["bwd_new_buffers"] += 1
                    mode = _STORE_CAST
                else:
                    _COUNTERS["bwd_handoffs"] += 1
                    mode = _STORE
            if program is not None:
                edges.append((-1 if mode == _SKIP else slot[key], mode))
        flops += price(node._op).backward(node.data, node._parents)
        if program is not None:
            program.append((_BW_NODE, slot[id(node)], node._backward, tuple(edges)))
    # Invariant: every key inserted above names a node in ``topo`` (DFS
    # pushes exactly the requires_grad parents), and reverse topological
    # order processes each node after all of its consumers — so the walk
    # pops every entry.
    if grads:
        raise AssertionError(
            f"backward walk left {len(grads)} unconsumed gradient(s); "
            "the topological order is broken")
    counter = active_counter()
    if counter is not None:
        counter.total += flops
    return topo, flops


class Tensor:
    """A NumPy array plus an autograd tape node.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts; stored as float32.
    requires_grad:
        If True this tensor is a graph leaf whose gradient is retained.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_op", "_ready_hook")
    __array_priority__ = 100.0  # make NumPy defer to our __r*__ operators

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._ready_hook: Callable[["Tensor"], None] | None = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
        replay=None,
    ) -> "Tensor":
        out = cls(data)
        rule = FLOPS.get(op)
        if rule is not None:
            counter = active_counter()
            if counter is not None:
                counter.total += rule.forward(data, parents)
        grad_enabled = is_grad_enabled()
        if grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
            out._op = op
            _COUNTERS["nodes"] += 1
            if _op_hook is not None:
                _op_hook(op, data, tuple(p.data for p in parents))
        if _recorder is not None and grad_enabled:
            # capture records *every* op (even ones with no grad-requiring
            # parent): input-only chains must still be refreshed on replay
            _recorder.record(out, tuple(parents), op, replay)
        return out

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy). Mutating it bypasses autograd."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, "
                f"got shape {self.data.shape} ({self.data.size} elements)"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's data, cut from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self._op!r}{grad})"

    # ------------------------------------------------------------------ #
    # gradient accumulation and backward pass
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Fold ``grad`` into ``self.grad`` (:func:`_fold_leaf_grad`) and
        charge the engine counter the fold names."""
        charged = _fold_leaf_grad(self, grad, owned)
        if charged is not None:
            _COUNTERS[charged] += 1

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones for scalar outputs; non-scalar outputs
        require an explicit upstream gradient, as in PyTorch.

        The walk (:func:`_walk_backward`) accumulates in-place wherever
        it is provably safe and never mutates an array it did not
        allocate.

        Unless ``retain_graph=True``, the traversed graph is released
        before returning: interior nodes drop their parent references and
        saved-activation closures so memory is freed eagerly.  A second
        backward through a released graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")
        topo, _ = _walk_backward(self, grad)
        if not retain_graph:
            for node in topo:
                if node._backward is not None:
                    node._backward = _backward_released
                    node._parents = ()

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        return _binary_node(np.add, self, self._coerce(other), "add",
                            lambda g, x, y: (g, g))

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        return _binary_node(np.subtract, self, self._coerce(other), "sub",
                            lambda g, x, y: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        return _binary_node(np.multiply, self, self._coerce(other), "mul",
                            lambda g, x, y: (g * y, g * x))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return _binary_node(np.divide, self, self._coerce(other), "div",
                            lambda g, x, y: (g / y, -g * x / (y * y)))

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __neg__(self) -> "Tensor":
        return _unary_node(np.negative, self, "neg", lambda g, x, y: -g)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        p = float(exponent)
        return _unary_node(np.power, self, "pow",
                           lambda g, x, y: g * p * np.power(x, p - 1.0), p)

    def __matmul__(self, other) -> "Tensor":
        a, b = self, self._coerce(other)
        # batch axes broadcast; a 1-D operand has no matrix axis to keep
        shape = (*np.broadcast_shapes(a.shape[:-2], b.shape[:-2]),
                 *a.shape[-2:-1], *b.shape[1:][-1:])
        return _binary_node(
            np.matmul, a, b, "matmul",
            lambda g, x, y: (g @ np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2) @ g),
            shape)

    # ------------------------------------------------------------------ #
    # elementwise transcendental
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return _unary_node(np.exp, self, "exp", lambda g, x, y: g * y)

    def log(self) -> "Tensor":
        return _unary_node(np.log, self, "log", lambda g, x, y: g / x)

    def sqrt(self) -> "Tensor":
        return _unary_node(np.sqrt, self, "sqrt",
                           lambda g, x, y: g * 0.5 / np.maximum(y, 1e-12))

    def tanh(self) -> "Tensor":
        return _unary_node(np.tanh, self, "tanh", lambda g, x, y: g * (1.0 - y * y))

    def sigmoid(self) -> "Tensor":
        return _unary_node(_sigmoid, self, "sigmoid", lambda g, x, y: g * y * (1.0 - y))

    def erf(self) -> "Tensor":
        from scipy import special

        coeff = np.float32(2.0 / np.sqrt(np.pi))
        return _unary_node(special.erf, self, "erf",
                           lambda g, x, y: g * coeff * np.exp(-x * x))

    def abs(self) -> "Tensor":
        return _unary_node(np.abs, self, "abs", lambda g, x, y: g * np.sign(x))

    # the masks below are taken from the live input when backward runs
    def relu(self) -> "Tensor":
        return _unary_node(lambda x, out: np.multiply(x, x > 0, out=out), self,
                           "relu", lambda g, x, y: g * (x > 0))

    def clip(self, lo: float, hi: float) -> "Tensor":
        return _unary_node(np.clip, self, "clip",
                           lambda g, x, y: g * ((x >= lo) & (x <= hi)), lo, hi)

    def maximum(self, other) -> "Tensor":
        return _binary_node(np.maximum, self, self._coerce(other), "maximum",
                            lambda g, x, y: (g * (x >= y), g * ~(x >= y)))

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = _alloc(OUTPUT, _reduced_shape(a.shape, axis, keepdims))

        def run():
            np.sum(a.data, axis=axis, dtype=np.float32, out=out_data,
                   keepdims=keepdims)

        def backward(g):
            g_full = g
            if axis is not None and not keepdims:
                g_full = np.expand_dims(g, axis=axis)
            # read-only 0-stride view: the walk's ownership tracking never
            # mutates it, and leaves materialise it in a single copy
            return ((a, np.broadcast_to(g_full, a.shape)),)

        run()
        return Tensor._from_op(out_data, (a,), backward, "sum", replay=run)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        if axis is None:
            count = a.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = 1
            for ax in axes:
                count *= a.data.shape[ax]
        return a.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out_data = _alloc(OUTPUT, _reduced_shape(a.shape, axis, keepdims))

        def run():
            np.amax(a.data, axis=axis, out=out_data, keepdims=keepdims)

        def backward(g):
            g_full = g
            out_full = out_data
            if axis is not None and not keepdims:
                g_full = np.expand_dims(g, axis=axis)
                out_full = np.expand_dims(out_data, axis=axis)
            mask = (a.data == out_full).astype(np.float32)
            # split gradient across ties so the total is conserved
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return ((a, g_full * mask / np.maximum(denom, 1.0)),)

        run()
        return Tensor._from_op(out_data, (a,), backward, "max", replay=run)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape

        def backward(g):
            return ((a, g.reshape(orig)),)

        # a view whenever the source's layout allows one (nothing to
        # replay); otherwise a buffer of its own, filled through a view of
        # it in the source's shape — one strided pass, no alloc
        try:
            out_data, run = np.reshape(a.data, shape, copy=False), "view"
        except ValueError:
            out_data = _alloc(OUTPUT, (a.data.size,)).reshape(shape)

            def run():
                np.copyto(out_data.reshape(orig), a.data)

            run()
        return Tensor._from_op(out_data, (a,), backward, "reshape", replay=run)

    def transpose(self, axis0: int, axis1: int) -> "Tensor":
        a = self

        def backward(g):
            return ((a, np.swapaxes(g, axis0, axis1)),)

        return Tensor._from_op(np.swapaxes(a.data, axis0, axis1), (a,), backward,
                               "transpose", replay="view")

    def permute(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = np.argsort(axes)

        def backward(g):
            return ((a, np.transpose(g, inverse)),)

        return Tensor._from_op(np.transpose(a.data, axes), (a,), backward,
                               "permute", replay="view")

    def __getitem__(self, index) -> "Tensor":
        a = self
        picked = a.data[index]
        items = index if isinstance(index, tuple) else (index,)
        # basic indexing (ints/slices only) selects each element at most
        # once, so the adjoint is a plain sliced add — np.add.at's slow
        # general scatter is only needed for advanced (array) indexing
        basic = all(isinstance(i, (int, np.integer, slice, type(None),
                                   type(Ellipsis))) for i in items)

        def backward(g):
            full = np.zeros_like(a.data)
            if basic:
                full[index] += g
            else:
                np.add.at(full, index, g)
            return ((a, full),)

        # basic indexing returns a view — no copy until someone needs one
        if np.shares_memory(picked, a.data):
            out_data, replay = picked, "view"
        else:
            out_data = _alloc(OUTPUT, like=picked, fill=picked)
            replay = lambda: np.copyto(out_data, a.data[index])
        return Tensor._from_op(out_data, (a,), backward, "getitem", replay=replay)

    def pad(self, pad_width: Iterable[tuple[int, int]], value: float = 0.0) -> "Tensor":
        a = self
        pw = tuple(tuple(p) for p in pad_width)
        inner = tuple(slice(lo, lo + s) for (lo, _), s in zip(pw, a.shape))
        out_data = _alloc(OUTPUT, [lo + s + hi for (lo, hi), s in zip(pw, a.shape)])

        def run():
            out_data.fill(value)
            np.copyto(out_data[inner], a.data)

        def backward(g):
            return ((a, g[inner]),)

        run()
        return Tensor._from_op(out_data, (a,), backward, "pad", replay=run)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(tensors)
        sizes = [t.shape[axis] for t in tensors]
        shape = list(tensors[0].shape)
        shape[axis] = sum(sizes)
        data = _alloc(OUTPUT, shape)

        def run():
            np.concatenate([t.data for t in tensors], axis=axis, out=data)

        def backward(g):  # slice views; the walk never mutates them
            return tuple(zip(tensors, np.split(g, np.cumsum(sizes)[:-1], axis=axis)))

        run()
        return Tensor._from_op(data, tensors, backward, "concat", replay=run)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(tensors)
        shape = list(tensors[0].shape)
        shape.insert(axis % (len(shape) + 1), len(tensors))
        data = _alloc(OUTPUT, shape)

        def run():
            np.stack([t.data for t in tensors], axis=axis, out=data)

        def backward(g):
            parts = np.split(g, len(tensors), axis=axis)
            return tuple((t, np.squeeze(p, axis=axis)) for t, p in zip(tensors, parts))

        run()
        return Tensor._from_op(data, tensors, backward, "stack", replay=run)

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        a = self

        def backward(g):
            return ((a, _unbroadcast(g, a.shape)),)

        # read-only 0-stride view; consumers treat .data as immutable anyway
        return Tensor._from_op(np.broadcast_to(a.data, shape), (a,), backward,
                               "broadcast", replay="view")
