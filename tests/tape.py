"""What an eager autograd tape holds: the arrays its backward closures keep.

A tape node (``repro.tensor.tensor._Node``) keeps arrays alive only
through its backward closure: arrays it captured, and parameters it reads
live through their leaf ``Tensor``.  These helpers find them by walking
closure cells, so a test can compare them with an op's declared reads or
sum the bytes a tape retains.

Eager buffers come from a pool (``repro.tensor.tensor._Pool``) that keeps
its idle bases between steps, so a ``tracemalloc`` measurement counts
live bytes as the traced bytes minus the pool's idle ones, from a pool
drained before tracing starts (``drain_pool``), whose every base is then
traced.
"""

import tracemalloc
import types
from sys import getrefcount

import numpy as np

from repro.tensor import Tensor
from repro.tensor.tensor import _IDLE_REFS, _POOL, _Node


def drain_pool() -> None:
    """Empty the eager pool: two step boundaries with nothing taken
    between them drop every base it holds."""
    _POOL.boundary()
    _POOL.boundary()


def pool_idle_bytes() -> int:
    """Bytes of the pool's bases that nothing but the pool holds."""
    return sum(nbytes for nbytes, bases in _POOL._bases.items()
               for i in range(len(bases)) if getrefcount(bases[i]) == _IDLE_REFS)


def live_bytes() -> int:
    """Traced bytes minus the bytes of the pool's idle bases."""
    return tracemalloc.get_traced_memory()[0] - pool_idle_bytes()


def owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s bytes (the root of its view chain)."""
    while True:
        base = arr.base
        if isinstance(base, np.ndarray):
            arr = base
        elif isinstance(getattr(base, "base", None), np.ndarray):   # as_strided
            arr = base.base
        else:
            return arr


def closure_arrays(fn, leaves: bool = True) -> dict[int, np.ndarray]:
    """The owning arrays ``fn`` keeps alive, keyed by ``id``: held in its
    closure cells and defaults, inside tuples, lists and nested functions,
    or as a held ``Tensor``'s ``.data`` (a leaf's only if ``leaves``)."""
    found: dict[int, np.ndarray] = {}
    seen: set[int] = set()
    stack = [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            root = owner(obj)
            found[id(root)] = root
        elif isinstance(obj, Tensor):
            if leaves or obj._node is not None:
                stack.append(obj.data)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, types.FunctionType):
            stack.extend(obj.__defaults__ or ())
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:   # a cell not yet bound
                    pass
    return found


def tape_nodes(t: Tensor) -> list[_Node]:
    """Every tape node reachable from ``t``."""
    nodes, seen, stack = [], set(), [t._node]
    while stack:
        node = stack.pop()
        if not isinstance(node, _Node) or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.parents)
    return nodes


def tape_bytes(t: Tensor) -> int:
    """Bytes of the distinct non-leaf arrays the tape reachable from ``t``
    retains: the activation memory its backward still needs."""
    held: dict[int, np.ndarray] = {}
    for node in tape_nodes(t):
        held.update(closure_arrays(node.backward, leaves=False))
    return sum(a.nbytes for a in held.values())
