"""Compiled step replay: capture the autograd tape once, replay a plan.

Every eager train step re-walks the Python tape and re-dispatches every
op even though shapes are fixed after step 1.  This module separates
trace from execution (the record-once/replay-forever discipline the
ORBIT/AERIS throughput stories rest on):

1. **capture** — run the step function once eagerly under a recording
   hook (:func:`repro.tensor.tensor.set_recorder`).  Every op reports
   its output tensor, parents, and a *replay thunk* that refreshes the
   op's saved buffers in place from its parents' current ``.data``.
   The backward pass runs through the planner below, which transcribes
   :meth:`Tensor.backward`'s walk instruction by instruction while
   computing the real gradients — so the capture step *is* a correct,
   bit-identical train step.
2. **plan** — the recorded tape becomes two flat programs.  The forward
   program is the list of replay thunks in execution order (view ops —
   transpose/permute/broadcast and view reshapes/getitems — are dropped:
   their buffers alias parents that are refreshed in place, so they cost
   zero on replay).  The backward program is one instruction per tape
   node in reverse topological order: invoke the node's recorded
   backward closure and route each returned parent gradient with a
   precomputed accumulation mode (store by reference / cast-copy /
   allocate-on-second-contribution / in-place add), mirroring exactly
   the ownership decisions the eager walk makes.  Gradient slots live in
   a preallocated list and are released (set to None) at precomputed
   points.  All activation buffers are retained between steps — they are
   the arena (``graph_counters()["arena_bytes"]``).
3. **guard + replay** — cheap guards on input shapes/dtypes plus an
   optional extra guard (training flag, loss scale) trigger transparent
   recapture on mismatch.  Replay copies the inputs into the captured
   input buffers, runs the thunks, then the backward program: zero
   ``Tensor`` objects, zero tape nodes, zero closure creation, zero
   per-node bookkeeping.  Leaf gradients land through the identical
   ``_accumulate`` logic, so flat parameter buffers
   (:class:`repro.nn.flat.FlatParamBuffer`) and the bucketed-overlap
   ``_ready_hook`` launch points fire exactly as in the eager walk.

Bitwise contract: replay re-invokes the *recorded* backward closures
(created once at capture) against in-place-refreshed activations, and
re-applies the recorded accumulation-order decisions — so losses and
gradients are bit-identical to the eager step, for every op including
the fused kernels, flash attention, and conv2d.

Capture contract for the step function ``fn(*inputs)``:

* every array that varies between steps must be an explicit input
  (positional ``np.ndarray`` arguments, copied into owned float32
  buffers).  Anything else — python scalars, constant ``Tensor``
  wrappers, integer label arrays, dropout masks — is captured by
  reference and frozen into the plan;
* ``fn`` returns the backward root (a scalar loss Tensor) first,
  optionally followed by other output tensors to read after each step;
* data-dependent *control flow* inside ``fn`` is frozen at capture; use
  the extra guard to force recapture when a flag it branches on flips.

Known caveat: ``checkpoint(...)`` regions replay correctly (the
recorded closure re-runs the sub-function against refreshed inputs) but
their backward re-run builds tape nodes, so the zero-tape-node property
holds only for non-checkpointed models.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import tensor as _engine
from .flops import active_counter, price
from .tensor import Tensor, _COUNTERS, enable_grad, set_recorder

__all__ = ["CompiledStep", "CompiledForward", "CompileError"]

# backward-edge accumulation modes, resolved at capture time by replaying
# the eager walk's exact ownership decisions
_SKIP, _STORE, _STORE_CAST, _ADD_NEW, _ADD_INPLACE = range(5)

# backward-instruction kinds
_BW_NODE, _BW_LEAF = 0, 1


class CompileError(RuntimeError):
    """The traced step cannot be compiled (unreplayable op, bad root)."""


class _Recorder:
    """Collects ``(out, parents, op, replay)`` in execution order."""

    __slots__ = ("records",)

    def __init__(self):
        self.records: list[tuple] = []

    def record(self, out, parents, op, replay) -> None:
        self.records.append((out, parents, op, replay))


class CompiledStep:
    """Capture/plan/guard/replay pipeline for one step function.

    Parameters
    ----------
    fn:
        ``fn(*input_tensors) -> Tensor | tuple[Tensor, ...]``.  The first
        (or only) returned tensor is the backward root — a scalar loss —
        unless ``forward_only`` is set, in which case no backward program
        is planned and all outputs are plain forward results.
    forward_only:
        Plan only the forward program (inference).  Capture still runs
        with grad enabled (the tape is the program source) but the tape's
        closures are dropped after planning to free backward-only saves.
    guard_extra:
        Optional ``() -> hashable`` evaluated on every call and folded
        into the guard key — e.g. ``lambda: (model.training,
        scaler.scale_value)``.  A change forces transparent recapture.
    span:
        Optional ``(name: str) -> context manager`` used to wrap capture
        and replay in ``engine/capture`` / ``engine/replay`` tracing
        spans (see :mod:`repro.obs`).
    """

    def __init__(self, fn, forward_only: bool = False, guard_extra=None,
                 span=None):
        self._fn = fn
        self.forward_only = bool(forward_only)
        self._guard_extra = guard_extra
        self._span = span
        self._key = None
        self._in_bufs: list[np.ndarray] = []
        self._out_bufs: tuple[np.ndarray, ...] = ()
        self._fwd_program: list = []
        self._bw_program: list = []
        self._priced: list[tuple] = []
        self._flops = 0.0
        self._records: list = []
        self._slots: list = []
        self._root_slot = -1
        self._seed: np.ndarray | None = None
        self._arena_bytes = 0

    # ------------------------------------------------------------------ #
    # guard + dispatch
    # ------------------------------------------------------------------ #
    def _guard_key(self, arrays) -> tuple:
        sig = tuple((a.shape, a.dtype.str) for a in arrays)
        extra = self._guard_extra() if self._guard_extra is not None else None
        return (sig, extra)

    def _trace(self, name: str):
        return self._span(name) if self._span is not None else contextlib.nullcontext()

    def __call__(self, *arrays) -> tuple[np.ndarray, ...]:
        """Run one step; returns the output buffers (refreshed in place).

        The returned arrays are the live arena buffers: read or copy them
        before the next call, never hold them across steps.
        """
        arrays = [np.asarray(a) for a in arrays]
        key = self._guard_key(arrays)
        if key != self._key:
            if self._key is not None:
                _COUNTERS["guard_misses"] += 1
            self.release()
            with self._trace("engine/capture"):
                self._capture(arrays, key)
            return self._out_bufs
        with self._trace("engine/replay"):
            return self._replay(arrays)

    def __del__(self):
        try:
            self.release()  # return the arena gauge when the plan is GC'd
        except Exception:
            pass  # interpreter shutdown: counters may already be gone

    @property
    def captured(self) -> bool:
        """Whether a plan is currently held (arena allocated)."""
        return self._key is not None

    def invalidate(self) -> None:
        """Force a recapture on the next call.

        The replan path calls this when the world it captured against no
        longer exists — equivalent to a guard miss without charging the
        ``guard_misses`` counter (the plan didn't *fail* a guard, it was
        told the world changed).  Currently identical to :meth:`release`;
        kept separate so the two intents stay distinguishable.
        """
        self.release()

    def release(self) -> None:
        """Drop the current plan and return its arena to the allocator."""
        if self._key is None:
            return
        _COUNTERS["arena_bytes"] -= self._arena_bytes
        self._key = None
        self._in_bufs = []
        self._out_bufs = ()
        self._fwd_program = []
        self._bw_program = []
        self._priced = []
        self._flops = 0.0
        self._records = []
        self._slots = []
        self._seed = None
        self._arena_bytes = 0

    # ------------------------------------------------------------------ #
    # capture + plan
    # ------------------------------------------------------------------ #
    def _capture(self, arrays, key) -> None:
        if _engine._recorder is not None:
            raise CompileError("nested capture: another CompiledStep is recording")
        self._in_bufs = [np.array(a, dtype=np.float32) for a in arrays]
        in_tensors = tuple(Tensor(b) for b in self._in_bufs)
        rec = _Recorder()
        set_recorder(rec)
        try:
            with enable_grad():  # record even under a caller's no_grad()
                result = self._fn(*in_tensors)
        finally:
            set_recorder(None)
        outs = result if isinstance(result, tuple) else (result,)
        if not outs or not all(isinstance(t, Tensor) for t in outs):
            raise CompileError("step fn must return a Tensor or tuple of Tensors")

        fwd, priced = [], []
        arena: dict[int, int] = {id(b): b.nbytes for b in self._in_bufs}
        self._flops = sum(price(op).forward(out.data, parents)
                          for out, parents, op, _ in rec.records)
        for out, parents, op, replay in rec.records:
            if out.requires_grad:
                priced.append((op, out.data, tuple(p.data for p in parents)))
            if not any(np.shares_memory(out.data, p.data) for p in parents):
                arena.setdefault(id(out.data), out.data.nbytes)
            if replay == "view":
                continue
            if replay is None:
                raise CompileError(f"op {op!r} is not replayable")
            fwd.append(replay)
        self._fwd_program = fwd
        self._priced = priced
        self._records = rec.records

        if self.forward_only:
            # drop the tape: forward thunks own every buffer they need,
            # and the closures pin backward-only saves we can free now
            for out, _, _, _ in rec.records:
                if out._backward is not None:
                    out._backward = None
                    out._parents = ()
            self._bw_program = []
        else:
            self._plan_backward(outs[0])

        self._out_bufs = tuple(t.data for t in outs)
        self._arena_bytes = sum(arena.values())
        self._key = key
        _COUNTERS["captures"] += 1
        _COUNTERS["arena_bytes"] += self._arena_bytes

    def _plan_backward(self, root: Tensor) -> None:
        """Transcribe ``Tensor.backward``'s walk into a flat program.

        This *is* the capture step's backward pass: it computes the real
        gradients (accumulating into leaves, firing ready-hooks, bumping
        the same counters) while recording, per edge, which accumulation
        branch the eager walk took.  The decisions depend only on graph
        structure and dtypes, both fixed under the guards, so replaying
        the recorded modes reproduces the walk bit for bit.
        """
        if not root.requires_grad:
            raise CompileError("backward root does not require grad")
        if root.data.size != 1:
            raise CompileError("backward root must be a scalar loss")
        seed = np.ones_like(root.data)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
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

        slot = {id(node): i for i, node in enumerate(topo)}
        program: list[tuple] = []
        flops = 0.0
        grads: dict[int, np.ndarray] = {id(root): seed}
        owned: set[int] = set()
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            g_owned = id(node) in owned
            owned.discard(id(node))
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g, owned=g_owned)
                if node._ready_hook is not None:
                    node._ready_hook(node)
                program.append((_BW_LEAF, slot[id(node)], node, g_owned))
                continue
            edges = []
            for parent, pg in node._backward(g):
                if not parent.requires_grad or pg is None:
                    edges.append((-1, _SKIP))
                    continue
                key = id(parent)
                if key in grads:
                    if key in owned:
                        np.add(grads[key], pg, out=grads[key])
                        _COUNTERS["bwd_inplace_adds"] += 1
                        mode = _ADD_INPLACE
                    else:
                        grads[key] = grads[key] + pg
                        owned.add(key)
                        _COUNTERS["bwd_new_buffers"] += 1
                        mode = _ADD_NEW
                else:
                    arr = np.asarray(pg, dtype=np.float32)
                    grads[key] = arr
                    if arr is not pg:
                        owned.add(key)
                        _COUNTERS["bwd_new_buffers"] += 1
                        mode = _STORE_CAST
                    else:
                        _COUNTERS["bwd_handoffs"] += 1
                        mode = _STORE
                edges.append((slot[key], mode))
            flops += price(node._op).backward(node.data, node._parents)
            program.append((_BW_NODE, slot[id(node)], node._backward, tuple(edges)))
        if grads:
            raise AssertionError(
                f"capture walk left {len(grads)} unconsumed gradient(s)")
        counter = active_counter()
        if counter is not None:
            counter.total += flops
        self._flops += flops
        self._bw_program = program
        self._slots = [None] * len(topo)
        self._root_slot = slot[id(root)]
        self._seed = seed

    # ------------------------------------------------------------------ #
    # replay
    # ------------------------------------------------------------------ #
    def _replay(self, arrays) -> tuple[np.ndarray, ...]:
        for buf, arr in zip(self._in_bufs, arrays):
            np.copyto(buf, arr)
        for thunk in self._fwd_program:
            thunk()
        if _engine._op_hook is not None:
            # one amortized accounting pass priced from the recorded plan,
            # identical to the per-node hook calls of an eager step
            hook = _engine._op_hook
            for op, data, parents in self._priced:
                hook(op, data, parents)
        if self._bw_program:
            self._replay_backward()
        counter = active_counter()
        if counter is not None:
            counter.total += self._flops  # the plan's price, set at capture
        _COUNTERS["replays"] += 1
        return self._out_bufs

    def _replay_backward(self) -> None:
        slots = self._slots
        slots[self._root_slot] = self._seed  # never mutated: walk owns only
        for kind, si, payload, extra in self._bw_program:  # its own buffers
            g = slots[si]
            slots[si] = None  # release point: the slot's last read
            if kind == _BW_NODE:
                for (parent, pg), (pi, mode) in zip(payload(g), extra):
                    if mode == _STORE:
                        slots[pi] = pg
                    elif mode == _ADD_INPLACE:
                        np.add(slots[pi], pg, out=slots[pi])
                    elif mode == _ADD_NEW:
                        slots[pi] = slots[pi] + pg
                    elif mode == _STORE_CAST:
                        slots[pi] = np.asarray(pg, dtype=np.float32)
            else:
                p = payload
                if p.grad is None:  # same decision tree as Tensor._accumulate
                    if (extra and g.dtype == np.float32
                            and g.flags.writeable and g.shape == p.data.shape):
                        p.grad = g
                    else:
                        pg = np.array(g, dtype=np.float32)
                        if pg.shape != p.data.shape:
                            pg = np.broadcast_to(pg, p.data.shape).copy()
                        p.grad = pg
                else:
                    np.add(p.grad, g, out=p.grad)
                if p._ready_hook is not None:
                    p._ready_hook(p)


class CompiledForward:
    """Module-like wrapper replaying forward-only programs for inference.

    Keeps a small LRU plan cache, one program per input shape — batch
    width included: tile serving runs each tile signature at the widths
    its batches split into.  At ``_MAX_PLANS`` the least-recently-used
    plan alone is released, so a working set at the cap never recaptures
    more than the shape that is new.  Returns a fresh copy of the output
    so callers may hold results across calls.  Attribute access falls
    through to the wrapped model (``factor``, ``eval()``, ...).
    """

    # two widths (pairs + a single) x the 16 signatures an uneven tiling
    # can produce: per axis, first / last / larger and smaller interior
    _MAX_PLANS = 32

    def __init__(self, model, span=None):
        self._model = model
        self._span = span
        self._plans: dict[tuple, CompiledStep] = {}

    def __getattr__(self, name):
        return getattr(self._model, name)

    @property
    def model(self):
        return self._model

    def release(self) -> None:
        for step in self._plans.values():
            step.release()
        self._plans.clear()

    def __call__(self, x) -> Tensor:
        arr = x.data if isinstance(x, Tensor) else np.asarray(x)
        key = (arr.shape, arr.dtype.str,
               bool(getattr(self._model, "training", False)))
        step = self._plans.pop(key, None)
        if step is None:
            if len(self._plans) >= self._MAX_PLANS:
                self._plans.pop(next(iter(self._plans))).release()
            step = CompiledStep(lambda t: self._model(t), forward_only=True,
                                span=self._span)
        self._plans[key] = step     # most recently used last
        out, = step(arr)
        return Tensor(out.copy())
