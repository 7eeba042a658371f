"""Compiled step replay: capture the autograd tape once, replay a plan.

Every eager train step re-walks the Python tape and re-dispatches every
op even though shapes are fixed after step 1.  This module separates
trace from execution (the record-once/replay-forever discipline the
ORBIT/AERIS throughput stories rest on):

1. **capture** — run the step function once eagerly under a recording
   hook (:func:`repro.tensor.tensor.set_recorder`).  Every op reports
   its output tensor, parents, and its forward routine, which the eager
   call already ran: it refills the op's output and saved buffers in
   place from its parents' current ``.data``.
   The backward pass is the eager walk itself
   (:func:`repro.tensor.tensor._walk_backward`) run with a program list
   it records into — so the capture step *is* an eager train step.
2. **plan** — the recorded tape becomes two flat programs.  The forward
   program is the list of those forward routines in execution order
   (view ops — transpose/permute/broadcast and view reshapes/getitems —
   are dropped: their buffers alias parents that are refreshed in place,
   so they cost zero on replay).  The backward program is what the walk emitted: one
   instruction per tape node in reverse topological order, which invokes
   the node's recorded backward closure and routes each returned parent
   gradient with the accumulation mode the walk took (store by reference
   / cast-copy / allocate-on-second-contribution / in-place add).
   Gradient slots live in a preallocated list and are released (set to
   None) at precomputed points.  All activation buffers are retained between steps — they are
   the arena (``graph_counters()["arena_bytes"]``).
3. **guard + replay** — cheap guards on input shapes/dtypes plus an
   optional extra guard (training flag, loss scale) trigger transparent
   recapture on mismatch.  Replay copies the inputs into the captured
   input buffers, runs the forward routines, then the backward program:
   zero ``Tensor`` objects, zero tape nodes, zero closure creation, zero
   per-node bookkeeping.  Leaf gradients land through the walk's leaf
   rule (``_fold_leaf_grad``), so flat parameter buffers
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
from .tensor import (_ADD_INPLACE, _ADD_NEW, _BW_NODE, _COUNTERS, _STORE,
                     _STORE_CAST, Tensor, _fold_leaf_grad, _walk_backward,
                     enable_grad, set_recorder)

__all__ = ["CompiledStep", "CompiledForward", "CompileError"]


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

    def release(self) -> None:
        """Drop the current plan and return its arena to the allocator.

        The next call recaptures without charging ``guard_misses``: the
        replan path releases plans whose world no longer exists.
        """
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
            # drop the tape: forward routines own every buffer they need,
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
        """Run the capture step's backward pass and keep its program.

        This is the eager walk (:func:`~repro.tensor.tensor._walk_backward`:
        real gradients, ready-hooks, counters, FLOP charge) told to
        record, per edge, the accumulation mode it took.  The modes depend
        only on graph structure and dtypes, both fixed under the guards,
        so replaying them reproduces the walk bit for bit.
        """
        if not root.requires_grad:
            raise CompileError("backward root does not require grad")
        if root.data.size != 1:
            raise CompileError("backward root must be a scalar loss")
        self._seed = np.ones_like(root.data)
        self._bw_program = []
        topo, flops = _walk_backward(root, self._seed, self._bw_program)
        self._flops += flops
        self._slots = [None] * len(topo)

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
        # the root's slot comes last in the walk's topological order; the
        # seed is never mutated (the walk adds only into its own buffers)
        slots[-1] = self._seed
        for kind, si, payload, extra in self._bw_program:
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
                _fold_leaf_grad(payload, g, extra)  # counter-free on replay
                if payload._ready_hook is not None:
                    payload._ready_hook(payload)


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
