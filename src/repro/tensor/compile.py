"""Compiled step replay: capture the autograd tape once, replay a plan.

Every eager train step re-walks the Python tape and re-dispatches every
op even though shapes are fixed after step 1.  This module separates
trace from execution (the record-once/replay-forever discipline the
ORBIT/AERIS throughput stories rest on):

1. **capture** — run the step function eagerly under a recording
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
   None) at precomputed points.
3. **arena** — ops allocate forward buffers through ``tensor._alloc``,
   declaring each one's kind.  A first, learning pass times each
   buffer's life, writer to last reader through any view, and is freed;
   the capture pass then allocates in one slab packed from those lives.
   A forward-only plan so keeps what its forward still needs, not every
   buffer it allocated.  Slab plus inputs is ``arena_bytes``.
4. **guard + replay** — cheap guards on input shapes/dtypes plus an
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
from bisect import bisect_right
from typing import NamedTuple

import numpy as np
from numpy.lib.array_utils import byte_bounds

from . import tensor as _engine
from .flops import active_counter, price
from .tensor import (_ADD_INPLACE, _ADD_NEW, _BW_NODE, _COUNTERS, _STORE,
                     _STORE_CAST, PERSISTENT, SCRATCH, Tensor, _fold_leaf_grad,
                     _walk_backward, enable_grad, set_op_hook, set_recorder)

__all__ = ["CompiledStep", "CompiledForward", "CompileError"]

_ALIGN = 64  # slab offset granularity, bytes: one cache line, any SIMD width


class CompileError(RuntimeError):
    """The traced step cannot be compiled (unreplayable op, bad root)."""


class _Buffer(NamedTuple):
    """One allocation of a capture; ``writer`` is its op's record index."""
    shape: tuple
    dtype: np.dtype
    strides: tuple
    nbytes: int
    kind: int
    writer: int


class _Plan(NamedTuple):
    """A step's allocations, their slab offsets and the slab size."""
    buffers: list
    offsets: list
    nbytes: int


class _Recorder:
    """Collects ``(out, parents, op, replay)`` in execution order, and the
    buffers ops allocate: without a plan plain arrays, kept alive so each
    has its own addresses; with one, views of ``slab`` at their offsets.
    """

    __slots__ = ("records", "buffers", "arrays", "_plan", "_slab")

    def __init__(self, plan: _Plan | None = None, slab: np.ndarray | None = None):
        self.records: list[tuple] = []
        self.buffers: list[_Buffer] = []
        self.arrays: list[np.ndarray] = []
        self._plan, self._slab = plan, slab

    def record(self, out, parents, op, replay) -> None:
        self.records.append((out, parents, op, replay))

    def alloc(self, kind, shape, dtype, like, fill) -> np.ndarray:
        i, writer = len(self.arrays), len(self.records)
        if self._plan is None:
            buf = np.empty_like(like) if like is not None else np.empty(shape, dtype)
        else:
            spec = self._plan.buffers[i] if i < len(self._plan.buffers) else None
            want = (like.shape, like.dtype) if like is not None else (tuple(shape), dtype)
            if spec is None or spec[:2] != want or spec[4:] != (kind, writer):
                raise CompileError("the step allocated differently on its second "
                                   f"capture pass (allocation {i}, op {writer})")
            buf = np.ndarray(spec.shape, spec.dtype, self._slab,
                             self._plan.offsets[i], spec.strides)
        if fill is not None:
            buf[...] = fill
        self.arrays.append(buf)
        self.buffers.append(_Buffer(buf.shape, buf.dtype, buf.strides, buf.nbytes,
                                    kind, writer))
        return buf


def _liveness(rec: _Recorder, outputs, forward_only: bool) -> list[tuple[int, int]]:
    """Inclusive ``(first, last)`` record interval of every allocation.

    A buffer lives from its writer to the last op reading it through any
    view (a parent maps to the allocation holding its lowest byte).  Plan
    outputs and persistent buffers live for the whole plan; in a training
    plan so does every buffer but scratch, from its writer on.
    """
    end = len(rec.records)
    spans = sorted((byte_bounds(a), i) for i, a in enumerate(rec.arrays) if a.nbytes)
    keys = [lo for (lo, _), _ in spans]

    def owner(a: np.ndarray) -> int | None:
        ptr = byte_bounds(a)[0]
        j = bisect_right(keys, ptr) - 1
        return spans[j][1] if a.nbytes and j >= 0 and ptr < spans[j][0][1] else None

    first = [b.writer for b in rec.buffers]
    last = list(first)
    for j, (_, parents, _, _) in enumerate(rec.records):
        for i in map(owner, (p.data for p in parents)):
            if i is not None:
                last[i] = max(last[i], j)
    for i, b in enumerate(rec.buffers):
        if b.kind == PERSISTENT:
            first[i], last[i] = 0, end
        elif not forward_only and b.kind != SCRATCH:
            last[i] = end
    for i in map(owner, outputs):
        if i is not None:
            first[i], last[i] = 0, end
    return list(zip(first, last))


def _pack(sizes: list[int], intervals: list[tuple[int, int]]) -> tuple[list[int], int]:
    """Slab offsets, largest buffer first, each at the lowest aligned
    offset clear of every placed buffer whose interval meets its own; and
    the slab size."""
    placed: list[tuple[int, int, int, int]] = []   # (first, last, offset, end)
    offsets = [0] * len(sizes)
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        lo, hi = intervals[i]
        off, size = 0, -(-sizes[i] // _ALIGN) * _ALIGN
        for o, e in sorted((o, e) for f, l, o, e in placed if f <= hi and lo <= l):
            if off + size <= o:
                break
            off = max(off, e)
        offsets[i] = off
        placed.append((lo, hi, off, off + size))
    return offsets, max((e for *_, e in placed), default=0)


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
        with grad enabled (the tape is the program source), but the tape
        is dropped after planning and saved buffers die with their op.
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
        self._drop()

    def _drop(self) -> None:
        """Forget the plan and every buffer it holds (no gauge update)."""
        self._key = None
        self._in_bufs: list[np.ndarray] = []
        self._out_bufs: tuple[np.ndarray, ...] = ()
        self._plan: _Plan | None = None
        self._slab: np.ndarray | None = None
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
        if self._key is not None:
            _COUNTERS["arena_bytes"] -= self._arena_bytes
        self._drop()

    # ------------------------------------------------------------------ #
    # capture + plan
    # ------------------------------------------------------------------ #
    def _capture(self, arrays, key) -> None:
        if _engine._recorder is not None:
            raise CompileError("nested capture: another CompiledStep is recording")
        try:
            self._in_bufs = [np.array(a, dtype=np.float32) for a in arrays]
            plan = self._learn()
            # the learning pass's buffers are gone: only now take the slab
            raw = np.empty(plan.nbytes + _ALIGN, dtype=np.uint8)
            start = -byte_bounds(raw)[0] % _ALIGN
            self._slab = raw[start:start + plan.nbytes]
            rec = _Recorder(plan, self._slab)
            outs = self._run(rec)
            if len(rec.buffers) != len(plan.buffers):
                raise CompileError("the step allocated less on its second pass")
            self._build(rec, outs)
        except BaseException:
            self._drop()   # a failed capture holds nothing
            raise
        self._plan = plan
        self._arena_bytes = raw.nbytes + sum(b.nbytes for b in self._in_bufs)
        self._key = key
        _COUNTERS["captures"] += 1
        _COUNTERS["arena_bytes"] += self._arena_bytes

    def _run(self, rec: _Recorder) -> tuple[Tensor, ...]:
        """One recorded eager run of the step on the input buffers."""
        in_tensors = tuple(Tensor(b) for b in self._in_bufs)
        set_recorder(rec)
        try:
            with enable_grad():  # record even under a caller's no_grad()
                result = self._fn(*in_tensors)
        finally:
            set_recorder(None)
        outs = result if isinstance(result, tuple) else (result,)
        if not outs or not all(isinstance(t, Tensor) for t in outs):
            raise CompileError("step fn must return a Tensor or tuple of Tensors")
        return outs

    def _learn(self) -> _Plan:
        """The learning pass: run the step on plain arrays, time each
        allocation's life and pack the slab.  Counters, FLOPs and the op
        hook see nothing of it; its buffers are freed on return."""
        counts, counter, hook = dict(_COUNTERS), active_counter(), _engine._op_hook
        flops = counter.total if counter is not None else 0.0
        set_op_hook(None)
        try:
            rec = _Recorder()
            outs = self._run(rec)
            intervals = _liveness(rec, [t.data for t in outs], self.forward_only)
        finally:
            set_op_hook(hook)
            _COUNTERS.update(counts)
            if counter is not None:
                counter.total = flops
        offsets, nbytes = _pack([b.nbytes for b in rec.buffers], intervals)
        return _Plan(rec.buffers, offsets, nbytes)

    def _build(self, rec: _Recorder, outs: tuple[Tensor, ...]) -> None:
        """The forward and backward programs of the capture pass."""
        fwd, priced = [], []
        self._flops = sum(price(op).forward(out.data, parents)
                          for out, parents, op, _ in rec.records)
        for out, parents, op, replay in rec.records:
            if out.requires_grad:
                priced.append((op, out.data, tuple(p.data for p in parents)))
            if replay == "view":
                continue
            if replay is None:
                raise CompileError(f"op {op!r} is not replayable")
            fwd.append(replay)
        self._fwd_program = fwd
        self._priced = priced
        self._records = rec.records

        if self.forward_only:
            # drop the tape: no backward closure will ever run, and the
            # slab already reuses the bytes of what they saved
            for out, _, _, _ in rec.records:
                if out._backward is not None:
                    out._backward = None
                    out._parents = ()
            self._bw_program = []
        else:
            self._plan_backward(outs[0])
        self._out_bufs = tuple(t.data for t in outs)

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
