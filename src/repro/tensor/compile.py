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
   declaring each one's kind; the step's inputs are buffers too, written
   by the replay's copy-in before record 0.  A first, learning pass keeps
   no tape and times each buffer's life from its writer to its last
   reader through any view, or to the plan's end for outputs and what a
   training plan's backward reads: an op's SAVED buffers and what it
   declares with ``_from_op(..., reads=)``, by default its parents and
   output.  The capture pass allocates in two slabs of the plan's
   :class:`Arena`, whose plans never run at once.  Every buffer but the
   persistent ones is rewritten on every replay, so it goes in the
   arena's shared slab, packed from those lives.  Persistent buffers
   (content set at allocation) go in the arena's slab for their layout,
   which every plan of that layout takes.  ``arena_bytes`` is the
   distinct shared slabs plus the distinct persistent slabs.
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
import hashlib
import weakref
from bisect import bisect_right, insort
from typing import NamedTuple

import numpy as np
from numpy.lib.array_utils import byte_bounds

from . import tensor as _engine
from .flops import active_counter, price
from .tensor import (_ADD_INPLACE, _ADD_NEW, _BW_NODE, _COUNTERS, _STORE,
                     _STORE_CAST, INPUT, PERSISTENT, SAVED, Tensor, _fold_leaf_grad,
                     _walk_backward, enable_grad, set_op_hook, set_recorder)

__all__ = ["CompiledStep", "CompiledForward", "CompileError"]

_ALIGN = 64  # slab offset granularity, bytes: one cache line, any SIMD width
_END = 1 << 62  # a learned life that reaches the plan's end


class CompileError(RuntimeError):
    """The traced step cannot be compiled (unreplayable op, bad root)."""


class _Buffer(NamedTuple):
    """One allocation of a capture; ``writer`` is its op's record index,
    or -1 for an input, which the replay's copy-in writes."""
    shape: tuple
    dtype: np.dtype
    strides: tuple
    nbytes: int
    kind: int
    writer: int


class _Plan(NamedTuple):
    """A step's allocations, their record intervals and their offsets: a
    persistent buffer's in the persistent slab of ``own`` bytes, any
    other's in the shared slab of ``nbytes``.  ``layout`` keys the
    persistent slab: each persistent buffer's shape, dtype, strides and
    offset, and a digest of their fill bytes."""
    buffers: list
    intervals: list
    offsets: list
    nbytes: int
    own: int
    layout: tuple


def _aligned(nbytes: int) -> tuple[np.ndarray, np.ndarray]:
    """A fresh allocation and its ``nbytes`` view at an aligned address."""
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -byte_bounds(raw)[0] % _ALIGN
    return raw, raw[start:start + nbytes]


class Arena:
    """The slabs of one owner's plans, which never run at once.

    Every plan takes the shared slab: one that fits takes the current
    slab; one that does not takes a new, larger slab, which becomes
    current, while older plans keep theirs, so the arena never forces a
    recapture.  A plan's persistent buffers go in the slab of its
    persistent layout, which all plans of that layout take.  Sharing it
    is safe because the plans run in turn and each op rewrites its
    persistent buffer's non-fill bytes before reading them (conv2d's
    bordered interior, flash's ``kv1`` k/v columns).  A slab is freed
    with its last plan; ``arena_bytes`` counts each live slab once.
    """

    def __init__(self):
        self._current: np.ndarray | None = None   # aligned view of a raw slab
        self._layouts: dict[tuple, np.ndarray] = {}   # persistent layout -> slab
        self._plans: dict[int, int] = {}          # id(raw slab) -> plans on it

    def take(self, nbytes: int) -> np.ndarray:
        """The first ``nbytes`` of the current shared slab, grown to fit."""
        if self._current is None or self._current.nbytes < nbytes:
            self._current = _aligned(nbytes)[1]
        return self._hold(self._current)[:nbytes]

    def take_persistent(self, layout: tuple, nbytes: int) -> np.ndarray:
        """The persistent slab of ``layout``, made on its first plan."""
        if layout not in self._layouts:
            self._layouts[layout] = _aligned(nbytes)[1]
        return self._hold(self._layouts[layout])

    def _hold(self, slab: np.ndarray) -> np.ndarray:
        raw = slab.base
        if id(raw) not in self._plans:
            self._plans[id(raw)] = 0
            _COUNTERS["arena_bytes"] += raw.nbytes
        self._plans[id(raw)] += 1
        return slab

    def give(self, slab: np.ndarray) -> None:
        """Return a slab ``take`` or ``take_persistent`` handed out; its
        last plan frees it."""
        raw = slab.base
        self._plans[id(raw)] -= 1
        if not self._plans[id(raw)]:
            del self._plans[id(raw)]
            _COUNTERS["arena_bytes"] -= raw.nbytes
            if self._current is not None and self._current.base is raw:
                self._current = None
            self._layouts = {k: v for k, v in self._layouts.items()
                             if v.base is not raw}


class _Learner:
    """The learning pass's recorder: it keeps no tape, so a buffer dies
    with its last reference, and ``weakref.finalize`` then drops its
    address, which a later one may take.  An array maps to the live
    allocation holding its lowest byte."""

    tape = False   # ``Tensor._from_op`` attaches no parents or closure

    def __init__(self, forward_only: bool):
        self.buffers: list[_Buffer] = []
        self.last: list[int] = []        # last reader; _END: a backward's
        self.n = 0                       # records so far
        self._forward_only = forward_only
        self._taped: set[int] = set()    # records whose backward will run
        self._keys: list[int] = []       # sorted lowest bytes of live buffers
        self._live: dict[int, tuple[int, int]] = {}   # lowest -> (end, index)
        self.fills = hashlib.sha256()    # persistent buffers' bytes as set

    def alloc(self, kind, shape, dtype, like, fill) -> np.ndarray:
        buf = np.empty_like(like) if like is not None else np.empty(shape, dtype)
        if fill is not None:
            buf[...] = fill
        if kind == PERSISTENT:
            self.fills.update(buf.tobytes())
        self.buffers.append(_Buffer(buf.shape, buf.dtype, buf.strides, buf.nbytes,
                                    kind, -1 if kind == INPUT else self.n))
        self.last.append(self.n)
        if buf.nbytes:
            lo, hi = byte_bounds(buf)
            insort(self._keys, lo)
            self._live[lo] = (hi, len(self.buffers) - 1)
            weakref.finalize(buf, self._die, lo)
        return buf

    def _die(self, lo: int) -> None:
        del self._live[lo], self._keys[bisect_right(self._keys, lo) - 1]

    def _mark(self, arrays, when: int) -> None:
        """Extend the life of each array's allocation to record ``when``."""
        for a in arrays:
            ptr = byte_bounds(a)[0]
            j = bisect_right(self._keys, ptr) - 1
            if a.nbytes and j >= 0 and ptr < self._live[self._keys[j]][0]:
                i = self._live[self._keys[j]][1]
                self.last[i] = max(self.last[i], when)

    def record(self, out, parents, op, replay, reads) -> None:
        self._mark((p.data for p in parents), self.n)
        if not self._forward_only and out.requires_grad:
            self._taped.add(self.n)
            self._mark((*(p.data for p in parents), out.data) if reads is None
                       else reads, _END)
        self.n += 1

    def intervals(self, outputs) -> list[tuple[int, int]]:
        """Inclusive ``(first, last)`` record interval of every allocation;
        persistent buffers live for the whole plan, outputs to its end."""
        self._mark(outputs, _END)
        return [(0, self.n) if b.kind == PERSISTENT else
                (b.writer, self.n if b.kind == SAVED and b.writer in self._taped
                 else min(last, self.n)) for b, last in zip(self.buffers, self.last)]


class _Recorder:
    """The capture pass's recorder: collects ``(out, parents, op,
    replay)`` in execution order, and places each buffer in the
    ``shared`` slab, or ``own`` for a persistent one, at its planned
    offset.  Ops attach their tape only if ``tape``."""

    __slots__ = ("records", "buffers", "tape", "_plan", "_slabs")

    def __init__(self, plan: _Plan, shared: np.ndarray, own: np.ndarray, tape: bool):
        self.records: list[tuple] = []
        self.buffers: list[_Buffer] = []
        self.tape, self._plan, self._slabs = tape, plan, (shared, own)

    def record(self, out, parents, op, replay, reads) -> None:
        self.records.append((out, parents, op, replay))

    def alloc(self, kind, shape, dtype, like, fill) -> np.ndarray:
        i, writer = len(self.buffers), -1 if kind == INPUT else len(self.records)
        spec = self._plan.buffers[i] if i < len(self._plan.buffers) else None
        want = (like.shape, like.dtype) if like is not None else (tuple(shape), dtype)
        if spec is None or spec[:2] != want or spec[4:] != (kind, writer):
            raise CompileError("the step allocated differently on its second "
                               f"capture pass (allocation {i}, op {writer})")
        shared, own = self._slabs
        slab = own if kind == PERSISTENT else shared
        buf = np.ndarray(spec.shape, spec.dtype, slab, self._plan.offsets[i],
                         spec.strides)
        if fill is not None:
            buf[...] = fill
        self.buffers.append(spec)
        return buf


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
    arena:
        The :class:`Arena` whose slabs the plan takes; its owner's other
        plans must never run at once with this one.  Default: a private
        one.
    """

    def __init__(self, fn, forward_only: bool = False, guard_extra=None,
                 span=None, arena: Arena | None = None):
        self._fn = fn
        self.forward_only = bool(forward_only)
        self._guard_extra = guard_extra
        self._span = span
        self._arena = arena if arena is not None else Arena()
        self._slab = self._own = None
        self._drop()

    def _drop(self) -> None:
        """Forget the plan and every buffer it holds; both slabs go back
        to the arena."""
        for slab in (self._slab, self._own):
            if slab is not None:
                self._arena.give(slab)
        self._key = None
        self._in_bufs: list[np.ndarray] = []
        self._out_bufs: tuple[np.ndarray, ...] = ()
        self._plan: _Plan | None = None
        self._slab: np.ndarray | None = None   # the shared slab
        self._own: np.ndarray | None = None    # the persistent slab
        self._fwd_program: list = []
        self._bw_program: list = []
        self._priced: list[tuple] = []
        self._flops = 0.0
        self._records: list = []
        self._slots: list = []
        self._seed: np.ndarray | None = None

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
        before the next call of any plan in its arena, never hold them
        across steps.
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
        """Drop the current plan and give its slabs back to the arena.

        The next call recaptures without charging ``guard_misses``: a
        replan that changes the tile count releases its plans this way.
        """
        self._drop()

    # ------------------------------------------------------------------ #
    # capture + plan
    # ------------------------------------------------------------------ #
    def _capture(self, arrays, key) -> None:
        if _engine._recorder is not None:
            raise CompileError("nested capture: another CompiledStep is recording")
        try:
            plan = self._learn(arrays)
            # the learning pass's buffers are gone: only now take the slabs
            self._slab = self._arena.take(plan.nbytes)
            self._own = self._arena.take_persistent(plan.layout, plan.own)
            rec = _Recorder(plan, self._slab, self._own, not self.forward_only)
            self._in_bufs, outs = self._run(rec, arrays)
            if len(rec.buffers) != len(plan.buffers):
                raise CompileError("the step allocated less on its second pass")
            self._build(rec, outs)
        except BaseException:
            self._drop()   # a failed capture holds nothing
            raise
        self._plan = plan
        self._key = key
        _COUNTERS["captures"] += 1

    def _run(self, rec: _Learner | _Recorder, arrays) -> tuple[list, tuple[Tensor, ...]]:
        """One recorded eager run of the step on float32 copies of
        ``arrays``, which ``rec`` places; returns them and the outputs."""
        set_recorder(rec)
        try:
            ins = [rec.alloc(INPUT, a.shape, np.float32, None, a) for a in arrays]
            with enable_grad():  # record even under a caller's no_grad()
                result = self._fn(*map(Tensor, ins))
        finally:
            set_recorder(None)
        outs = result if isinstance(result, tuple) else (result,)
        if not outs or not all(isinstance(t, Tensor) for t in outs):
            raise CompileError("step fn must return a Tensor or tuple of Tensors")
        return ins, outs

    def _learn(self, arrays) -> _Plan:
        """The learning pass: run the step on plain arrays, time each
        allocation's life and pack the slabs.  Counters, FLOPs and the op
        hook see nothing of it; its buffers are freed on return."""
        counts, counter, hook = dict(_COUNTERS), active_counter(), _engine._op_hook
        flops = counter.total if counter is not None else 0.0
        set_op_hook(None)
        try:
            rec = _Learner(self.forward_only)
            intervals = rec.intervals([t.data for t in self._run(rec, arrays)[1]])
        finally:
            set_op_hook(hook)
            _COUNTERS.update(counts)
            if counter is not None:
                counter.total = flops
        offsets, sizes = [0] * len(rec.buffers), []
        for persistent in (False, True):
            group = [i for i, b in enumerate(rec.buffers)
                     if (b.kind == PERSISTENT) == persistent]
            packed, size = _pack([rec.buffers[i].nbytes for i in group],
                                 [intervals[i] for i in group])
            for i, off in zip(group, packed):
                offsets[i] = off
            sizes.append(size)
        layout = tuple((b.shape, b.dtype.str, b.strides, off)
                       for b, off in zip(rec.buffers, offsets) if b.kind == PERSISTENT)
        return _Plan(rec.buffers, intervals, offsets, *sizes,
                     (layout, rec.fills.digest()))

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

        if not self.forward_only:   # a forward-only capture keeps no tape
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
    its batches split into.  The plans never run at once, so they take
    one :class:`Arena`.  At ``_MAX_PLANS`` the least-recently-used
    plan alone is released, so a working set at the cap never recaptures
    more than the shape that is new.  Returns a fresh copy of the output
    so callers may hold results across calls.  It is not the model:
    callers read model attributes (``factor``, ``eval()``, ...) from the
    model they wrapped.
    """

    # two widths (pairs + a single) x the 16 signatures an uneven tiling
    # can produce: per axis, first / last / larger and smaller interior
    _MAX_PLANS = 32

    def __init__(self, model, span=None):
        self._model = model
        self._span = span
        self._plans: dict[tuple, CompiledStep] = {}
        self._arena = Arena()

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
                                span=self._span, arena=self._arena)
        self._plans[key] = step     # most recently used last
        out, = step(arr)
        return Tensor(out.copy())
