"""CompiledStep correctness: per-op bitwise replay fuzz + guard regressions.

Three claims are pinned here:

* **bitwise replay** — for every op in the fuzzer registry
  (``repro.testing.fuzz.OPS``), a compiled program replayed against fresh
  input values produces byte-identical outputs and leaf gradients to an
  eager run on the same values, also after every recorded op output was
  NaN-filled (replay alone writes them all) and on a poisoned replay
  (every reused arena region NaN-filled before its writer runs).  The sweep reuses the
  fuzzer's seeded samplers, so shapes, broadcasts, and the bf16 input
  lattice are all exercised and any failure reproduces from
  ``(op, sample_seed)``.
* **guard correctness** — a shape change, a dtype change, a train↔eval
  flip, and an interleaved eager ``backward()`` each leave the step
  producing exactly what eager produces: the first three force a
  transparent recapture (never a stale-arena read), the last must not
  disturb a live plan.
* **plan eviction** — ``CompiledForward`` at its cap releases the
  least-recently-used plan and no other, with the arena gauge exact
  throughout.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.nn import aggregate_variables, flash_attention
from repro.tensor import (CompiledForward, CompiledStep, Tensor, conv2d, gelu,
                          graph_counters, layernorm, linear, reset_graph_counters)
from repro.tensor.dtypes import DTYPE_BF16, DTYPE_F32
from repro.testing.fuzz import OPS
from repro.testing.poison import poisoned_replay

# ops where finite shape/broadcast sampling can make every input
# non-differentiable (none currently) would be skipped here
_SAMPLES_PER_OP = 4


def _fresh_values(rng, arrays):
    """Replay-step values with the same shapes, the same memory layout
    (BLAS rounds a GEMV differently at another ``lda``; eager and replay
    never see different layouts of one graph) and the same sign pattern
    (keeps ``div`` denominators away from zero and ``maximum`` ties
    broken the same way the sampler arranged)."""
    return [np.multiply(a, 1.0 + 0.5 * rng.random(a.shape), out=np.empty_like(a))
            for a in arrays]


def poison_outputs(step):
    """NaN-fill the output of every op ``step`` recorded that is not a view
    and does not alias a parent, so the next replay must write them all."""
    for out, parents, _, replay in step._records:
        if replay != "view" and not any(np.shares_memory(out.data, p.data)
                                         for p in parents):
            out.data[...] = np.nan


def _eager(spec, vals, kwargs, weight, diff):
    ts = [Tensor(v, requires_grad=(i in diff)) for i, v in enumerate(vals)]
    out = spec.run(*ts, **kwargs)
    if not diff:
        return out.data.copy(), None, {}
    scalar = (out * Tensor(weight)).sum()
    scalar.backward()
    grads = {i: None if ts[i].grad is None else ts[i].grad.copy() for i in diff}
    return out.data.copy(), scalar.data.copy(), grads


def _run_op_sample(spec, sample_seed):
    rng = np.random.default_rng(sample_seed)
    dtype = DTYPE_BF16 if rng.random() < 0.25 else DTYPE_F32
    v0, kwargs = spec.sample(rng, dtype)
    v1 = _fresh_values(rng, v0)
    diff = tuple(i for i in spec.diff_inputs if i < len(v0))

    # differentiable inputs become persistent leaves (grads must land on
    # them across replays, like parameters); the rest are varying step
    # inputs.  ``weight`` makes the loss scalar and is frozen constant —
    # it needs the output shape, hence the throwaway probe run.
    leaves = {i: Tensor(v0[i].copy(order="K"), requires_grad=True) for i in diff}
    step_idx = [i for i in range(len(v0)) if i not in leaves]
    probe = spec.run(*[Tensor(v) for v in v0], **kwargs)
    weight = rng.standard_normal(probe.data.shape).astype(np.float32)

    def fn(*step_tensors):
        it = iter(step_tensors)
        args = [leaves[i] if i in leaves else next(it) for i in range(len(v0))]
        out = spec.run(*args, **kwargs)
        if not diff:
            return out
        return (out * Tensor(weight)).sum(), out

    step = CompiledStep(fn, forward_only=not diff)

    def compiled(vals, poisoned=False):
        for i in diff:
            leaves[i].data[...] = vals[i]
            leaves[i].grad = None
        step_vals = [vals[i] for i in step_idx]
        outs = poisoned_replay(step, *step_vals) if poisoned else step(*step_vals)
        out = outs[0] if not diff else outs[1]
        scalar = None if not diff else outs[0].copy()
        grads = {i: None if leaves[i].grad is None else leaves[i].grad.copy()
                 for i in diff}
        return out.copy(), scalar, grads

    failures = []
    for phase, vals in (("capture", v0), ("replay", v1), ("replay2", v0),
                        ("poison", v1), ("poison_reused", v0)):
        if phase == "poison":
            poison_outputs(step)
        before = graph_counters()["captures"]
        c_out, c_scalar, c_grads = compiled(vals, phase == "poison_reused")
        if phase != "capture" and graph_counters()["captures"] != before:
            failures.append(f"{spec.name}[{sample_seed}] {phase}: "
                            "unexpected recapture (guard churn)")
        e_out, e_scalar, e_grads = _eager(spec, vals, kwargs, weight, diff)
        if not np.array_equal(c_out, e_out):
            failures.append(f"{spec.name}[{sample_seed}] {phase}: output "
                            "not bitwise equal to eager")
        if diff and not np.array_equal(c_scalar, e_scalar):
            failures.append(f"{spec.name}[{sample_seed}] {phase}: loss "
                            "not bitwise equal to eager")
        for i in diff:
            same = (c_grads[i] is None and e_grads[i] is None) or (
                c_grads[i] is not None and e_grads[i] is not None
                and np.array_equal(c_grads[i], e_grads[i]))
            if not same:
                failures.append(f"{spec.name}[{sample_seed}] {phase}: grad "
                                f"of input {i} not bitwise equal to eager")
    step.release()
    return failures


@pytest.mark.parametrize("op", sorted(OPS))
def test_compiled_replay_bitwise_matches_eager(op):
    spec = OPS[op]
    op_index = sorted(OPS).index(op)  # stable seed base (hash() is salted)
    failures = []
    for k in range(_SAMPLES_PER_OP):
        failures.extend(_run_op_sample(spec, 7_000_003 * (k + 1) + op_index))
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("layout", ["split_heads", "views"])
def test_flash_replay_reads_live_parents(layout):
    """``flash_attention`` keeps transposed / padded copies of Q, K, V
    as its GEMM operands; replay must refill them from the parents'
    *live* buffers.  ``split_heads`` parents are the permuted slices
    ``MultiHeadSelfAttention`` hands over (``reshape(-1, L, d)`` of one
    copies), ``views`` parents are contiguous slices of the upstream
    buffer.  Three steps with new values each, bitwise vs eager; block 4
    over L = 10 leaves a ragged last block."""
    B, H, L, d = 2, 3, 10, 4
    rng = np.random.default_rng(5)
    if layout == "split_heads":
        x_shape = (B, L, 3 * H * d)

        def qkv_of(t):
            return [t[:, :, i * H * d:(i + 1) * H * d].reshape(B, L, H, d)
                    .permute(0, 2, 1, 3) for i in range(3)]
    else:
        x_shape = (3, B, H, L, d)

        def qkv_of(t):
            return [t[i] for i in range(3)]
    weight = rng.standard_normal((B, H, L, d)).astype(np.float32)

    def run(w, xt):
        q, k, v = qkv_of(xt * w)      # parents alias one refreshed buffer
        out = flash_attention(q, k, v, block_size=4)
        return (out * Tensor(weight)).sum(), out

    w = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    step = CompiledStep(lambda xt: run(w, xt))
    reset_graph_counters()
    for _ in range(3):
        x = rng.standard_normal(x_shape).astype(np.float32)
        w.grad = None
        loss, out = (a.copy() for a in step(x))
        grad = w.grad.copy()
        w_eager = Tensor(w.data.copy(), requires_grad=True)
        e_loss, e_out = run(w_eager, Tensor(x))
        e_loss.backward()
        assert np.array_equal(out, e_out.data)
        assert np.array_equal(loss, e_loss.data)
        assert np.array_equal(grad, w_eager.grad)
    c = graph_counters()
    assert c["captures"] == 1 and c["replays"] == 2
    step.release()


def _aggregator_parents(rng, v, d, patch=2):
    return [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            for shape in [(d, patch * patch), (d,), (v, 1, d)] + [(d, d), (d,)] * 3]


def test_pooled_attention_replay_reads_live_parents():
    """``aggregate_variables`` keeps its patches, x̄, q, q̃, [p; ΣpP] and
    Σpx between runs; replay must refill them from the field parent's live
    buffer — contiguous, a permuted view or a strided slice of the
    upstream array — *and* from whatever array each weight's ``.data``
    names right now: FSDP and the flat parameter buffers rebind it between
    steps.  Per layout three steps, a new field and freshly bound weight
    arrays each, bitwise vs eager."""
    B, V, hh, ww, D, H = 2, 5, 4, 6, 8, 2
    L = (hh // 2) * (ww // 2)
    rng = np.random.default_rng(6)
    weight = rng.standard_normal((B, L, H, D // H)).astype(np.float32)
    for x_shape, view in [
            ((B, V, hh, ww), lambda t: t),
            ((V, B, ww, hh), lambda t: t.permute(1, 0, 3, 2)),
            ((B, V, hh, 2 * ww), lambda t: t[:, :, :, ::2])]:
        params = _aggregator_parents(rng, V, D)

        def run(ps, xt):
            out = aggregate_variables(view(xt * 2.0), *ps, num_heads=H)
            return (out * Tensor(weight)).sum(), out

        step = CompiledStep(lambda xt: run(params, xt))
        reset_graph_counters()
        for _ in range(3):
            x = rng.standard_normal(x_shape).astype(np.float32)
            for prm in params:
                prm.data = rng.standard_normal(prm.shape).astype(np.float32)
                prm.grad = None
            loss, out = (a.copy() for a in step(x))
            eager = [Tensor(prm.data.copy(), requires_grad=True) for prm in params]
            e_loss, e_out = run(eager, Tensor(x))
            e_loss.backward()
            assert np.array_equal(out, e_out.data)
            assert np.array_equal(loss, e_loss.data)
            for prm, ref in zip(params, eager):
                assert np.array_equal(prm.grad, ref.grad)
        c = graph_counters()
        assert c["captures"] == 1 and c["replays"] == 2
        step.release()


@pytest.mark.parametrize("op", ["conv2d", "linear", "layernorm"])
def test_replay_reads_rebound_weights(op):
    """FSDP and the flat parameter buffers rebind a weight's ``.data``
    between steps; forward and backward must read whatever array it names
    right now, not the one captured.  Per step a new input and freshly
    bound weight arrays, in a training step (output, loss and every
    gradient) and a forward-only one (output), bitwise vs eager."""
    rng = np.random.default_rng(9)
    x_shape, shapes, kernel = {
        "conv2d": ((2, 3, 7, 6), [(4, 3, 3, 3), (4,)],
                   lambda xt, w, b: conv2d(xt, w, b, stride=2, pad=1)),
        "linear": ((2, 5, 6), [(4, 6), (4,)], linear),
        "layernorm": ((2, 5, 6), [(6,), (6,)], layernorm),
    }[op]
    params = [Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
              for shape in shapes]
    probe = kernel(Tensor(np.zeros(x_shape, np.float32)), *params)
    weight = rng.standard_normal(probe.shape).astype(np.float32)

    def run(ps, xt):
        out = kernel(xt * 2.0, *ps)
        return (out * Tensor(weight)).sum(), out

    train = CompiledStep(lambda xt: run(params, xt))
    fwd = CompiledStep(lambda xt: run(params, xt)[1], forward_only=True)
    for _ in range(3):
        x = rng.standard_normal(x_shape).astype(np.float32)
        for prm in params:
            prm.data = rng.standard_normal(prm.shape).astype(np.float32)
            prm.grad = None
        loss, out = (a.copy() for a in train(x))
        only, = fwd(x)
        eager = [Tensor(prm.data.copy(), requires_grad=True) for prm in params]
        e_loss, e_out = run(eager, Tensor(x))
        e_loss.backward()
        assert np.array_equal(out, e_out.data)
        assert np.array_equal(only, e_out.data)
        assert np.array_equal(loss, e_loss.data)
        for prm, ref in zip(params, eager):
            assert np.array_equal(prm.grad, ref.grad)
    train.release()
    fwd.release()


def test_aggregate_variables_replay_allocates_no_array():
    """Every buffer the node writes is preallocated at capture: a forward
    replay's traced peak stays under the smallest of them (x̄'s patches,
    ``B·L·p²`` floats).  What is left is NumPy's own — the ufunc iterator
    takes a fixed 32 KiB buffer for an in-place broadcast, whatever the
    operand size (``np.mean(out=)`` takes four, hence ``add.reduce``)."""
    B, V, hh, ww, D, H = 4, 5, 64, 128, 16, 8
    rng = np.random.default_rng(7)
    params = _aggregator_parents(rng, V, D)
    step = CompiledStep(lambda xt: aggregate_variables(xt, *params, num_heads=H),
                        forward_only=True)
    x = rng.standard_normal((B, V, hh, ww)).astype(np.float32)
    step(x)
    step(x)
    tracemalloc.start()
    try:
        step(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < B * (hh // 2) * (ww // 2) * 4 * 4, peak
    step.release()


@pytest.mark.parametrize("contiguous", [True, False])
@pytest.mark.parametrize("k,stride,pad", [
    (1, 1, 0), (1, 1, 1), (1, 2, 0), (1, 2, 1),
    (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)])
def test_conv2d_replay_gathers_patches_without_staging(k, stride, pad, contiguous):
    """``conv2d`` copies its input into one zero-bordered buffer,
    allocated with the node and kept by a plan, and gathers the window
    view straight into ``cols`` — no ``np.pad``, no staging copy (k = 1
    unpadded reads a contiguous input in place).  Three steps with new
    values, outputs and all three gradients bitwise vs eager; a forward
    replay allocates nothing of the padded size."""
    n, cin, cout, h, w = 2, 3, 4, 22, 19
    rng = np.random.default_rng([k, stride, pad])
    x_shape = (n, cin, h, w) if contiguous else (n, cin, w, h)
    wgt = Tensor(rng.standard_normal((cout, cin, k, k)).astype(np.float32),
                 requires_grad=True)
    bias = Tensor(rng.standard_normal(cout).astype(np.float32), requires_grad=True)
    scale = Tensor(rng.standard_normal(x_shape).astype(np.float32), requires_grad=True)
    leaves = (scale, wgt, bias)

    def run(sc, wg, b, xt):
        xin = xt * sc                 # d loss / d scale carries conv's input grad
        out = conv2d(xin if contiguous else xin.permute(0, 1, 3, 2), wg, b,
                     stride=stride, pad=pad)
        return (out * out).sum(), out

    step = CompiledStep(lambda xt: run(*leaves, xt))
    reset_graph_counters()
    for _ in range(3):
        x = rng.standard_normal(x_shape).astype(np.float32)
        for leaf in leaves:
            leaf.grad = None
        loss, out = (a.copy() for a in step(x))
        eager = [Tensor(leaf.data.copy(), requires_grad=True) for leaf in leaves]
        e_loss, e_out = run(*eager, Tensor(x))
        e_loss.backward()
        assert np.array_equal(out, e_out.data)
        assert np.array_equal(loss, e_loss.data)
        for leaf, ref in zip(leaves, eager):
            assert np.array_equal(leaf.grad, ref.grad)
    c = graph_counters()
    assert c["captures"] == 1 and c["replays"] == 2
    step.release()

    # no bias: a broadcast ``np.add(..., out=)`` buffers up to 32 KB of its own
    fwd = CompiledStep(lambda xt: run(scale, wgt, None, xt)[1], forward_only=True)
    for _ in range(2):                # capture (which builds the buffer), then a replay
        fwd(rng.standard_normal(x_shape).astype(np.float32))
    x = rng.standard_normal(x_shape).astype(np.float32)
    gc.collect()
    tracemalloc.start()
    try:
        fwd(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * cin * (h + 2 * pad) * (w + 2 * pad) * 4
    fwd.release()


def test_gelu_saves_one_buffer_and_a_plan_keeps_one_scratch():
    """The erfc kernel works in the output buffer, the saved ``Phi`` and
    one scratch array, all three allocated with the node: the scratch is
    transient on the eager tape (the node holds two arrays of the input's
    size, as before kernel epoch 3), and a plan keeps it from capture on
    and reuses it on every replay."""
    x = np.random.default_rng(8).standard_normal((64, 1024)).astype(np.float32)
    slack = x.nbytes // 8
    gc.collect()
    tracemalloc.start()
    try:
        def held():
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        base = held()
        out = gelu(Tensor(x, requires_grad=True))
        assert abs(held() - base - 2 * x.nbytes) < slack
        assert tracemalloc.get_traced_memory()[1] - base < 3 * x.nbytes + slack
        del out

        fwd = CompiledStep(gelu, forward_only=True)
        fwd(x)
        captured = held()
        # input copy, output, Phi and the scratch
        assert abs(captured - base - 4 * x.nbytes) < slack
        first = fwd(x)[0].copy()
        assert abs(held() - captured - x.nbytes) < slack  # `first` only
        again = fwd(-x)[0].copy()
        assert abs(held() - captured - 2 * x.nbytes) < slack  # + `again` only
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, gelu(Tensor(x)).data)
    assert np.array_equal(again, gelu(Tensor(-x)).data)
    fwd.release()


# --------------------------------------------------------------------- #
# guard correctness
# --------------------------------------------------------------------- #
def _linear_fn(w, b):
    def fn(xt):
        out = (xt @ w + b).tanh()
        return (out * out).mean(), out
    return fn


def _linear_eager(w_data, b_data, x):
    w = Tensor(w_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = (Tensor(x) @ w + b).tanh()
    loss = (out * out).mean()
    loss.backward()
    return out.data.copy(), w.grad.copy(), b.grad.copy()


def _make_linear_step(rng):
    w = Tensor(rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    return w, b, CompiledStep(_linear_fn(w, b))


def _check_against_eager(step, w, b, x):
    w.grad = b.grad = None
    _, out = step(x)
    e_out, e_wg, e_bg = _linear_eager(w.data.copy(), b.data.copy(), x)
    assert np.array_equal(out, e_out)
    assert np.array_equal(w.grad, e_wg) and np.array_equal(b.grad, e_bg)


class TestGuards:
    def test_shape_change_recaptures_without_stale_reads(self):
        rng = np.random.default_rng(0)
        w, b, step = _make_linear_step(rng)
        xa = rng.standard_normal((3, 6)).astype(np.float32)
        xb = rng.standard_normal((5, 6)).astype(np.float32)
        reset_graph_counters()
        _check_against_eager(step, w, b, xa)          # capture @ (3, 6)
        _check_against_eager(step, w, b, xa)          # replay
        _check_against_eager(step, w, b, xb)          # (5, 6): recapture
        _check_against_eager(step, w, b, xa)          # back: recapture again
        c = graph_counters()
        assert c["captures"] == 3 and c["guard_misses"] == 2
        step.release()

    def test_dtype_change_recaptures(self):
        rng = np.random.default_rng(1)
        w, b, step = _make_linear_step(rng)
        x32 = rng.standard_normal((2, 6)).astype(np.float32)
        reset_graph_counters()
        _check_against_eager(step, w, b, x32)
        # same shape, float64 payload: the engine computes on the cast
        # float32 values either way, but the guard must not replay a
        # float32 plan against a float64 source buffer blindly
        _check_against_eager(step, w, b, x32.astype(np.float64))
        c = graph_counters()
        assert c["captures"] == 2 and c["guard_misses"] == 1
        step.release()

    def test_train_eval_flip_recaptures(self):
        """Frozen control flow + extra guard: flipping ``training``
        recaptures and the new branch takes effect (the Trainer /
        CompiledForward guard mechanism)."""
        class _Net:
            training = True

        net = _Net()
        w = Tensor(np.arange(4, dtype=np.float32) + 1.0, requires_grad=True)

        def fn(xt):
            out = xt * w
            if net.training:          # frozen at capture
                out = out * 2.0
            return out.sum(), out

        step = CompiledStep(fn, guard_extra=lambda: net.training)
        x = np.ones(4, dtype=np.float32)
        reset_graph_counters()
        _, out_train = step(x)
        assert np.array_equal(out_train, 2.0 * (np.arange(4) + 1.0))
        net.training = False
        _, out_eval = step(x)
        assert np.array_equal(out_eval, np.arange(4, dtype=np.float32) + 1.0)
        c = graph_counters()
        assert c["captures"] == 2 and c["guard_misses"] == 1
        step.release()

    def test_interleaved_eager_backward_does_not_disturb_plan(self):
        """An eager step on the same leaves releases *its* graph after
        backward(); the plan's recorded closures are its own (implicit
        retain_graph) so replay stays bitwise and never recaptures."""
        rng = np.random.default_rng(2)
        w, b, step = _make_linear_step(rng)
        x = rng.standard_normal((3, 6)).astype(np.float32)
        _check_against_eager(step, w, b, x)           # capture
        # eager step on the same parameters, graph released afterwards
        w.grad = b.grad = None
        loss = ((Tensor(x) @ w + b).tanh() ** 2).mean()
        loss.backward()
        with pytest.raises(RuntimeError, match="released graph"):
            loss.backward()                           # eager can't re-walk
        reset_graph_counters()
        _check_against_eager(step, w, b, x)           # the plan still can
        c = graph_counters()
        assert c["replays"] == 1 and c["captures"] == 0 and c["guard_misses"] == 0
        step.release()


def test_forward_plan_cache_evicts_the_least_recently_used_plan_only():
    """``CompiledForward`` keeps one plan per input shape; a new shape at
    the cap costs one release and one capture — never the working set —
    and the arena gauge stays exact through it."""
    w = Tensor(np.arange(3, dtype=np.float32) + 1.0)
    def model(t):
        return (t * w).tanh()

    fwd = CompiledForward(model)
    cap = CompiledForward._MAX_PLANS

    def x(width):
        return np.full((width, 3), 0.5, dtype=np.float32)

    def arena():
        return graph_counters()["arena_bytes"] - arena0

    # the gauge is process-wide: an earlier test's unreleased plan that
    # the collector frees mid-test would move it, so free those first
    gc.collect()
    arena0 = graph_counters()["arena_bytes"]
    size = {}                         # one plan's bytes per width, alone
    for width in range(1, cap + 2):
        alone = CompiledStep(model, forward_only=True)
        alone(x(width))
        size[width] = arena()
        alone.release()
    reset_graph_counters()
    for width in range(1, cap + 1):
        fwd(x(width))
    held = sum(size[n] for n in range(1, cap + 1))
    assert graph_counters()["captures"] == cap and arena() == held
    fwd(x(1))                         # width 1 becomes most recent,
    fwd(x(cap + 1))                   # so the new shape evicts width 2
    held += size[cap + 1] - size[2]
    assert arena() == held
    reset_graph_counters()
    for width in (1, *range(3, cap + 2)):
        assert np.array_equal(fwd(x(width)).data, np.tanh(x(width) * w.data))
    c = graph_counters()
    assert c["captures"] == 0 and c["replays"] == cap
    fwd(x(2))                         # back, at the cost of width 1
    held += size[2] - size[1]
    assert graph_counters()["captures"] == 1 and arena() == held
    assert len(fwd._plans) == cap
    fwd.release()
    assert arena() == 0
