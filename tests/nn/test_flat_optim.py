"""Flat parameter/gradient buffers and the vectorised optimizer step.

The acceptance bar for ``flatten=True`` is *bit-identical* trajectories:
the flat step runs the same elementwise float32 sequence as the
per-parameter loop, so ``np.array_equal`` (not allclose) must hold over
multiple steps.
"""

import numpy as np
import pytest

from repro.nn import AdamW, FlatParamBuffer, SGD
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.tensor import Tensor, gelu


class TinyNet(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(8, 16, rng=rng)
        self.fc2 = Linear(16, 4, rng=rng)

    def forward(self, x):
        return self.fc2(gelu(self.fc1(x)))


def _loss(model, x, y):
    diff = model(Tensor(x)) - Tensor(y)
    return (diff * diff).mean()


def _train(optim_cls, flatten, steps=5, **kw):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 8)).astype(np.float32)
    y = rng.standard_normal((6, 4)).astype(np.float32)
    model = TinyNet()
    opt = optim_cls(model.parameters(), flatten=flatten, **kw)
    for _ in range(steps):
        opt.zero_grad()
        _loss(model, x, y).backward()
        opt.step()
    return model.state_dict()


class TestFlatBitExact:
    @pytest.mark.parametrize("kw", [dict(lr=1e-2, weight_decay=0.01),
                                    dict(lr=3e-3, weight_decay=0.0)])
    def test_adamw_flat_equals_loop(self, kw):
        flat = _train(AdamW, True, **kw)
        loop = _train(AdamW, False, **kw)
        for name in loop:
            assert np.array_equal(flat[name], loop[name]), name

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_flat_equals_loop(self, momentum):
        flat = _train(SGD, True, lr=1e-2, momentum=momentum)
        loop = _train(SGD, False, lr=1e-2, momentum=momentum)
        for name in loop:
            assert np.array_equal(flat[name], loop[name]), name


class TestSharedScratch:
    """Flat AdamWs that step in turn may share one scratch pair: each step
    rewrites both buffers before it reads them."""

    @staticmethod
    def _run(share):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 8)).astype(np.float32)
        y = rng.standard_normal((6, 4)).astype(np.float32)
        models = [TinyNet(seed) for seed in (0, 1)]

        def build(**kw):
            opts = []
            for m, k in zip(models, kw.get("flats", (None, None))):
                opts.append(AdamW(m.parameters(), lr=1e-2, flatten=k is None, flat=k,
                                  scratch=opts[0].scratch if share and opts else None))
            return opts

        def steps(opts, n):
            for _ in range(n):
                for m, opt in zip(models, opts):
                    opt.zero_grad()
                    _loss(m, x, y).backward()
                    opt.step()

        opts = build()
        assert (opts[1].scratch is opts[0].scratch) == share
        steps(opts, 3)
        state = [opt.export_state() for opt in opts]
        # round trip: fresh optimizers on the same buffers import the state
        opts = build(flats=[opt.flat for opt in opts])
        for opt, st in zip(opts, state):
            opt.import_state(*st)
        steps(opts, 2)
        return state, [m.state_dict() for m in models], [o.export_state() for o in opts]

    def test_shared_scratch_matches_private_pairs_bitwise(self):
        shared, private = self._run(True), self._run(False)
        for got, want in zip(shared, private):
            for a, b in zip(got, want):
                if isinstance(a, dict):
                    assert all(np.array_equal(a[k], b[k]) for k in b)
                else:
                    assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_scratch_of_another_shape_refused(self):
        opt = AdamW(TinyNet().parameters(), flatten=True)
        small = Linear(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="scratch"):
            AdamW(small.parameters(), flatten=True, scratch=opt.scratch)


class TestFlatParamBuffer:
    def test_data_repointed_to_views(self):
        model = TinyNet()
        before = {k: v.copy() for k, v in model.state_dict().items()}
        buf = FlatParamBuffer(list(model.parameters()))
        for p in model.parameters():
            assert p.data.base is buf.data
        for name, arr in model.state_dict().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_grad_views_lazy_until_zero_grad(self):
        model = TinyNet()
        buf = FlatParamBuffer(list(model.parameters()))
        assert all(p.grad is None for p in model.parameters())
        buf.zero_grad()
        for p in model.parameters():
            assert p.grad is not None and p.grad.base is buf.grad

    def test_backward_lands_in_flat_buffer(self):
        model = TinyNet()
        buf = FlatParamBuffer(list(model.parameters()))
        buf.zero_grad()
        rng = np.random.default_rng(1)
        _loss(model, rng.standard_normal((3, 8)).astype(np.float32),
              rng.standard_normal((3, 4)).astype(np.float32)).backward()
        assert float(np.abs(buf.grad).sum()) > 0.0
        for p, gview in zip(buf.params, buf._grad_views):
            assert p.grad is gview

    def test_sync_grads_reconciles_detached_grad(self):
        model = TinyNet()
        buf = FlatParamBuffer(list(model.parameters()))
        buf.zero_grad()
        p0 = buf.params[0]
        foreign = np.full(p0.data.shape, 2.5, np.float32)
        p0.grad = foreign                       # detached by outside code
        buf.params[1].grad = None               # dropped entirely
        buf.sync_grads()
        np.testing.assert_array_equal(buf.params[0].grad, foreign)
        assert buf.params[0].grad is buf._grad_views[0]
        np.testing.assert_array_equal(buf.params[1].grad,
                                      np.zeros_like(buf.params[1].data))

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            FlatParamBuffer([])

    def test_flat_treats_missing_grad_as_zero(self):
        # documented semantic difference vs. the per-param loop (which
        # skips None grads): flat decays moments with g=0
        model = TinyNet()
        opt = AdamW(model.parameters(), lr=1e-2, weight_decay=0.0, flatten=True)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        opt.zero_grad()  # all grads zero, none ever set
        opt.step()
        after = model.state_dict()
        for name in before:  # zero grad + zero moments -> no movement
            np.testing.assert_array_equal(after[name], before[name])
