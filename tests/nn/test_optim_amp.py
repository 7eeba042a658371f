"""Optimizer, schedule, gradient clipping, and mixed-precision tests."""

import numpy as np
import pytest

from repro.nn import (
    AdamW,
    Bf16Cast,
    GradScaler,
    Linear,
    SGD,
    clip_grad_norm,
    cosine_schedule,
    warmup_cosine,
)
from repro.nn.module import Parameter
from repro.tensor import Tensor, is_bf16_representable


def _quadratic_loss(p: Parameter) -> Tensor:
    return ((p - 3.0) * (p - 3.0)).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        opt = SGD([p], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            _quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.zeros(1, dtype=np.float32))
            opt = SGD([p], lr=0.02, momentum=momentum)
            for _ in range(20):
                opt.zero_grad()
                _quadratic_loss(p).backward()
                opt.step()
            return abs(float(p.data[0]) - 3.0)

        assert run(0.9) < run(0.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_none_grad_skipped(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        SGD([p], lr=0.1).step()  # no backward happened
        np.testing.assert_array_equal(p.data, 1.0)


class TestAdamW:
    def test_converges_on_quadratic(self):
        p = Parameter(np.full(3, 10.0, dtype=np.float32))
        opt = AdamW([p], lr=0.3, weight_decay=0.0)
        for _ in range(200):
            opt.zero_grad()
            _quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, 3.0, atol=1e-2)

    def test_weight_decay_shrinks_params(self):
        p = Parameter(np.full(2, 5.0, dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.all(p.data < 5.0)

    def test_state_nbytes_counts_two_moments(self):
        lin = Linear(8, 8)
        opt = AdamW(lin.parameters(), lr=1e-3)
        expected = 2 * sum(p.data.nbytes for p in lin.parameters())
        assert opt.state_nbytes() == expected


class TestSchedules:
    def test_cosine_endpoints(self):
        assert cosine_schedule(0, 100, 1.0) == pytest.approx(1.0)
        assert cosine_schedule(100, 100, 1.0, min_lr=0.1) == pytest.approx(0.1)

    def test_cosine_monotone_decay(self):
        vals = [cosine_schedule(s, 50, 1.0) for s in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_warmup_ramps_linearly(self):
        lrs = [warmup_cosine(s, 10, 100, 1.0) for s in range(10)]
        np.testing.assert_allclose(lrs, np.arange(1, 11) / 10)

    def test_warmup_then_decays(self):
        peak = warmup_cosine(10, 10, 100, 1.0)
        later = warmup_cosine(80, 10, 100, 1.0)
        assert peak == pytest.approx(1.0) and later < peak

    def test_invalid_total_steps(self):
        with pytest.raises(ValueError):
            cosine_schedule(0, 0, 1.0)


class TestClipGradNorm:
    def test_clips_to_max(self):
        p = Parameter(np.zeros(4, dtype=np.float32))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        pre = clip_grad_norm([p], max_norm=1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_when_small(self):
        p = Parameter(np.zeros(2, dtype=np.float32))
        p.grad = np.array([0.1, 0.1], dtype=np.float32)
        clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, 0.1)


class TestGradScaler:
    def test_scales_loss(self):
        scaler = GradScaler(init_scale=1024.0)
        loss = Tensor(np.array([2.0]), requires_grad=True) * 1.0
        scaled = scaler.scale(loss)
        np.testing.assert_allclose(scaled.data, 2048.0)

    def test_overflow_skips_step_and_backs_off(self):
        p = Parameter(np.ones(2, dtype=np.float32))
        p.grad = np.array([np.inf, 1.0], dtype=np.float32)
        opt = SGD([p], lr=0.1)
        scaler = GradScaler(init_scale=2.0**8)
        took_step = scaler.step(opt)
        assert not took_step
        assert scaler.scale_value == 2.0**7
        np.testing.assert_array_equal(p.data, 1.0)  # untouched
        assert p.grad is None  # grads cleared on skip

    def test_clean_steps_grow_scale(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        opt = SGD([p], lr=0.0)
        scaler = GradScaler(init_scale=4.0, growth_interval=2)
        for _ in range(2):
            p.grad = np.ones(1, dtype=np.float32)
            assert scaler.step(opt)
        assert scaler.scale_value == 8.0

    def test_unscale_divides_gradients(self):
        p = Parameter(np.ones(1, dtype=np.float32))
        p.grad = np.array([512.0], dtype=np.float32)
        scaler = GradScaler(init_scale=512.0)
        scaler.unscale([p])
        np.testing.assert_allclose(p.grad, 1.0)

    def test_scale_floor_is_one(self):
        scaler = GradScaler(init_scale=1.5)
        p = Parameter(np.ones(1, dtype=np.float32))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([np.nan], dtype=np.float32)
        scaler.step(opt)
        assert scaler.scale_value >= 1.0

    def test_invalid_init_scale(self):
        with pytest.raises(ValueError):
            GradScaler(init_scale=0.0)

    def test_end_to_end_bf16_training_converges(self):
        """Scaled bf16 training on a small regression still converges."""
        rng = np.random.default_rng(0)
        lin = Linear(4, 1, rng=rng)
        cast = Bf16Cast()
        opt = AdamW(lin.parameters(), lr=0.05, weight_decay=0.0)
        scaler = GradScaler(init_scale=2.0**10)
        x = rng.standard_normal((64, 4)).astype(np.float32)
        true_w = np.array([[1.0, -2.0, 0.5, 3.0]], dtype=np.float32)
        y = x @ true_w.T
        for _ in range(150):
            opt.zero_grad()
            pred = cast(lin(Tensor(x)))
            loss = ((pred - Tensor(y)) ** 2.0).mean()
            scaler.scale(loss).backward()
            scaler.step(opt)
        final = float((((lin(Tensor(x)).data - y)) ** 2).mean())
        assert final < 0.05


class TestBf16Cast:
    def test_output_on_grid(self):
        cast = Bf16Cast()
        out = cast(Tensor(np.random.default_rng(0).standard_normal(100).astype(np.float32)))
        assert is_bf16_representable(out.data)

    def test_straight_through_gradient(self):
        cast = Bf16Cast()
        x = Tensor(np.array([1.2345], dtype=np.float32), requires_grad=True)
        cast(x).sum().backward()
        np.testing.assert_allclose(x.grad, 1.0)
