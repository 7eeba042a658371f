"""One FLOP price per op: the engine charges ``repro.tensor.flops.FLOPS``
in eager forward, eager backward and compiled replay alike, and every op
that reaches the tape is fuzzed or named exempt with a reason."""

import numpy as np

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid
from repro.nn import Bf16Cast, checkpoint
from repro.tensor import (CompiledForward, CompiledStep, FlopCounter, Tensor,
                          gelu, linear, no_grad)
from repro.tensor.flops import FLOPS
from repro.testing.fuzz import OPS
from repro.train import TrainConfig, Trainer

TINY = ModelConfig("tiny", embed_dim=32, depth=2, num_heads=4)

#: ops that reach the tape without an ``OpSpec`` in ``testing.fuzz.OPS``
FUZZ_EXEMPT = {
    "reshape": "a view, or a copy of its parent: no arithmetic",
    "transpose": "a view of its parent",
    "permute": "a view of its parent",
    "getitem": "a view or gather of its parent: no arithmetic",
    "pow": "scalar exponent, gradient-checked in test_tensor_ops",
    "checkpoint": "an opaque region whose re-run ops are themselves on the tape",
    "bf16_cast": "straight-through rounding; bf16_round is tested in test_dtypes",
}


def _reslim():
    return Reslim(TINY, 5, 3, factor=4, max_tokens=256,
                  rng=np.random.default_rng(0))


def _field(seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 5, 8, 16)).astype(np.float32)
    y = rng.standard_normal((2, 3, 32, 64)).astype(np.float32)
    return x, y


def _counted(fn, *args):
    with FlopCounter() as fc:
        fn(*args)
    return fc.total


class TestReplayBillsWhatEagerBills:
    def test_train_step(self):
        model = _reslim()
        x, y = _field()

        def step(xt, yt):
            d = model(xt) - yt
            return (d * d).mean()

        eager = _counted(lambda: step(Tensor(x), Tensor(y)).backward())
        compiled = CompiledStep(step)
        assert [_counted(compiled, x, y) for _ in range(3)] == [eager] * 3
        assert eager == 21_752_320

    def test_forward(self):
        model = _reslim()
        x, _ = _field()
        with no_grad():
            eager = _counted(model, Tensor(x))
        compiled = CompiledForward(model)
        assert [_counted(compiled, x) for _ in range(3)] == [eager] * 3
        assert eager == 7_163_392

    def test_checkpoint_region_bills_its_live_reruns(self):
        """A checkpoint node has no price: its forward re-run on replay and
        its rematerialised backward are charged op by op, as in eager."""
        rng = np.random.default_rng(0)
        w = Tensor(rng.standard_normal((8, 8)).astype(np.float32), requires_grad=True)
        cast = Bf16Cast()

        def step(xt):
            return checkpoint(lambda t: gelu(linear(cast(t), w)), xt, params=[w]).sum()

        x = rng.standard_normal((4, 8)).astype(np.float32)
        eager = _counted(lambda: step(Tensor(x)).backward())
        compiled = CompiledStep(step)
        assert [_counted(compiled, x) for _ in range(2)] == [eager] * 2
        assert eager == 4 * (2 * 4 * 8 * 8)  # forward, re-run, 2x backward


def _ops_on_tape(monkeypatch, run) -> set[str]:
    seen = set()
    from_op = Tensor._from_op.__func__

    def spy(cls, data, parents, backward, op, replay=None):
        seen.add(op)
        return from_op(cls, data, parents, backward, op, replay)

    with monkeypatch.context() as m:
        m.setattr(Tensor, "_from_op", classmethod(spy))
        run()
    return seen


class TestFuzzCoverage:
    @staticmethod
    def _model():
        return Reslim(ModelConfig("tiny", embed_dim=16, depth=1, num_heads=2),
                      23, 3, factor=4, max_tokens=64, rng=np.random.default_rng(0))

    def test_every_op_on_the_tape_is_fuzzed_or_exempt(self, monkeypatch):
        """A new kernel cannot skip the fuzzer: eager train step, compiled
        forward, and a checkpointed bf16 step."""
        spec = DatasetSpec(name="t", fine_grid=Grid(16, 32), factor=4,
                           years=(2000,), samples_per_year=2, seed=3,
                           output_channels=(17, 18, 19))
        data = DownscalingDataset(spec, years=(2000,))
        eager = Trainer(self._model(), data, TrainConfig(batch_size=2))
        served = CompiledForward(self._model().eval())
        model = self._model()
        model.encoder.checkpoint_blocks = True
        mixed = Trainer(model, data, TrainConfig(batch_size=2, bf16=True))
        batch = next(iter(data.batches(2)))
        seen = set()
        for run in (lambda: eager.train_step(batch),
                    lambda: served(batch.inputs),
                    lambda: mixed.train_step(batch)):
            seen |= _ops_on_tape(monkeypatch, run)
        assert seen - set(OPS) - set(FUZZ_EXEMPT) == set()
        assert set(FUZZ_EXEMPT) <= seen, "an exemption no run needs"
        assert not set(FUZZ_EXEMPT) & set(OPS)

    def test_every_priced_op_has_an_op_spec(self):
        assert set(FLOPS) <= set(OPS)
