"""The op fuzzer: clean sweeps on the real engine, determinism, and the
ability to catch a planted bug."""

import dataclasses

import numpy as np
import pytest

from repro.testing import OPS, FuzzReport, fuzz_ops
from repro.testing.fuzz import OpSpec, _check_sample


class TestFastSweep:
    def test_zero_mismatches_across_200_plus_samples(self):
        """The ISSUE's acceptance bar: >= 200 seeded samples, no failures."""
        report = fuzz_ops(n_samples=220, seed=0)
        assert report.ok, report.summary()
        assert report.n_samples == 220
        # the sweep must actually exercise a broad slice of the registry
        assert len(report.per_op) >= 15

    def test_different_seed_still_clean(self):
        report = fuzz_ops(n_samples=60, seed=12345)
        assert report.ok, report.summary()

    def test_deterministic_for_fixed_seed(self):
        a = fuzz_ops(n_samples=40, seed=7)
        b = fuzz_ops(n_samples=40, seed=7)
        assert a.per_op == b.per_op
        assert [str(f) for f in a.failures] == [str(f) for f in b.failures]

    @pytest.mark.parametrize("bf16_fraction", [0.0, 1.0])
    def test_gelu_erfc_kernel_on_both_input_lattices(self, bf16_fraction):
        """Kernel epoch 3 at the fuzzer's existing tolerances, forward and
        backward, against the float64 scipy reference."""
        report = fuzz_ops(n_samples=80, seed=11, ops=["gelu"],
                          bf16_fraction=bf16_fraction)
        assert report.ok and report.per_op == {"gelu": 80}, report.summary()

    def test_dropping_an_op_leaves_other_ops_samples_unchanged(self,
                                                                monkeypatch):
        """Each sample is keyed by (seed, op name, per-op index), so a
        registry edit does not re-deal the other ops' inputs."""
        from repro.testing import fuzz

        def drawn(ops):
            seen = []

            def record(spec, index, seed, dtype, rng, *_):
                arrays, kwargs = spec.sample(rng, dtype)
                seen.append((spec.name, index, dtype, repr(kwargs),
                             [a.tobytes() for a in arrays]))
                return []

            monkeypatch.setattr(fuzz, "_check_sample", record)
            fuzz_ops(n_samples=2 * len(ops), seed=5, ops=ops)
            return sorted(seen, key=lambda s: s[:2])

        every = sorted(OPS)
        fewer = [name for name in every if name != "matmul"]
        assert drawn(fewer) == [s for s in drawn(every) if s[0] != "matmul"]

    def test_op_subset_and_unknown_op(self):
        report = fuzz_ops(n_samples=30, seed=3, ops=["softmax", "gelu"])
        assert set(report.per_op) <= {"softmax", "gelu"}
        with pytest.raises(ValueError):
            fuzz_ops(n_samples=5, ops=["not_an_op"])


class TestDetectsPlantedBug:
    def test_forward_bug_is_caught(self):
        spec = OPS["gelu"]
        broken = dataclasses.replace(
            spec, reference=lambda x: x * 0.5)  # wrong math
        rng = np.random.default_rng(0)
        failures = _check_sample(broken, 0, 0, "float32", rng,
                                 check_backward=False, max_grad_elems=96)
        assert failures and failures[0].kind == "forward"

    def test_backward_bug_is_caught(self):
        # plant a 5% scale error but loosen the forward tolerance past it,
        # so only the gradient cross-check can catch the discrepancy
        broken = dataclasses.replace(OPS["mul"],
                                     reference=lambda a, b: a * b * 1.05,
                                     fwd_rtol=1.0, fwd_atol=1.0)
        rng = np.random.default_rng(1)
        failures = _check_sample(broken, 0, 1, "float32", rng,
                                 check_backward=True, max_grad_elems=96)
        assert failures and failures[0].kind == "backward"

    def test_failure_report_is_reproducible(self):
        broken = dataclasses.replace(OPS["gelu"], reference=lambda x: x)
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        f1 = _check_sample(broken, 4, 9, "float32", rng1, False, 96)
        f2 = _check_sample(broken, 4, 9, "float32", rng2, False, 96)
        assert [str(f) for f in f1] == [str(f) for f in f2]
        assert f1[0].shapes  # shapes recorded for reproduction


class TestReport:
    def test_summary_and_raise(self):
        report = FuzzReport(n_samples=0, seed=0)
        assert report.ok
        report.raise_if_failed()  # no-op when clean
        assert "0 failure" in report.summary()


@pytest.mark.slow
class TestLongSweep:
    def test_thousand_sample_sweep(self):
        report = fuzz_ops(n_samples=1000, seed=42)
        assert report.ok, report.summary()
        # the long sweep should hit every registered op
        assert set(report.per_op) == set(OPS)
