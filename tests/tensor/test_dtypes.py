"""Tests for bfloat16 emulation and dtype policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import bf16_round, is_bf16_representable
from repro.testing import seeded_arrays

#: unit roundoff of bfloat16's 8-bit significand
BF16_EPS = 2.0 ** -8


class TestBf16Round:
    def test_exact_values_unchanged(self):
        # powers of two and small integers are exactly representable
        x = np.array([0.0, 1.0, -2.0, 0.5, 256.0, -1024.0], dtype=np.float32)
        np.testing.assert_array_equal(bf16_round(x), x)

    def test_relative_error_bounded(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000).astype(np.float32) * 100
        err = np.abs(bf16_round(x) - x) / np.maximum(np.abs(x), 1e-30)
        assert err.max() <= BF16_EPS

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1000).astype(np.float32)
        once = bf16_round(x)
        np.testing.assert_array_equal(bf16_round(once), once)

    def test_nan_inf_preserved(self):
        x = np.array([np.nan, np.inf, -np.inf], dtype=np.float32)
        out = bf16_round(x)
        assert np.isnan(out[0]) and out[1] == np.inf and out[2] == -np.inf

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 is exactly halfway between 1.0 and the next bf16 value
        # 1 + 2^-7; ties round to even mantissa (1.0 here has even mantissa...
        # verify against explicit candidates instead of hardcoding)
        x = np.float32(1.0 + 2.0**-8)
        out = float(bf16_round(np.array([x]))[0])
        assert out in (1.0, 1.0 + 2.0**-7)

    def test_dynamic_range_matches_float32(self):
        # bf16 keeps float32's exponent: 1e38 must survive, unlike fp16
        x = np.array([1e38, -3e-38], dtype=np.float32)
        out = bf16_round(x)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, x, rtol=1e-2)

    # values above bf16's max finite (~3.39e38) legitimately round to inf,
    # so bound the strategy below that threshold
    @given(st.floats(min_value=-(2.0**127), max_value=2.0**127,
                     allow_nan=False, allow_infinity=False,
                     allow_subnormal=False, width=32))
    @settings(max_examples=200, deadline=None)
    def test_property_error_bound(self, v):
        x = np.array([v], dtype=np.float32)
        out = bf16_round(x)
        assert abs(float(out[0]) - float(x[0])) <= BF16_EPS * abs(float(x[0])) + 1e-40


class TestBf16FuzzerProperties:
    """Fuzzer-driven property tests: the seeded wide-dynamic-range arrays
    from ``repro.testing.fuzz.seeded_arrays`` sweep the exponent range
    instead of clustering near 1.0 like a plain normal draw."""

    def test_round_trip_idempotence_across_exponent_range(self):
        for x in seeded_arrays(seed=101, n=24, size=512):
            once = bf16_round(x)
            assert is_bf16_representable(once)
            np.testing.assert_array_equal(bf16_round(once), once)

    def test_relative_error_bound_across_exponent_range(self):
        for x in seeded_arrays(seed=202, n=24, size=512):
            out = bf16_round(x)
            finite = np.isfinite(out)  # near-overflow values may round up to inf
            err = np.abs(out[finite] - x[finite])
            assert np.all(err <= BF16_EPS * np.abs(x[finite]) + 1e-40)

    def test_round_to_nearest_even_on_exact_ties(self):
        """Construct exact midpoints 2^e * (1 + (2m+1)/256): halfway
        between consecutive bf16 values 2^e*(1 + m/128) and
        2^e*(1 + (m+1)/128).  RNE must pick whichever neighbour has an
        even 7-bit mantissa — i.e. m even rounds DOWN, m odd rounds UP."""
        rng = np.random.default_rng(303)
        exponents = rng.integers(-20, 21, size=64)
        mantissas = rng.integers(0, 128, size=64)  # m in [0, 127]
        for e, m in zip(exponents, mantissas):
            scale = float(np.exp2(float(e)))
            tie = np.float32(scale * (1.0 + m / 128.0 + 1.0 / 256.0))
            lo = np.float32(scale * (1.0 + m / 128.0))
            hi = np.float32(scale * (1.0 + (m + 1) / 128.0))
            out = float(bf16_round(np.array([tie]))[0])
            expected = float(lo) if m % 2 == 0 else float(hi)
            assert out == expected, (
                f"tie 2^{e}*(1 + {m}/128 + 1/256): got {out}, "
                f"expected {'down' if m % 2 == 0 else 'up'} to {expected}")

    def test_overflow_to_inf(self):
        """bf16's max finite is (2 - 2^-7)*2^127; float32 values that
        round beyond it must overflow to inf, preserving sign."""
        max_bf16 = float(np.float32((2.0 - 2.0**-7) * 2.0**127))
        # halfway to the next (non-existent) bf16 step — rounds to inf
        above = np.float32((2.0 - 2.0**-8 + 2.0**-9) * 2.0**127)
        out = bf16_round(np.array([above, -above]))
        assert out[0] == np.inf and out[1] == -np.inf
        # at or below the max finite value, no overflow
        at_max = bf16_round(np.array([max_bf16], dtype=np.float32))
        assert np.isfinite(at_max[0]) and float(at_max[0]) == max_bf16

    def test_float32_max_rounds_to_inf(self):
        out = bf16_round(np.array([np.finfo(np.float32).max], dtype=np.float32))
        assert out[0] == np.inf


class TestCastPolicy:

    def test_is_representable_detects_violation(self):
        assert not is_bf16_representable(np.array([1.0 + 2.0**-12], dtype=np.float32))
