"""Dataset batching, normalization, and split-protocol tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ChannelNormalizer,
    DatasetSpec,
    DownscalingDataset,
    Grid,
    expm1_precip,
    log1p_precip,
    quantile_bias_correct,
    year_split,
)
from repro.data import datasets


def _spec(**kw):
    defaults = dict(
        name="test", fine_grid=Grid(16, 32), factor=4,
        years=(2000, 2001), samples_per_year=3, seed=1,
    )
    defaults.update(kw)
    return DatasetSpec(**defaults)


class TestYearSplit:
    def test_disjoint_and_complete(self):
        years = tuple(range(1980, 2021))
        train, val, test = year_split(years)
        assert set(train) | set(val) | set(test) == set(years)
        assert not (set(train) & set(val)) and not (set(val) & set(test))

    def test_paper_proportions(self):
        # 41 years → ~38/2/1 as in the paper
        train, val, test = year_split(tuple(range(1980, 2021)))
        assert len(train) >= 35 and len(val) >= 1 and len(test) >= 1

    def test_small_year_count(self):
        train, val, test = year_split((2000, 2001, 2002))
        assert train and test

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            year_split(())

    @given(st.integers(3, 60))
    @settings(max_examples=20, deadline=None)
    def test_property_all_splits_nonempty(self, n):
        train, val, test = year_split(tuple(range(n)))
        assert len(train) > 0 and len(test) > 0


class TestChannelNormalizer:
    def test_fit_normalize_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3, 8, 8)).astype(np.float32) * 7 + 2
        norm = ChannelNormalizer.fit(x)
        z = norm.normalize(x[0])
        back = norm.denormalize(z)
        np.testing.assert_allclose(back, x[0], rtol=1e-4, atol=1e-4)

    def test_normalized_stats(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 2, 16, 16)).astype(np.float32) * 5 + 3
        norm = ChannelNormalizer.fit(x)
        z = np.stack([norm.normalize(xi) for xi in x])
        np.testing.assert_allclose(z.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
        np.testing.assert_allclose(z.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_constant_channel_safe(self):
        x = np.zeros((2, 1, 4, 4))
        norm = ChannelNormalizer.fit(x)
        assert np.all(np.isfinite(norm.normalize(x[0])))

    def test_channel_mismatch_raises(self):
        norm = ChannelNormalizer(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            norm.normalize(np.zeros((2, 4, 4)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ChannelNormalizer(np.zeros(3), np.zeros(3))  # zero std
        with pytest.raises(ValueError):
            ChannelNormalizer(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_never_alias_their_argument(self, dtype):
        """Callers (the tile cache's frozen cores, resident samples) hand
        in arrays they keep; the result is theirs to mutate.  Identity
        statistics are the case where a no-copy shortcut would alias."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 8, 8)).astype(dtype)
        for norm in (ChannelNormalizer.fit(x * 7 + 2),
                     ChannelNormalizer(np.zeros(3), np.ones(3))):
            z = norm.normalize(x)
            back = norm.denormalize(z)
            assert z.dtype == back.dtype == np.float32
            assert z.flags.writeable and back.flags.writeable
            assert not np.shares_memory(z, x)
            assert not np.shares_memory(back, z)
            assert not np.shares_memory(back, x)
            frozen = z.copy()
            frozen.flags.writeable = False
            assert not np.shares_memory(norm.denormalize(frozen), frozen)

    @pytest.mark.parametrize("shape", [(3, 8, 12), (2, 3, 8, 12)],
                             ids=["chw", "nchw"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_denormalize_matches_the_expression_form_bitwise(self, dtype,
                                                             shape):
        """``denormalize`` scales into one buffer and adds the mean in
        place; the bits are those of ``z * std + mean`` written out."""
        rng = np.random.default_rng(3)
        z = (rng.standard_normal(shape) * 40).astype(dtype)
        norm = ChannelNormalizer(rng.standard_normal(3) * 300,
                                 rng.random(3) * 9 + 0.1)
        want = (z * norm.std[:, None, None]
                + norm.mean[:, None, None]).astype(np.float32, copy=False)
        got = norm.denormalize(z)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()


class TestPrecipTransforms:
    def test_log1p_roundtrip(self):
        x = np.array([0.0, 0.5, 10.0, 300.0])
        np.testing.assert_allclose(expm1_precip(log1p_precip(x)), x, rtol=1e-6)

    def test_log1p_clips_negative(self):
        assert log1p_precip(np.array([-0.5]))[0] == 0.0

    def test_quantile_bias_correct_matches_reference_distribution(self):
        rng = np.random.default_rng(2)
        src = rng.gamma(2.0, 1.0, 5000)
        ref = rng.gamma(2.0, 3.0, 5000)
        corrected = quantile_bias_correct(src, ref)
        assert np.median(corrected) == pytest.approx(np.median(ref), rel=0.1)

    def test_quantile_bias_correct_monotone(self):
        rng = np.random.default_rng(3)
        src = rng.standard_normal(1000)
        ref = rng.standard_normal(1000) * 2
        corrected = quantile_bias_correct(src, ref)
        order = np.argsort(src)
        assert np.all(np.diff(corrected[order]) >= -1e-6)


class TestDownscalingDataset:
    def test_len_counts_samples(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        assert len(ds) == 2 * 3

    def test_raw_pair_shapes(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        x, y = ds.raw_pair(0)
        assert x.shape == (23, 4, 8)
        assert y.shape == (18, 16, 32)

    def test_batches_require_normalizer(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        with pytest.raises(RuntimeError):
            next(ds.batches(2))

    def test_batches_shapes_and_coverage(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        ds.fit_normalizer()
        batches = list(ds.batches(2))
        assert sum(b.inputs.shape[0] for b in batches) == len(ds)
        assert batches[0].inputs.shape[1:] == (23, 4, 8)
        assert batches[0].targets.shape[1:] == (18, 16, 32)

    def test_shuffle_changes_order_not_content(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        ds.fit_normalizer()
        keys_plain = [k for b in ds.batches(1) for k in b.keys]
        keys_shuf = [k for b in ds.batches(1, shuffle=True, rng=np.random.default_rng(4))
                     for k in b.keys]
        assert sorted(keys_plain) == sorted(keys_shuf)
        assert keys_plain != keys_shuf

    def test_output_channel_override(self):
        spec = _spec(output_channels=(5, 6))
        ds = DownscalingDataset(spec, years=(2000,))
        _, y = ds.raw_pair(0)
        assert y.shape[0] == 2

    def test_empty_years_rejected(self):
        with pytest.raises(ValueError):
            DownscalingDataset(_spec(), years=())

    def test_coarse_grid_property(self):
        assert _spec().coarse_grid.shape == (4, 8)


def _pairs_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def _two_epochs(ds, seed=7):
    rng = np.random.default_rng(seed)
    return [b for _ in range(2) for b in ds.batches(2, shuffle=True, rng=rng)]


class TestResidentSamples:
    def test_resident_pair_equals_fresh_generation(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        first = ds.raw_pair(4)
        fresh = ds.world.paired_sample(2001, 1, 4, ds.output_channels)
        assert _pairs_equal(first, fresh)
        second = ds.raw_pair(4)
        assert second[0] is first[0] and second[1] is first[1]
        for arr in second:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_negative_index_shares_the_entry(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        last = ds.raw_pair(len(ds) - 1)
        assert ds.raw_pair(-1)[0] is last[0]
        assert len(ds._resident) == 1

    @pytest.mark.parametrize("idx", [6, -7, 100])
    def test_out_of_range_names_the_length(self, idx):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        with pytest.raises(IndexError, match="6 samples"):
            ds.raw_pair(idx)

    def test_warm_epochs_equal_cold_epochs(self):
        warm = DownscalingDataset(_spec(), years=(2000, 2001))
        warm.fit_normalizer()
        _two_epochs(warm, seed=1)  # every sample resident now
        assert len(warm._resident) == len(warm)
        cold = DownscalingDataset(_spec(), years=(2000, 2001))
        cold.fit_normalizer()
        for a, b in zip(_two_epochs(warm), _two_epochs(cold), strict=True):
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.targets, b.targets)
            assert np.array_equal(a.targets_raw, b.targets_raw)
            assert a.keys == b.keys

    def test_mutating_a_batch_leaves_the_store_alone(self):
        ds = DownscalingDataset(_spec(), years=(2000,))
        ds.fit_normalizer()
        reference = [(b.inputs.copy(), b.targets.copy(), b.targets_raw.copy())
                     for b in ds.batches(2)]
        for b in ds.batches(2):
            b.inputs[...] = 0.0
            b.targets[...] *= 2.0
            b.targets_raw[...] += 1.0
        for b, (x, y, y_raw) in zip(ds.batches(2), reference, strict=True):
            assert np.array_equal(b.inputs, x)
            assert np.array_equal(b.targets, y)
            assert np.array_equal(b.targets_raw, y_raw)

    def test_fit_normalizer_leaves_samples_resident(self):
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        first = ds.fit_normalizer(n_samples=3)
        first_target = ds.target_normalizer
        assert sorted(ds._resident) == [0, 1, 2]
        second = ds.fit_normalizer(n_samples=3)
        assert np.array_equal(first.mean, second.mean)
        assert np.array_equal(first.std, second.std)
        assert np.array_equal(first_target.mean, ds.target_normalizer.mean)
        assert np.array_equal(first_target.std, ds.target_normalizer.std)

    def test_budget_bounds_resident_bytes(self, monkeypatch):
        reference = DownscalingDataset(_spec(), years=(2000, 2001))
        pair_bytes = sum(a.nbytes for a in reference.raw_pair(0))
        budget = 2 * pair_bytes - 1
        monkeypatch.setattr(datasets, "RESIDENT_BUDGET_BYTES", budget)
        ds = DownscalingDataset(_spec(), years=(2000, 2001))
        for _ in range(2):
            for i in range(len(ds)):
                assert _pairs_equal(ds.raw_pair(i), reference.raw_pair(i))
                assert ds._resident_bytes <= budget
        assert list(ds._resident) == [0]
        assert ds.raw_pair(0)[0] is ds.raw_pair(0)[0]
        over = ds.raw_pair(1)
        assert over[0] is not ds.raw_pair(1)[0]
        assert not over[0].flags.writeable and not over[1].flags.writeable

    @pytest.mark.parametrize("other", [
        dict(seed=2), dict(years=(2002, 2003)), dict(output_channels=(5, 6)),
    ])
    def test_store_is_per_dataset(self, other):
        a = DownscalingDataset(_spec(), years=_spec().years)
        b = DownscalingDataset(_spec(**other), years=_spec(**other).years)
        a.raw_pair(0)
        got = b.raw_pair(0)
        year, index = b._keys[0]
        assert _pairs_equal(got, b.world.paired_sample(year, index, 4, b.output_channels))
        assert not _pairs_equal(got, a.raw_pair(0))
