"""Paired downscaling datasets with year-based splits and batching.

Mirrors Table I's layout: each dataset is a (coarse input → fine target)
pairing over a span of years with a fixed refinement factor, split into
train/val/test by whole years (38/2/1 in the paper; proportional here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .grids import Grid
from .normalize import ChannelNormalizer
from .synthetic import ClimateWorld
from .variables import INPUT_VARIABLES, Variable

__all__ = ["DatasetSpec", "DownscalingDataset", "year_split", "Batch"]

# Per-dataset cap on resident raw pairs (see DownscalingDataset).  Large
# enough to hold every split the tests, CLI and benchmarks build (the e2e
# split is 4.6 MB), small next to the ~145 MB a train process peaks at.
RESIDENT_BUDGET_BYTES = 64 * 2**20


@dataclass(frozen=True)
class Batch:
    """One training batch.

    ``inputs``/``targets`` are normalized (training space); ``targets_raw``
    keeps the physical units for metric evaluation.
    """

    inputs: np.ndarray       # (B, C_in, h, w)   coarse, normalized
    targets: np.ndarray      # (B, C_out, H, W)  fine, normalized
    targets_raw: np.ndarray  # (B, C_out, H, W)  fine, physical units
    keys: tuple[tuple[int, int], ...]  # (year, index) identifiers


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of one Table-I dataset row."""

    name: str
    fine_grid: Grid
    factor: int
    years: tuple[int, ...]
    variables: tuple[Variable, ...] = INPUT_VARIABLES
    output_channels: tuple[int, ...] | None = None
    samples_per_year: int = 8
    seed: int = 0

    @property
    def coarse_grid(self) -> Grid:
        return self.fine_grid.coarsen(self.factor)


def year_split(years: tuple[int, ...], train_frac: float = 0.9,
               val_frac: float = 0.05) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split whole years into train/val/test (never splitting within a year).

    Matches the paper's protocol of disjoint year ranges; guarantees at
    least one year in every split when there are >= 3 years.
    """
    years = tuple(years)
    n = len(years)
    if n == 0:
        raise ValueError("no years to split")
    n_train = max(1, int(round(n * train_frac)))
    n_val = max(1 if n >= 3 else 0, int(round(n * val_frac)))
    while n_train + n_val >= n and n >= 3:
        n_train -= 1
    n_train = max(1, n_train)
    train = years[:n_train]
    val = years[n_train : n_train + n_val]
    test = years[n_train + n_val :] or years[-1:]
    return train, val, test


class DownscalingDataset:
    """Materializes paired samples for one split of a :class:`DatasetSpec`.

    A sample is a pure function of ``(spec.seed, year, index)``:
    :class:`ClimateWorld` regenerates it on every call, this class keeps
    it.  The first ``raw_pair(idx)`` generates the pair, freezes both
    arrays and leaves them resident; later visits (every epoch after the
    first, validation, ``predict_dataset``, export) return the same
    objects.  Residency is per dataset instance and capped at
    ``RESIDENT_BUDGET_BYTES``: the store fills and then stops admitting,
    and an index that did not fit is regenerated on each visit.  Raw pairs
    are kept, not normalized batches, so swapping a normalizer needs no
    invalidation; ``Batch`` arrays are always fresh and writable.

    ``fit_normalizer`` must be called (or a normalizer passed) before
    batches are produced.
    """

    def __init__(self, spec: DatasetSpec, years: tuple[int, ...],
                 normalizer: ChannelNormalizer | None = None,
                 target_normalizer: ChannelNormalizer | None = None):
        if not years:
            raise ValueError("dataset needs at least one year")
        self.spec = spec
        self.years = tuple(years)
        self.world = ClimateWorld(spec.fine_grid, spec.variables, seed=spec.seed,
                                  samples_per_year=spec.samples_per_year)
        self.normalizer = normalizer
        self.target_normalizer = target_normalizer
        self._keys = [(y, i) for y in self.years for i in range(spec.samples_per_year)]
        self._resident: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._resident_bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def output_channels(self) -> list[int]:
        if self.spec.output_channels is not None:
            return list(self.spec.output_channels)
        return [i for i, v in enumerate(self.spec.variables) if v.kind != "static"]

    def raw_pair(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (coarse input, fine target) pair in physical units."""
        try:
            idx = range(len(self))[idx]
        except IndexError:
            raise IndexError(f"sample index {idx} out of range for a dataset "
                             f"of {len(self)} samples") from None
        pair = self._resident.get(idx)
        if pair is None:
            year, index = self._keys[idx]
            pair = self.world.paired_sample(year, index, self.spec.factor,
                                            self.output_channels)
            for arr in pair:
                arr.flags.writeable = False
            nbytes = pair[0].nbytes + pair[1].nbytes
            if self._resident_bytes + nbytes <= RESIDENT_BUDGET_BYTES:
                self._resident[idx] = pair
                self._resident_bytes += nbytes
        return pair

    def fit_normalizer(self, n_samples: int = 4) -> ChannelNormalizer:
        """Estimate input AND target channel statistics from early samples.

        Training happens in normalized target space (Fig. 1: inputs are
        "normalized and bias corrected"); predictions are denormalized
        back to physical units for evaluation.
        """
        n = min(n_samples, len(self))
        pairs = [self.raw_pair(i) for i in range(n)]
        self.normalizer = ChannelNormalizer.fit(np.stack([p[0] for p in pairs]))
        self.target_normalizer = ChannelNormalizer.fit(np.stack([p[1] for p in pairs]))
        return self.normalizer

    def batches(self, batch_size: int, shuffle: bool = False,
                rng: np.random.Generator | None = None) -> Iterator[Batch]:
        """Yield normalized batches; optionally shuffled per epoch."""
        if self.normalizer is None or self.target_normalizer is None:
            raise RuntimeError("call fit_normalizer() first (or pass both in)")
        order = np.arange(len(self))
        if shuffle:
            (rng or np.random.default_rng(0)).shuffle(order)
        for start in range(0, len(order), batch_size):
            chunk = order[start : start + batch_size]
            xs, ys, ys_raw, keys = [], [], [], []
            for idx in chunk:
                x, y = self.raw_pair(int(idx))
                xs.append(self.normalizer.normalize(x))
                ys.append(self.target_normalizer.normalize(y))
                ys_raw.append(y)
                keys.append(self._keys[int(idx)])
            yield Batch(np.stack(xs), np.stack(ys), np.stack(ys_raw), tuple(keys))
