"""Dataset serialization: export synthetic worlds to portable archives.

Synthetic samples are regenerated deterministically from seeds, but
downstream users (and the paper's release plan: "we will publicly
release the datasets") want material artifacts.  ``export_dataset``
writes a split to a compressed ``.npz`` with full metadata;
``load_exported`` reads it back; round-tripping is bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .datasets import DatasetSpec, DownscalingDataset
from .grids import Grid

__all__ = ["export_dataset", "load_exported", "ExportedDataset"]

_FORMAT_VERSION = 1


def export_dataset(dataset: DownscalingDataset, path: str | Path,
                   max_samples: int | None = None) -> Path:
    """Write (inputs, targets, metadata) for a dataset split to ``path``.

    Inputs are stored raw (un-normalized) so consumers can fit their own
    statistics; the spec needed to regenerate or extend the data is
    embedded as JSON.
    """
    path = Path(path)
    n = len(dataset) if max_samples is None else min(max_samples, len(dataset))
    if n == 0:
        raise ValueError("nothing to export")
    pairs = [dataset.raw_pair(i) for i in range(n)]
    spec = dataset.spec
    meta = {
        "format_version": _FORMAT_VERSION,
        "name": spec.name,
        "fine_grid": [spec.fine_grid.n_lat, spec.fine_grid.n_lon,
                      spec.fine_grid.lat_min, spec.fine_grid.lat_max,
                      spec.fine_grid.lon_min, spec.fine_grid.lon_max],
        "factor": spec.factor,
        "years": list(dataset.years),
        "samples_per_year": spec.samples_per_year,
        "seed": spec.seed,
        "output_channels": list(dataset.output_channels),
        "variables": [v.name for v in spec.variables],
        "keys": [list(k) for k in dataset._keys[:n]],
    }
    np.savez_compressed(
        path,
        inputs=np.stack([p[0] for p in pairs]),
        targets=np.stack([p[1] for p in pairs]),
        metadata=json.dumps(meta),
    )
    return path


class ExportedDataset:
    """An archive loaded back into memory with the same access surface.

    ``load_exported`` freezes ``inputs``/``targets``, so ``raw_pair``
    returns read-only views, as :meth:`DownscalingDataset.raw_pair` does.
    """

    def __init__(self, inputs: np.ndarray, targets: np.ndarray, metadata: dict):
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs/targets sample counts differ")
        self.inputs = inputs
        self.targets = targets
        self.metadata = metadata

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def raw_pair(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        return self.inputs[idx], self.targets[idx]

    @property
    def fine_grid(self) -> Grid:
        n_lat, n_lon, lat0, lat1, lon0, lon1 = self.metadata["fine_grid"]
        return Grid(int(n_lat), int(n_lon), lat0, lat1, lon0, lon1)


def load_exported(path: str | Path) -> ExportedDataset:
    """Load an archive written by :func:`export_dataset`."""
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["metadata"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported archive version {meta.get('format_version')}")
        inputs, targets = data["inputs"].copy(), data["targets"].copy()
    # same contract as DownscalingDataset.raw_pair: samples are read-only
    inputs.flags.writeable = targets.flags.writeable = False
    return ExportedDataset(inputs, targets, meta)
