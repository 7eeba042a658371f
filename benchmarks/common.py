"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
writes a text rendition to ``benchmarks/results/``, with paper values
alongside measured/modelled values.  Trained models are cached
process-wide so the Table IV / Fig. 7 benches share one training run per
configuration.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core import ModelConfig, Reslim
from repro.data import DatasetSpec, DownscalingDataset, Grid, year_split
from repro.testing import check_golden
from repro.train import TrainConfig, Trainer, evaluate_downscaling, predict_dataset

RESULTS_DIR = Path(__file__).parent / "results"
GOLDEN_DIR = Path(__file__).parent / "golden"

#: Tables are mostly modelled/measured timings, so the default golden
#: tolerance is wide; pass a tighter ``golden_rtol`` for pure-math tables.
GOLDEN_RTOL = 0.5

#: scaled-down stand-ins for the paper's model sizes: same depth/head
#: structure as the 9.5M and 126M configs, width reduced to train on CPU.
#: the "126M-scaled" model has ~8x the parameters of the "9.5M-scaled" one,
#: preserving the capacity ordering that Table IV / Fig. 7a measure.
SCALED_CONFIGS = {
    "9.5M-scaled": ModelConfig("9.5M-scaled", embed_dim=16, depth=2, num_heads=4),
    "126M-scaled": ModelConfig("126M-scaled", embed_dim=48, depth=3, num_heads=8),
}

#: the shared downscaling task for accuracy benches: CONUS-like 4X task
FINE_GRID = Grid(32, 64)
YEARS = tuple(range(2000, 2008))
SCIENCE_CHANNELS = (17, 18, 19)  # t2m, tmin, total_precipitation
VARIABLE_NAMES = ["t2m", "tmin", "total_precipitation"]

_cache: dict[str, tuple] = {}


def write_table(name: str, lines: list[str], golden_rtol: float = GOLDEN_RTOL) -> Path:
    """Persist a rendered benchmark table, echo it, and regression-check it.

    The table is compared against ``benchmarks/golden/{name}.golden``
    (created on first run): the text layout must match exactly and every
    embedded number must stay within ``golden_rtol`` of its golden value.
    Re-baseline intentional changes with ``--update-golden`` or
    ``REPRO_UPDATE_GOLDEN=1``.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print("\n" + text)
    status = check_golden(name, text, GOLDEN_DIR, rtol=golden_rtol)
    if status != "checked":
        print(f"[golden] {name}: {status} {GOLDEN_DIR / (name + '.golden')}")
    return path


def make_datasets() -> tuple[DownscalingDataset, DownscalingDataset]:
    """(train, test) datasets for the shared accuracy task."""
    train_years, _, test_years = year_split(YEARS, train_frac=0.75, val_frac=0.12)
    spec = DatasetSpec(name="bench", fine_grid=FINE_GRID, factor=4, years=YEARS,
                       samples_per_year=6, seed=42,
                       output_channels=SCIENCE_CHANNELS)
    train_ds = DownscalingDataset(spec, years=train_years)
    test_ds = DownscalingDataset(spec, years=test_years)
    return train_ds, test_ds


def trained_model(config_name: str, epochs: int = 14):
    """A Reslim model trained on the shared task, cached per config.

    Returns (model, train_dataset, test_metrics_rows).
    """
    if config_name in _cache:
        return _cache[config_name]
    config = SCALED_CONFIGS[config_name]
    train_ds, test_ds = make_datasets()
    model = Reslim(config, in_channels=23, out_channels=3, factor=4,
                   max_tokens=256, rng=np.random.default_rng(0))
    trainer = Trainer(model, train_ds,
                      TrainConfig(epochs=epochs, batch_size=4, lr=4e-3, seed=1))
    trainer.fit()
    test_ds.normalizer = train_ds.normalizer
    test_ds.target_normalizer = train_ds.target_normalizer
    preds, targets = predict_dataset(model, test_ds)
    rows = evaluate_downscaling(preds, targets, VARIABLE_NAMES)
    result = (model, train_ds, rows, preds, targets)
    _cache[config_name] = result
    return result
