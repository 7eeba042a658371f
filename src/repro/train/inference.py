"""Inference and evaluation runners (Table IV, Figs. 7-8).

Evaluates a trained downscaler against observation fields, producing the
paper's metric rows: per-variable R²/RMSE/quantile-RMSE/SSIM/PSNR, with
the log(x+1) transform applied to precipitation RMSEs (Sec. V-E), and
optional tiled inference for grids too large for one pass.
"""

from __future__ import annotations

import numpy as np

from ..core.tiles import TiledDownscaler, TilePlan, TileShapeError
from ..data.datasets import DownscalingDataset
from ..data.normalize import log1p_precip
from ..evals import evaluate_all
from ..nn import Module
from ..tensor import CompiledForward, Tensor, no_grad

__all__ = ["build_inference_runner", "predict_dataset",
           "evaluate_downscaling", "global_inference"]


def build_inference_runner(model: Module, n_tiles: int = 1, halo: int = 0,
                           factor: int | None = None,
                           coarse_shape: tuple[int, int] | None = None,
                           compile: bool = False,
                           uneven: bool = False) -> Module:
    """The inference runner for a (possibly tiled) downscaler, validated
    up front.

    Shared by :func:`predict_dataset`, :func:`global_inference`, and
    :class:`repro.serve.DownscalingService`, so every inference path
    resolves ``factor`` and checks the tiling geometry the same way —
    and fails *here*, with a clear message, rather than deep inside
    :class:`~repro.core.tiles.TiledDownscaler` mid-forward.

    ``coarse_shape`` (the input grid ``(h, w)``), when known, lets the
    tile partition be validated before any compute: the grid must divide
    into the tile layout, the halo must be smaller than the tile core, a
    model's coarse-grid ``tokenizer`` must patch every tile shape, and a
    fine-grid ``patch_embed`` (times ``deep_stride``, for Swin) every tile
    shape × ``factor``.

    ``compile=True`` wraps the *model* in a
    :class:`~repro.tensor.compile.CompiledForward` so repeated
    fixed-shape forwards (and each tile of a tiled run — all tiles share
    one shape, hence one program) replay a captured plan instead of
    rebuilding the tape.  Output values are bit-identical.
    """
    if n_tiles < 1:
        raise ValueError(f"n_tiles must be >= 1, got {n_tiles}")
    if halo < 0:
        raise ValueError(f"halo must be non-negative, got {halo}")
    if factor is None:
        factor = getattr(model, "factor", None)
    elif not isinstance(factor, (int, np.integer)) or isinstance(factor, bool) \
            or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    if n_tiles == 1:
        return CompiledForward(model) if compile else model
    if factor is None:
        raise ValueError(
            "factor required for tiled inference: pass factor= or use a "
            "model with a .factor attribute")
    if coarse_shape is not None:
        # raises every tile-geometry error (non-divisible grid, a halo
        # that does not fit the tile extent) before any forward pass runs;
        # then every tile must patch: a coarse-grid tokenizer patches the
        # tile, a fine-grid patch embed (times a Swin's deep stride) the
        # tile upsampled by factor
        p = getattr(getattr(model, "tokenizer", None), "patch_size", 1)
        fine = (getattr(getattr(model, "patch_embed", None), "patch_size", 1)
                * getattr(model, "deep_stride", 1))
        for h, w in sorted(TilePlan.build(coarse_shape, n_tiles, halo, factor,
                                          uneven=uneven).signatures()):
            if h % p or w % p:
                raise TileShapeError(f"tile shape {(h, w)} is not divisible by patch size {p}")
            if (h * factor) % fine or (w * factor) % fine:
                raise TileShapeError(
                    f"tile shape {(h, w)} x factor {factor} is not divisible "
                    f"by fine-grid patch size {fine}")
    # compile wraps the inner model: per-tile shapes are identical for
    # even tiling, so one captured program serves every tile (uneven
    # tiling falls back to one plan per distinct shape); stitching
    # stays eager
    inner = CompiledForward(model) if compile else model
    return TiledDownscaler(inner, n_tiles=n_tiles, halo=halo,
                           factor=int(factor), uneven=uneven)


def predict_dataset(model: Module, dataset: DownscalingDataset,
                    batch_size: int = 2, n_tiles: int = 1, halo: int = 0,
                    factor: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(predictions, targets) stacked over the dataset, raw units.

    ``n_tiles > 1`` routes through :class:`TiledDownscaler` — the TILES
    inference path for grids that exceed one device's memory.  The
    tiling geometry is validated against the dataset's coarse grid
    before any sample is processed.
    """
    model.eval()
    coarse = dataset.spec.coarse_grid
    runner = build_inference_runner(model, n_tiles=n_tiles, halo=halo,
                                    factor=factor,
                                    coarse_shape=(coarse.n_lat, coarse.n_lon))
    preds, targets = [], []
    with no_grad():
        for batch in dataset.batches(batch_size):
            pred = runner(Tensor(batch.inputs)).data
            # denormalize back to physical units for evaluation
            pred = np.stack([dataset.target_normalizer.denormalize(p) for p in pred])
            preds.append(pred)
            targets.append(batch.targets_raw)
    return np.concatenate(preds), np.concatenate(targets)


def evaluate_downscaling(pred: np.ndarray, target: np.ndarray,
                         variable_names: list[str],
                         precip_log_space: bool = True) -> dict[str, dict[str, float]]:
    """Per-variable Table-IV metric rows.

    ``pred``/``target`` are (N, C, H, W); metrics are computed over all
    samples jointly per channel.  Precipitation channels (name containing
    'precip') are evaluated in log(x+1) space, including the 99.99th
    percentile extreme the paper reports.
    """
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    if pred.shape[1] != len(variable_names):
        raise ValueError("one name per channel required")
    rows: dict[str, dict[str, float]] = {}
    for c, name in enumerate(variable_names):
        p = pred[:, c].reshape(-1, *pred.shape[2:])
        t = target[:, c].reshape(-1, *target.shape[2:])
        is_precip = "precip" in name
        if is_precip and precip_log_space:
            p, t = log1p_precip(p), log1p_precip(t)
        # image metrics per sample, scientific metrics over the pool
        per_sample = [evaluate_all(p[i], t[i],
                                   extra_quantiles=(0.9999,) if is_precip else ())
                      for i in range(p.shape[0])]
        # scientific metrics pool all samples (stacked along rows — the
        # 2-D shape is only needed by SSIM, which uses per_sample above)
        pooled = evaluate_all(p.reshape(p.shape[0] * p.shape[1], p.shape[2]),
                              t.reshape(t.shape[0] * t.shape[1], t.shape[2]),
                              extra_quantiles=(0.9999,) if is_precip else ())
        row = {k: float(np.mean([s[k] for s in per_sample]))
               for k in ("ssim", "psnr")}
        row.update({k: v for k, v in pooled.items() if k not in ("ssim", "psnr")})
        rows[name] = row
    return rows


def global_inference(model: Module, coarse_input: np.ndarray,
                     normalizer, observation: np.ndarray,
                     precip_channel: int, target_normalizer=None,
                     n_tiles: int = 1, halo: int = 0,
                     factor: int | None = None,
                     uneven: bool = False) -> dict[str, float]:
    """The Fig. 8 experiment: downscale a global field and score it
    against an independent (IMERG-like) observation, no fine-tuning.

    ``target_normalizer`` maps the model's normalized outputs back to
    physical units (pass the training dataset's).  Returns
    R²/RMSE/SSIM/PSNR of the precipitation channel in log space.
    """
    model.eval()
    runner = build_inference_runner(model, n_tiles=n_tiles, halo=halo,
                                    factor=factor,
                                    coarse_shape=coarse_input.shape[-2:],
                                    uneven=uneven)
    with no_grad():
        normalized = normalizer.normalize(coarse_input)
        pred = runner(Tensor(normalized[None])).data[0]
    if target_normalizer is not None:
        pred = target_normalizer.denormalize(pred)
    p = log1p_precip(np.maximum(pred[precip_channel], 0.0))
    o = log1p_precip(observation)
    out = evaluate_all(p, o)
    return {k: out[k] for k in ("r2", "rmse", "ssim", "psnr")}
