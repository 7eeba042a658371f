"""ORBIT-2 reproduction: scalable vision foundation models for weather
and climate downscaling.

Subpackages
-----------
``repro.tensor``
    NumPy reverse-mode autograd engine (the PyTorch substitute).
``repro.nn``
    Layers, attention (incl. cache-blocked flash attention), optimizers,
    bf16 mixed precision.
``repro.core``
    The paper's contribution: Reslim, TILES, Canny-guided quad-tree
    compression, the Bayesian downscaling loss, and the upsample-first
    ViT baseline.
``repro.data``
    Synthetic climate data standing in for ERA5 / PRISM / DAYMET / IMERG.
``repro.distributed``
    Simulated multi-GPU cluster: collectives, DDP/FSDP/tensor/Hybrid-OP/
    TILES parallelisms, the Frontier topology, and the analytic
    performance model behind the exascale tables.
``repro.evals``
    R², RMSE, quantile RMSE, SSIM, PSNR, radial power spectra.
``repro.train``
    Trainer, inference runners, checkpointing.
``repro.testing``
    The verification layer: gradient checking, parallel-equivalence
    oracles, op fuzzing, collective conformance, golden files.
``repro.obs``
    Observability: hierarchical span tracing on a simulated clock,
    engine/collective instrumentation, metrics, Chrome-trace export.
"""

__version__ = "0.1.0"

from . import core, data, distributed, evals, nn, obs, tensor, testing, train  # noqa: F401

__all__ = [
    "core", "data", "distributed", "evals", "nn", "obs", "tensor", "testing",
    "train", "__version__",
]
