"""Training and inference harness."""

from .engine import DistributedEngine, mse_loss
from .inference import (build_inference_runner, evaluate_downscaling,
                        global_inference, predict_dataset)
from .trainer import (CHECKPOINT_FORMAT_VERSION, TrainConfig, Trainer,
                      load_checkpoint, save_checkpoint)

__all__ = [
    "Trainer",
    "DistributedEngine",
    "mse_loss",
    "TrainConfig",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "build_inference_runner",
    "predict_dataset",
    "evaluate_downscaling",
    "global_inference",
]
