"""Neural-network layers, optimizers, and mixed precision on the autograd engine."""

from .amp import Bf16Cast, GradScaler
from .attention import CrossAttention, MultiHeadSelfAttention, aggregate_variables
from .checkpoint import CheckpointedSequential, checkpoint, checkpointed_activation_bytes
from .flash_attention import attention_peak_elems, flash_attention, naive_attention
from .flat import FlatParamBuffer, flatten_grads
from .layers import MLP, Conv2d, LayerNorm, Linear, Sequential
from .module import Module, ModuleList, Parameter
from .optim import AdamW, SGD, clip_grad_norm, cosine_schedule, warmup_cosine
from .transformer import PatchEmbed, TransformerBlock, TransformerEncoder, unpatchify

__all__ = [
    "Module",
    "checkpoint",
    "CheckpointedSequential",
    "checkpointed_activation_bytes",
    "ModuleList",
    "Parameter",
    "Linear",
    "Conv2d",
    "LayerNorm",
    "MLP",
    "Sequential",
    "MultiHeadSelfAttention",
    "CrossAttention",
    "aggregate_variables",
    "flash_attention",
    "naive_attention",
    "attention_peak_elems",
    "PatchEmbed",
    "TransformerBlock",
    "TransformerEncoder",
    "unpatchify",
    "FlatParamBuffer",
    "flatten_grads",
    "SGD",
    "AdamW",
    "cosine_schedule",
    "warmup_cosine",
    "clip_grad_norm",
    "GradScaler",
    "Bf16Cast",
]
