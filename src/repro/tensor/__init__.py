"""NumPy-backed reverse-mode autograd engine (the PyTorch substitute)."""

from .dtypes import (
    DTYPE_BF16,
    DTYPE_F32,
    bf16_round,
    is_bf16_representable,
)
from .functional import (
    add_bias,
    bilinear_upsample,
    conv2d,
    gelu,
    layernorm,
    linear,
    softmax,
)
from .compile import CompiledForward, CompiledStep, CompileError
from .flops import FlopCounter
from .tensor import (
    Tensor,
    enable_grad,
    graph_counters,
    is_grad_enabled,
    no_grad,
    reset_graph_counters,
)

KERNEL_EPOCH = 7
"""Generation of the numeric kernels' *bits* (the rule is DESIGN.md §12).

Every oracle compares two paths through the same kernels, so a kernel may
change its rounding; a PR that does bumps this and re-records the goldens
that pin absolute output bytes.  Epoch 1: ``flash_attention`` on
keys-major tiles with the softmax statistics folded into its GEMMs;
``conv2d`` as one ``np.matmul`` per sample, not a flattened-batch einsum.
Epoch 2: the variable aggregator as one single-query attention node with
its K/V projections folded into the query.  Epoch 3: ``gelu`` through a
branch-free, pure-NumPy float32 ``erfc``.  Epoch 4: that node takes the
raw field (``aggregate_variables``) — tokenizer and variable embeddings
applied in patch space, no ``(B, V, L, D)`` tensor.  Epoch 5:
``flash_attention`` with one softmax shift per query block (its first key
block's max) folded into the score GEMM, ``exp2`` on log2-unit scores, and
a per-item rerun at the true max when that shift overflows, and ``exp2``'s
argument floored at −64 on tiles that hold a sharp item;
``bilinear_upsample`` as separable resize-matrix GEMMs, forward and
adjoint.  Epoch 6: ``flash_attention`` shifts only sharp items, each by
its true max, and runs every other item unshifted, which its score bound
proves safe; its row sums over ``d`` are GEMVs.  Epoch 7: ``layernorm``'s
row mean and variance as one GEMV per leading item, in preallocated
buffers.
"""

__all__ = [
    "KERNEL_EPOCH",
    "Tensor",
    "FlopCounter",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "graph_counters",
    "reset_graph_counters",
    "CompiledStep",
    "CompiledForward",
    "CompileError",
    "softmax",
    "gelu",
    "layernorm",
    "linear",
    "add_bias",
    "bilinear_upsample",
    "conv2d",
    "bf16_round",
    "is_bf16_representable",
    "DTYPE_F32",
    "DTYPE_BF16",
]
