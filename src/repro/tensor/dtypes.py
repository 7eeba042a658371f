"""Dtype policy and bfloat16 emulation.

The paper trains in BFLOAT16 mixed precision with dynamic gradient scaling
(Sec. III-D, "Mixed Precision and Layer Wrapping").  NumPy has no native
bfloat16, so we emulate it exactly: a bfloat16 value is a float32 whose
mantissa has been truncated to 7 bits (round-to-nearest-even on the
discarded bits).  Casting an array "to bf16" therefore means rounding each
float32 element to the nearest representable bfloat16 and keeping the
result in a float32 container.  This reproduces bfloat16's dynamic range
(same 8-bit exponent as float32) and its precision loss, which is what the
GradScaler logic must survive.
"""

from __future__ import annotations

import numpy as np

#: canonical compute dtype for full-precision math
FLOAT32 = np.float32
#: accumulation dtype used for reductions where float32 would lose bits
FLOAT64 = np.float64

# Logical dtype tags understood by the engine.
DTYPE_F32 = "float32"
DTYPE_BF16 = "bfloat16"

def bf16_round(x: np.ndarray) -> np.ndarray:
    """Round a float32/float64 array to the nearest bfloat16 value.

    Returns a float32 array whose every element is exactly representable
    in bfloat16.  Uses round-to-nearest-even on the 16 discarded mantissa
    bits, matching IEEE-754 conversion hardware.  NaN and infinity pass
    through unchanged (NaN payload bits may be canonicalised).
    """
    x32 = np.asarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # round-to-nearest-even: add 0x7FFF plus the LSB of the kept part
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32)
    # preserve NaN/inf rather than letting the rounding carry corrupt them
    special = ~np.isfinite(x32)
    if np.any(special):
        out = np.where(special, x32, out)
    return out.copy()


def is_bf16_representable(x: np.ndarray) -> bool:
    """True if every finite element of ``x`` is already a bfloat16 value."""
    x32 = np.asarray(x, dtype=np.float32)
    finite = np.isfinite(x32)
    return bool(np.array_equal(x32[finite], bf16_round(x32)[finite]))
