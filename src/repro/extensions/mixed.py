"""Heterogeneous-format GEMM (mixed-precision inputs).

The paper's conclusion mentions extending the emulation to "heterogeneous
(e.g., FP16 and FP32) types": multiplying two matrices stored in different
floating-point formats.  Because Ozaki scheme II never splits significands —
it only scales, truncates and takes residues — supporting mixed inputs is a
matter of (a) materialising each operand's values exactly in the FP64
working precision (every FP16/BF16/TF32/FP32 value is exactly representable
in FP64) and (b) choosing the number of moduli from the *output* format:
Section 5.1's measured defaults, 15 moduli for FP64 and 8 for FP32.

:func:`mixed_gemm` implements exactly that, with the output format defaulting
to the wider of the two input formats.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..config import (
    DEFAULT_MODULI_DGEMM,
    DEFAULT_MODULI_SGEMM,
    ComputeMode,
    Ozaki2Config,
)
from ..core.gemm import ozaki2_gemm
from ..errors import ConfigurationError
from ..formats.lowprec import round_to_format
from ..types import BF16, FP16, FP32, FP64, TF32, Format, get_format

__all__ = ["mixed_gemm"]

#: Formats accepted as mixed-precision inputs.
_INPUT_FORMATS = (FP64, FP32, TF32, BF16, FP16)


def _wider(lhs: Format, rhs: Format) -> Format:
    """The wider (more significand bits) of two formats."""
    return lhs if lhs.significand_bits >= rhs.significand_bits else rhs


def mixed_gemm(
    a: np.ndarray,
    b: np.ndarray,
    a_format: "str | Format",
    b_format: "str | Format",
    out_format: "str | Format | None" = None,
    num_moduli: Optional[Union[int, str]] = None,
    mode: "ComputeMode | str" = ComputeMode.FAST,
) -> np.ndarray:
    """Emulated GEMM for operands stored in (possibly different) formats.

    Parameters
    ----------
    a, b:
        Input matrices.  Each is first rounded onto its declared format's
        value grid (a no-op when it is already stored in that format), so the
        emulation sees exactly the values the low-precision storage holds.
    a_format, b_format:
        Declared storage formats (``"fp64"``, ``"fp32"``, ``"tf32"``,
        ``"bf16"``, ``"fp16"``).
    out_format:
        Result format; defaults to the wider of the two input formats, with
        FP16/BF16/TF32 promoted to FP32 (the natural accumulation target).
    num_moduli:
        Number of CRT moduli, or ``"auto"``; by default the output format's
        Section 5.1 count (15 for FP64, 8 for FP32), which keeps native
        DGEMM/SGEMM accuracy on the paper's ``φ = 0.5`` workloads.
    mode:
        Fast or accurate scaling mode.

    Returns
    -------
    The product in ``out_format``'s storage dtype (float64 for FP64, float32
    otherwise).
    """
    fmt_a = get_format(a_format)
    fmt_b = get_format(b_format)
    for fmt, name in ((fmt_a, "a_format"), (fmt_b, "b_format")):
        if fmt not in _INPUT_FORMATS:
            raise ConfigurationError(
                f"{name} must be one of {[f.name for f in _INPUT_FORMATS]}, got {fmt.name}"
            )

    if out_format is None:
        widest = _wider(fmt_a, fmt_b)
        out_fmt = FP64 if widest == FP64 else FP32
    else:
        out_fmt = get_format(out_format)
        if out_fmt not in (FP64, FP32):
            raise ConfigurationError("out_format must be fp64 or fp32")

    # Materialise the declared storage values exactly in float64.
    a_exact = np.asarray(round_to_format(a, fmt_a), dtype=np.float64)
    b_exact = np.asarray(round_to_format(b, fmt_b), dtype=np.float64)

    if num_moduli is None:
        num_moduli = DEFAULT_MODULI_DGEMM if out_fmt == FP64 else DEFAULT_MODULI_SGEMM
    config = Ozaki2Config(precision=out_fmt, num_moduli=num_moduli, mode=mode)
    return ozaki2_gemm(a_exact, b_exact, config=config)
