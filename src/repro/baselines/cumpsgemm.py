"""cuMpSGEMM-style SGEMM emulation on FP16 tensor cores.

The paper compares against cuMpSGEMM in its ``FP16TCEC_SCALING`` mode
(Section 2): each FP32 operand is decomposed into two FP16 matrices — the
leading half and a scaled correction term that restores the significand bits
FP16 cannot hold — and the product is assembled from three FP16 tensor-core
GEMMs with FP32 accumulation::

    A ≈ A1 + 2^-11 A2,     B ≈ B1 + 2^-11 B2
    AB ≈ A1 B1 + 2^-11 (A1 B2 + A2 B1)

The 2^11 scaling of the correction terms keeps them inside FP16's narrow
exponent range (this is the "SCALING" part of the mode name); the explicit
error-correction term is the "EC" part.  Per-row/column power-of-two
pre-scaling keeps the leading terms away from FP16 overflow/underflow.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..engines.lowprec_fp import Fp16MatrixEngine
from ..formats.lowprec import round_to_fp16
from ..utils.fp import ldexp_lines, ldexp_unscale, max_exponents
from ..utils.validation import check_gemm_operands

__all__ = ["split_fp16_with_correction", "cumpsgemm_fp16tcec"]

#: Number of significand bits recovered by the correction term.
_CORRECTION_SHIFT = 11


def split_fp16_with_correction(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split an FP32 matrix into leading FP16 part and scaled FP16 correction.

    Returns ``(X1, X2)`` with ``X ≈ X1 + 2^-11 X2`` (both stored as FP16).
    """
    x = np.asarray(x, dtype=np.float32)
    x1 = round_to_fp16(x)
    residual = x.astype(np.float64) - x1.astype(np.float64)
    x2 = round_to_fp16((residual * 2.0**_CORRECTION_SHIFT).astype(np.float32))
    return x1, x2


def cumpsgemm_fp16tcec(
    a: np.ndarray, b: np.ndarray, engine: Fp16MatrixEngine | None = None
) -> np.ndarray:
    """Emulated SGEMM via FP16 tensor cores with error correction."""
    a, b = check_gemm_operands(a, b, dtype=np.float32)
    engine = engine or Fp16MatrixEngine()

    # FP16 overflows beyond 65504 and loses precision below 2^-14; scaling
    # each row of A (column of B) so its largest magnitude lies in [1, 2)
    # keeps both the leading and the correction terms well inside the safe
    # range, mirroring cuMpSGEMM's dynamic scaling.
    row_exp = -max_exponents(np.max(np.abs(a), axis=1))
    col_exp = -max_exponents(np.max(np.abs(b), axis=0))
    a1, a2 = split_fp16_with_correction(ldexp_lines(a, row_exp, 1))
    b1, b2 = split_fp16_with_correction(ldexp_lines(b, col_exp, 0))

    main = engine.matmul(a1, b1)
    corr = engine.matmul(a1, b2) + engine.matmul(a2, b1)
    c_scaled = main + np.ldexp(corr, -_CORRECTION_SHIFT).astype(np.float32)

    return ldexp_unscale(c_scaled.astype(np.float64), row_exp, col_exp).astype(np.float32)
