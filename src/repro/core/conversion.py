"""Conversion of scaled inputs to integer matrices and INT8 residues.

Covers lines 2–5 of Algorithm 1:

* ``A' = trunc(diag(μ)·A)`` and ``B' = trunc(B·diag(ν))`` — truncation
  toward zero after the power-of-two scaling (:func:`truncate_scaled`), and
* ``A'_i = rmod(A', p_i)``, ``B'_i = rmod(B', p_i)`` for every modulus,
  cast to INT8 (:func:`residue_slices`).
"""

from __future__ import annotations

import numpy as np

from ..config import ResidueKernel
from ..crt.constants import CRTConstantTable
from ..crt.residues import residues_to_int8

__all__ = ["truncate_scaled", "residue_slices"]


def truncate_scaled(x: np.ndarray, scale: np.ndarray, side: str) -> np.ndarray:
    """``trunc(diag(scale)·X)`` (side="left") or ``trunc(X·diag(scale))`` (side="right").

    The scales are powers of two, so the multiplication is exact; the
    truncation rounds toward zero, exactly as ``trunc`` in the paper.  The
    result is a float64 matrix whose entries are integers (possibly larger
    than 2^53 in magnitude for large ``N``; they remain exact float64
    values because scaling by a power of two only changes the exponent).
    """
    x = np.asarray(x, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    if side == "left":
        scaled = x * scale[:, None]
    elif side == "right":
        scaled = x * scale[None, :]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return np.trunc(scaled)


def residue_slices(
    x_prime: np.ndarray,
    table: CRTConstantTable,
    kernel: ResidueKernel = ResidueKernel.EXACT,
) -> np.ndarray:
    """INT8 residue stack ``[rmod(X', p_1), ..., rmod(X', p_N)]``.

    Returns an ``(N, *X'.shape)`` INT8 array (lines 4–5 of Algorithm 1).
    The ``kernel`` selects the exact float-domain kernel or the paper's fast
    FMA kernel (Section 4.2); see :func:`repro.crt.residues.residues_to_int8`.
    """
    kernel = ResidueKernel.parse(kernel)
    if kernel is ResidueKernel.EXACT:
        return residues_to_int8(x_prime, table.moduli, kernel="exact")
    return residues_to_int8(
        x_prime,
        table.moduli,
        kernel="fast_fma",
        pinv_b=table.pinv64,
        pinv32=table.pinv32,
        precision_bits=table.precision_bits,
    )
