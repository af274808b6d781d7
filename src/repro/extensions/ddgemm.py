"""Double-double GEMM on INT8 matrix engines (homogeneous extension).

The conclusion of the paper points out that the emulation idea extends to
"homogeneous (e.g., double-double)" output formats.  This module provides
that extension: :func:`dd_gemm` computes ``A @ B`` for FP64 inputs and
returns the result as an unevaluated double-double pair ``(hi, lo)`` with
roughly 106 significand bits — twice the precision of native DGEMM — while
still performing *all* inner products on the INT8 engine.

The construction follows the error-free-splitting route (Ozaki scheme I with
enough slices to cover 106 bits of each operand): each row/column is scaled
by a power of two, cut into ``S`` exact 7-bit INT8 slices, all slice pairs
with ``s + t <= S + 1`` are multiplied on the INT8 engine (exact INT32
results), and the weighted partial products are accumulated in double-double
arithmetic.  With ``S = 16`` the splitting residual is below ``2^-112`` of
each row/column scale, so the result is a faithful double-double product.

This is substantially more expensive than plain DGEMM emulation
(``S(S+1)/2 = 136`` INT8 GEMMs for ``S = 16`` versus ~15), which is exactly
the trade-off the extension offers: quadruple-like precision at a cost that
still scales with the INT8 engine's throughput rather than the FP64 unit's.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..baselines.ozaki1 import slice_width, split_into_slices
from ..config import MAX_K_WITHOUT_BLOCKING
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..errors import ConfigurationError
from ..utils.doubledouble import dd_add
from ..utils.fp import ldexp_lines, ldexp_unscale, max_exponents
from ..utils.validation import check_gemm_operands

__all__ = ["dd_gemm"]

#: Default number of slices: 16 x 7 bits = 112 bits per operand, enough to
#: cover a double-double result.
_DEFAULT_SLICES = 16


def dd_gemm(
    a: np.ndarray,
    b: np.ndarray,
    num_slices: int = _DEFAULT_SLICES,
    engine: MatrixEngine | None = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Double-double matrix product of FP64 matrices via INT8 engines.

    Returns ``(hi, lo)`` float64 arrays with ``hi + lo ≈ A @ B`` to roughly
    ``num_slices * 7`` bits relative to each row/column scale.

    Parameters
    ----------
    a, b:
        FP64 operands.
    num_slices:
        Number of 7-bit slices per operand (4..24).  16 covers a full
        double-double result; smaller values trade precision for fewer INT8
        GEMMs.
    engine:
        INT8 engine to run the slice products on.
    """
    if not (4 <= int(num_slices) <= 24):
        raise ConfigurationError(f"num_slices must be in [4, 24], got {num_slices}")
    num_slices = int(num_slices)
    engine = engine or Int8MatrixEngine()
    a, b = check_gemm_operands(a, b, dtype=np.float64)
    m, k = a.shape
    n = b.shape[1]
    width = slice_width(min(k, MAX_K_WITHOUT_BLOCKING))

    # Power-of-two scales mapping each row/column max |x| into [1/2, 1).
    row_exp = -1 - max_exponents(np.max(np.abs(a), axis=1))
    col_exp = -1 - max_exponents(np.max(np.abs(b), axis=0))
    a_slices = split_into_slices(ldexp_lines(a, row_exp, 1), num_slices, width)
    b_slices = split_into_slices(ldexp_lines(b, col_exp, 0), num_slices, width)

    hi = np.zeros((m, n), dtype=np.float64)
    lo = np.zeros((m, n), dtype=np.float64)
    block = MAX_K_WITHOUT_BLOCKING
    # Accumulate the smallest-weight terms first so nothing is lost when the
    # large leading terms join the double-double sum.
    pairs = [
        (s, t)
        for s in range(1, num_slices + 1)
        for t in range(1, num_slices + 1)
        if s + t <= num_slices + 1
    ]
    for s, t in sorted(pairs, key=lambda st: -(st[0] + st[1])):
        partial = np.zeros((m, n), dtype=np.float64)
        for start in range(0, k, block):
            stop = min(start + block, k)
            product = engine.matmul(
                a_slices[s - 1][:, start:stop], b_slices[t - 1][start:stop, :]
            )
            partial += product.astype(np.float64)
        term = np.ldexp(partial, -width * (s + t))
        hi, lo = dd_add((hi, lo), (term, np.zeros_like(term)))

    # Undoing a power-of-two scale is exact on both halves of the pair.
    return ldexp_unscale(hi, row_exp, col_exp), ldexp_unscale(lo, row_exp, col_exp)
