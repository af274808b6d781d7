"""High-precision reference GEMM.

The measured accuracy of an FP64-level emulation is meaningless when the
reference itself is a plain FP64 GEMM (its own rounding error is of the same
order).  The paper evaluates against a high-precision reference; this module
fills that role with two independent implementations:

:func:`reference_gemm` (``algorithm="split"``, default)
    An error-free-transformation reference: each operand is decomposed into
    fixed-point chunks small enough that every chunk-pair product is *exact*
    in a float64 BLAS GEMM; the exact partial products are then combined in
    double-double.  Retains ~120+ significand bits relative to each row/
    column scale and runs at BLAS speed.

:func:`reference_gemm` (``algorithm="doubledouble"``)
    A direct compensated double-double GEMM (two_prod + compensated
    accumulation over the inner dimension).  Slower (pure NumPy loop over
    ``k``) but completely independent of the splitting idea; the test suite
    cross-validates the two implementations against each other and against
    an exact Python-integer product on integer matrices.

:func:`exact_int_gemm`
    Fully exact product of integer matrices using Python integers (for CRT
    unit tests on small problems).
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..utils.doubledouble import dd_add
from ..utils.fma import two_prod, two_sum
from ..utils.fp import ldexp_lines, ldexp_unscale, max_exponents
from ..utils.validation import check_gemm_operands

__all__ = ["reference_gemm", "exact_int_gemm"]


# ---------------------------------------------------------------------------
# split (error-free transformation) reference
# ---------------------------------------------------------------------------

def _chunk_width(k: int) -> int:
    """Bits per fixed-point chunk so chunk-pair GEMMs are exact in float64.

    Two chunks of ``w`` bits multiplied and summed over ``k`` terms stay
    below ``2^(2w + log2 k)``, which must not exceed the 53-bit exact-integer
    range of float64.
    """
    head = 52 - int(math.ceil(math.log2(max(k, 2))))
    return max(8, head // 2)


def _fixed_point_chunks(x_scaled: np.ndarray, num_chunks: int, width: int) -> List[np.ndarray]:
    """Error-free decomposition of a matrix with entries in (-1, 1).

    Returns float64 matrices ``D_1..D_S`` of integers below ``2^width`` such
    that ``x = Σ_s D_s 2^{-s·width} + r`` with ``|r| < 2^{-S·width}``.
    """
    residual = np.asarray(x_scaled, dtype=np.float64).copy()
    chunks: List[np.ndarray] = []
    for s in range(1, num_chunks + 1):
        shifted = np.ldexp(residual, width * s)
        piece = np.trunc(shifted)
        chunks.append(piece)
        residual = residual - np.ldexp(piece, -width * s)
    return chunks


def _split_reference(a: np.ndarray, b: np.ndarray, num_chunks: int) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    width = _chunk_width(k)

    # Power-of-two scales mapping each row/column max magnitude into [1/2, 1).
    row_exp = -1 - max_exponents(np.max(np.abs(a), axis=1))
    col_exp = -1 - max_exponents(np.max(np.abs(b), axis=0))
    a_chunks = _fixed_point_chunks(ldexp_lines(a, row_exp, 1), num_chunks, width)
    b_chunks = _fixed_point_chunks(ldexp_lines(b, col_exp, 0), num_chunks, width)

    hi = np.zeros((m, n), dtype=np.float64)
    lo = np.zeros((m, n), dtype=np.float64)
    # Accumulate small-weight terms first so the double-double sum keeps them.
    pairs = [
        (s, t)
        for s in range(1, num_chunks + 1)
        for t in range(1, num_chunks + 1)
        if s + t <= num_chunks + 1
    ]
    for s, t in sorted(pairs, key=lambda st: -(st[0] + st[1])):
        exact_product = a_chunks[s - 1] @ b_chunks[t - 1]  # exact by construction
        term = np.ldexp(exact_product, -width * (s + t))
        hi, lo = dd_add((hi, lo), (term, np.zeros_like(term)))
    return ldexp_unscale(hi + lo, row_exp, col_exp)


# ---------------------------------------------------------------------------
# direct double-double reference
# ---------------------------------------------------------------------------

def _dd_dot_block(a_block: np.ndarray, b_block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compensated double-double accumulation of ``a_block @ b_block``."""
    m = a_block.shape[0]
    n = b_block.shape[1]
    hi = np.zeros((m, n), dtype=np.float64)
    lo = np.zeros((m, n), dtype=np.float64)
    for idx in range(a_block.shape[1]):
        col = a_block[:, idx][:, None]
        row = b_block[idx, :][None, :]
        p, e = two_prod(col, row)
        s, carry = two_sum(hi, p)
        lo = lo + (carry + e)
        hi = s
        if (idx & 0x3F) == 0x3F:
            hi, lo = two_sum(hi, lo)
    return two_sum(hi, lo)


def _doubledouble_reference(a: np.ndarray, b: np.ndarray, block_k: int = 256) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    hi = np.zeros((m, n), dtype=np.float64)
    lo = np.zeros((m, n), dtype=np.float64)
    for start in range(0, k, block_k):
        stop = min(start + block_k, k)
        bh, bl = _dd_dot_block(a[:, start:stop], b[start:stop, :])
        hi, lo = dd_add((hi, lo), (bh, bl))
    return hi + lo


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def reference_gemm(
    a: np.ndarray,
    b: np.ndarray,
    algorithm: str = "split",
    num_chunks: int = 6,
) -> np.ndarray:
    """High-precision reference product, rounded to float64 at the end.

    Parameters
    ----------
    a, b:
        Operands (any float dtype; promoted to float64).
    algorithm:
        ``"split"`` (default, BLAS-speed error-free transformation) or
        ``"doubledouble"`` (direct compensated accumulation; slow, used for
        cross-validation).  ``"split"`` scales every row and column by a
        power of two first, so it covers the whole exponent range,
        subnormals included.  ``"doubledouble"`` has a limited range: its
        Veltkamp split overflows for ``|x| ≳ 1e300``, and products of
        subnormals are not error-free; compare extreme-range data against
        ``"split"`` only.
    num_chunks:
        Number of fixed-point chunks per operand for the split algorithm.
        Six chunks retain well over 100 bits relative to each row/column
        scale.
    """
    a, b = check_gemm_operands(a, b, dtype=np.float64)
    if algorithm == "split":
        if num_chunks < 2:
            raise ConfigurationError("num_chunks must be at least 2")
        return _split_reference(a, b, num_chunks)
    if algorithm == "doubledouble":
        return _doubledouble_reference(a, b)
    raise ConfigurationError(
        f"unknown reference algorithm {algorithm!r}; use 'split' or 'doubledouble'"
    )


def exact_int_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of integer-valued matrices using Python integers.

    Returns an object-dtype array of Python ints.  Intended for small CRT
    correctness tests (cost is O(m·n·k) Python operations).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a_obj = np.array([[int(v) for v in row] for row in a], dtype=object)
    b_obj = np.array([[int(v) for v in row] for row in b], dtype=object)
    return a_obj @ b_obj
