"""Blocking over the inner dimension for very large ``k`` (Section 4.3).

A single INT8 GEMM is exact in INT32 only while ``k ≤ 2^17``.  For larger
inner dimensions, the product of each residue pair is evaluated block by
block; the partial INT32 results are accumulated in INT64 (exact, since each
partial is below 2^31 and the number of blocks is tiny) before the modular
reduction.  The reduction to ``U_i`` is unaffected because congruence is
preserved by exact addition.

The runtime blocks stacked residues (:func:`repro.runtime.scheduler.execute_plan`);
:func:`blocked_residue_products` is the literal per-modulus form, the line 6
of the test suite's Algorithm 1 oracle.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..engines.base import MatrixEngine

__all__ = ["k_block_ranges", "blocked_residue_products"]


def k_block_ranges(k: int, max_block_k: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` pairs covering ``range(k)`` in blocks."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if max_block_k <= 0:
        raise ValueError(f"max_block_k must be positive, got {max_block_k}")
    for start in range(0, k, max_block_k):
        yield start, min(start + max_block_k, k)


def blocked_residue_products(
    engine: MatrixEngine,
    a_slices: np.ndarray,
    b_slices: np.ndarray,
    max_block_k: int,
) -> np.ndarray:
    """Compute ``C'_i = A'_i · B'_i`` for every modulus, blocking over ``k``.

    Parameters
    ----------
    engine:
        INT8 matrix engine.
    a_slices / b_slices:
        INT8 stacks of shape ``(N, m, k)`` and ``(N, k, n)``.
    max_block_k:
        Maximum inner dimension per engine call (``2^17`` per Section 4.3).

    Returns
    -------
    Integer array of shape ``(N, m, n)``.  When no blocking is needed the
    dtype is INT32 (the raw engine output); with blocking the partial sums
    are held exactly in INT64.
    """
    n_mod, m, k = a_slices.shape
    n_cols = b_slices.shape[2]
    if b_slices.shape[0] != n_mod or b_slices.shape[1] != k:
        raise ValueError(
            f"mismatched residue stacks: A slices {a_slices.shape}, "
            f"B slices {b_slices.shape}"
        )
    if k <= max_block_k:
        out = np.empty((n_mod, m, n_cols), dtype=np.int32)
        for i in range(n_mod):
            out[i] = engine.matmul(a_slices[i], b_slices[i])
        return out

    out64 = np.zeros((n_mod, m, n_cols), dtype=np.int64)
    for start, stop in k_block_ranges(k, max_block_k):
        for i in range(n_mod):
            partial = engine.matmul(a_slices[i, :, start:stop], b_slices[i, start:stop, :])
            out64[i] += partial.astype(np.int64)
    return out64
