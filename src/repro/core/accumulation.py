"""Accumulation and CRT reconstruction (lines 7–12 of Algorithm 1).

The INT32 products ``C'_i = A'_i B'_i`` are first reduced to UINT8 residue
matrices ``U_i = mod(C'_i, p_i)``; the CRT reconstruction then becomes

.. math::

    C' = Σ_i w_i U_i, \\qquad C'' = C' - P\\,\\mathrm{round}(C'/P),

evaluated entirely in FP64 using the split weights ``w_i ≈ s_{i1} + s_{i2}``
of Section 4.1.  Because every ``s_{i1} U_i`` is an integer multiple of a
common power of two and their sum stays below 2^53 times that unit, the
first accumulation ``C'^{(1)} = Σ_i s_{i1} U_i`` is *error-free*; the second
accumulation ``C'^{(2)} = Σ_i s_{i2} U_i`` carries the low-order bits.  The
final combination uses FMA so the huge cancellation ``C'^{(1)} − P_1 Q`` is
performed without forming the product ``P_1 Q`` inexactly.

``U_i`` is computed in the float domain as ``C'_i − p_i ⌊C'_i / p_i⌋``,
exact for every ``|C'| < 2^52`` (see :func:`repro.crt.residues.
uint8_residues_stack`).  Callers run accumulation and reconstruction per row
block (:func:`accumulation_row_blocks`), so each block's float64 U-stack —
about 1 MiB — stays cache-resident from the mod through the reconstruction.
Every step is elementwise in the rows, so blocking never changes a bit.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Tuple

import numpy as np

from ..crt.constants import CRTConstantTable
from ..crt.residues import uint8_residues, uint8_residues_stack
from ..utils.fma import fma

__all__ = [
    "accumulate_residue_products",
    "accumulation_row_blocks",
    "reconstruct_crt",
    "unscale",
]


@functools.lru_cache(maxsize=None)
def _split_tail_terms(moduli: Tuple[int, ...], precision_bits: int) -> Tuple[bool, Tuple[int, ...]]:
    """Cached ``(need_c2, nonzero s2 indices)`` for one constant table.

    These depend only on the moduli prefix and the table bit width (the
    32-bit tables always report ``(False, ())`` — their weights are kept
    unsplit), yet were recomputed — an ``any`` plus a ``flatnonzero`` sweep
    over the split tails — on every GEMM/GEMV call.  Keyed like the
    constant-table cache itself, so auto-N runs hopping between moduli
    counts each hit their own entry.
    """
    from ..crt.constants import build_constant_table

    table = build_constant_table(len(moduli), precision_bits, moduli=moduli)
    nonzero = tuple(int(i) for i in np.flatnonzero(table.s2))
    return bool(nonzero), nonzero


#: Target bytes of one row block's float64 U-stack (``N * rows * n * 8``):
#: small enough that the mod, the weighted sum and the reconstruction of a
#: block all run out of cache.
_U_BLOCK_BYTES = 1 << 20


def accumulation_row_blocks(num_moduli: int, m: int, n: int) -> Iterator[Tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of an ``(m, n)`` tile, each ~1 MiB of U-stack.

    The callers that pair :func:`accumulate_residue_products` with
    :func:`reconstruct_crt` loop over these blocks; both are elementwise in
    the rows, so the result is bit-identical to one whole-tile call.
    """
    rows = max(1, _U_BLOCK_BYTES // (8 * num_moduli * max(n, 1)))
    for r0 in range(0, m, rows):
        yield r0, min(r0 + rows, m)


def accumulate_residue_products(
    c_stack: np.ndarray,
    table: CRTConstantTable,
    use_mulhi: bool = False,
    vectorized: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Compute ``C'^{(1)} = Σ s_i1 U_i`` and ``C'^{(2)} = Σ s_i2 U_i``.

    Parameters
    ----------
    c_stack:
        INT32 (or integer-valued) array of shape ``(N, m, n)`` holding the
        residue products ``C'_i``.
    table:
        Constant table providing moduli, split weights and reciprocals.
    use_mulhi:
        Use the ``__mulhi`` fast kernel for ``mod`` (Section 4.3) instead of
        the float-domain floor-division.  Both yield identical ``U_i``.
    vectorized:
        When True (default), materialise the float64 U-stack of ``c_stack``
        first (one float-domain floor-division per modulus, no UINT8/float64
        round-trips) and evaluate ``C1`` with a single
        :func:`numpy.tensordot` of the split weights against the U-stack.
        For the 64-bit tables ``C1`` is order-independent because the
        split-weight accumulation is *error-free* (every ``s_i1 U_i`` has at
        most ``β_i + 8 <= 53`` significant bits and every partial sum is an
        exact multiple of a common unit below 2^53 — Section 4.3), so any
        summation order gives the identical float64 result.  The 32-bit
        tables keep the full (unsplit) weights, whose accumulation carries
        rounding; there — and for the inexact ``C2`` terms — the fixed
        ascending-modulus order of the per-modulus loop is preserved so the
        result stays bit-identical with ``vectorized=False`` (kept as the
        pre-fusion comparator).

    Returns
    -------
    (C1, C2):
        ``C1`` is an exact float64 ``(m, n)`` matrix.  ``C2`` holds the
        low-order correction, or is ``None`` when every split-weight tail
        ``s_i2`` is zero (always the case for SGEMM emulation) — the dead
        all-zero accumulation is skipped instead of allocated.
    """
    c_stack = np.asarray(c_stack)
    if c_stack.ndim != 3 or c_stack.shape[0] != table.num_moduli:
        raise ValueError(
            f"c_stack must have shape (N, m, n) with N={table.num_moduli}, "
            f"got {c_stack.shape}"
        )
    need_c2, s2_nonzero = _split_tail_terms(table.moduli, table.precision_bits)
    if vectorized:
        # Materialise the U-stack up front.  The residues lie in
        # [0, p) ⊂ [0, 255], so computing them straight into float64 makes
        # the UINT8 narrowing of the per-modulus path a bitwise no-op and
        # saves the widening pass.
        u = uint8_residues_stack(
            c_stack,
            table.moduli,
            table.pinv_prime if use_mulhi else None,
            out=np.empty(c_stack.shape, dtype=np.float64),
        )
        if table.precision_bits == 64:
            c1 = np.tensordot(table.s1, u.reshape(table.num_moduli, -1), axes=1)
            c1 = c1.reshape(c_stack.shape[1:])
        else:
            # Unsplit 32-bit weights: the sum is inexact, keep the loop order.
            c1 = np.zeros(c_stack.shape[1:], dtype=np.float64)
            for i in range(table.num_moduli):
                c1 += table.s1[i] * u[i]
        if not need_c2:
            return c1, None
        # Ordered accumulation of the inexact low-order terms; adding a term
        # with s2[i] == 0 is a bitwise no-op (all terms are >= 0), so only
        # the nonzero ones are visited.
        c2 = np.zeros(c_stack.shape[1:], dtype=np.float64)
        for i in s2_nonzero:
            c2 += table.s2[i] * u[i]
        return c1, c2

    m, n = c_stack.shape[1:]
    c1 = np.zeros((m, n), dtype=np.float64)
    c2 = np.zeros((m, n), dtype=np.float64) if need_c2 else None
    for i, p in enumerate(table.moduli):
        pinv_prime = int(table.pinv_prime[i]) if use_mulhi else None
        u = uint8_residues(c_stack[i], p, pinv_prime).astype(np.float64)
        c1 += table.s1[i] * u
        if need_c2:
            c2 += table.s2[i] * u
    return c1, c2


def reconstruct_crt(
    c1: np.ndarray, c2: Optional[np.ndarray], table: CRTConstantTable
) -> np.ndarray:
    """Reconstruct ``C'' = rmod(C', P)`` from the two accumulations.

    Implements lines 10–11 of Algorithm 1::

        Q   = round(Pinv · C'^{(1)})
        C'' = ((C'^{(1)} − P1·Q) + C'^{(2)}) − P2·Q      (FMA form)

    ``Q`` is the integer multiple of ``P`` contained in ``C'``; subtracting
    it with the double-double ``P ≈ P1 + P2`` and FMA keeps the massive
    cancellation exact to FP64 accuracy.  ``c2 = None`` (the sentinel for an
    all-zero second accumulation) skips the addition outright.  The scalar
    coefficients ``-P1`` / ``-P2`` broadcast through :func:`~repro.utils.
    fma.fma` directly — no full-size constant matrices are materialised.
    """
    q = np.rint(table.Pinv * c1)
    t = fma(-table.P1, q, c1)
    if c2 is not None:
        t = t + c2
    return fma(-table.P2, q, t)


def unscale(
    c_pp: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    out_dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Line 12 of Algorithm 1: ``C = diag(μ⁻¹)·C''·diag(ν⁻¹)``.

    The scales are powers of two, so the divisions are exact; they are
    implemented as multiplications by the exact reciprocals.
    """
    inv_mu = 1.0 / np.asarray(mu, dtype=np.float64)
    inv_nu = 1.0 / np.asarray(nu, dtype=np.float64)
    c = c_pp * inv_mu[:, None] * inv_nu[None, :]
    return np.asarray(c, dtype=out_dtype)
