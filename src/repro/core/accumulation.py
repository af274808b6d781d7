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
huge cancellation ``C'^{(1)} − P_1 Q`` is exact, evaluated as two plain
subtractions of pre-split halves of ``P_1``; the small ``P_2 Q`` term is
subtracted with the roundings of a fused multiply-add, through error-free
transformations on a pre-split ``P_2`` (see :func:`reconstruct_crt`).  No
step divides or calls the software FMA of :mod:`repro.utils.fma`, which
stays the reference the tests compare against.

``U_i`` is computed as ``C'_i − p_i ⌊C'_i / p_i⌋`` in integer arithmetic,
exact for every int32 and int64 product (see :func:`repro.crt.residues.
uint8_residues_stack`); that is line 7's one production kernel, and the
paper's ``__mulhi`` kernel (:func:`repro.crt.residues.mod_fast_mulhi`) is a
reference function that returns the same ``U_i``.  Callers run accumulation and reconstruction per row
block (:func:`accumulation_row_blocks`), so each block's float64 U-stack
stays cache-resident from the mod through the reconstruction.  Every step is
elementwise in the rows, so blocking never changes a bit.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..crt.constants import CRTConstantTable
from ..crt.residues import uint8_residues_stack
from ..utils.fma import two_sum
from ..utils.fp import ldexp_unscale

__all__ = [
    "accumulate_residue_products",
    "accumulation_row_blocks",
    "reconstruct_crt",
    "unscale",
]


class _TableTerms(NamedTuple):
    """Per-table constants of the accumulation and reconstruction."""

    #: Indices of the nonzero split-weight tails ``s_i2`` (empty for the
    #: 32-bit tables, whose weights are kept unsplit).
    s2_nonzero: Tuple[int, ...]
    #: ``P1 = p1_hi + p1_lo`` and ``P2 = p2_hi + p2_lo``, each high part
    #: truncated to ``53 - ⌈log2(N·255 + 1)⌉`` significant bits.
    p1_hi: float
    p1_lo: float
    p2_hi: float
    p2_lo: float


def _split_high(value: float, bits: int) -> Tuple[float, float]:
    """``value = hi + lo`` exactly, ``hi`` truncated to ``bits`` significant bits."""
    if value == 0.0:
        return 0.0, 0.0
    mantissa, exponent = math.frexp(value)
    hi = math.ldexp(math.trunc(math.ldexp(mantissa, bits)), exponent - bits)
    return hi, value - hi


@functools.lru_cache(maxsize=None)
def _table_terms(moduli: Tuple[int, ...], precision_bits: int) -> _TableTerms:
    """Cached :class:`_TableTerms` for one constant table.

    They depend only on the moduli prefix and the table bit width, so they
    are computed once per table instead of on every GEMM/GEMV call.  Keyed
    like the constant-table cache itself, so auto-N runs hopping between
    moduli counts each hit their own entry.
    """
    from ..crt.constants import build_constant_table

    table = build_constant_table(len(moduli), precision_bits, moduli=moduli)
    # |Q| <= N * 255, so a (53 - q_bits)-bit high part times Q is exact.
    q_bits = math.ceil(math.log2(len(moduli) * 255 + 1))
    return _TableTerms(
        tuple(int(i) for i in np.flatnonzero(table.s2)),
        *_split_high(table.P1, 53 - q_bits),
        *_split_high(table.P2, 53 - q_bits),
    )


#: Elements of one row block's per-modulus slab (``rows * n``).  Each ufunc
#: call of the accumulation sweeps one slab, so its length must amortise the
#: call and, under row bands on threads, its GIL hand-off: with 1 MiB
#: U-stacks (8.7K-element slabs at N = 15) two bands ran accumulate +
#: reconstruct slower than one (1536^2 fp64 N=15: 172 -> 244 ms), with
#: 4 MiB (35K) faster (134 -> 86 ms).  The block's float64 U-stack, ``N``
#: slabs (3.75 MiB at N = 15, 2 MiB at N = 8), is written by the mod and read
#: back by both weighted sums, so it must stay in cache, and longer slabs
#: measured no faster at N = 15 (8 MiB U-stacks) and slower at N = 8
#: (64K-element slabs: serial 512^2 fp32 accumulate 6.0 -> 8.6 ms).
_U_SLAB_ELEMENTS = 1 << 15


def accumulation_row_blocks(m: int, n: int) -> Iterator[Tuple[int, int]]:
    """Row ranges ``[r0, r1)`` of an ``(m, n)`` tile, each
    :data:`_U_SLAB_ELEMENTS` elements per modulus.

    The callers that pair :func:`accumulate_residue_products` with
    :func:`reconstruct_crt` loop over these blocks; both are elementwise in
    the rows, so the result is bit-identical to one whole-tile call.
    """
    rows = max(1, _U_SLAB_ELEMENTS // max(n, 1))
    for r0 in range(0, m, rows):
        yield r0, min(r0 + rows, m)


def _ordered_sum(u: np.ndarray, weights: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """``Σ weights[i] * u[i]`` over ``indices``, added in that order.

    Bit-identical to accumulating from zeros (``0 + x = x`` for the
    non-negative terms); every product goes through one reused temporary.
    """
    first, *rest = indices
    total = np.multiply(u[first], weights[first])
    term = np.empty_like(total)
    for i in rest:
        total += np.multiply(u[i], weights[i], out=term)
    return total


def accumulate_residue_products(
    c_stack: np.ndarray,
    table: CRTConstantTable,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Compute ``C'^{(1)} = Σ s_i1 U_i`` and ``C'^{(2)} = Σ s_i2 U_i``.

    The float64 U-stack of ``c_stack`` is materialised first (one integer
    floor-division per modulus, computed straight into float64: the
    residues lie in ``[0, p) ⊂ [0, 255]``).  For the 64-bit tables ``C1`` is
    then a single :func:`numpy.tensordot` of the split weights against the
    U-stack: the split-weight accumulation is *error-free* (every
    ``s_i1 U_i`` has at most ``β_i + 8 <= 53`` significant bits and every
    partial sum is an exact multiple of a common unit below 2^53 — Section
    4.3), so any summation order gives the identical float64 result.  The
    32-bit tables keep the full (unsplit) weights, whose accumulation
    carries rounding; there — and for the inexact ``C2`` terms — the terms
    are added in ascending modulus order, as Algorithm 1 writes the sums.

    Parameters
    ----------
    c_stack:
        INT32 (or integer-valued) array of shape ``(N, m, n)`` holding the
        residue products ``C'_i``.
    table:
        Constant table providing moduli, split weights and reciprocals.

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
    s2_nonzero = _table_terms(table.moduli, table.precision_bits).s2_nonzero
    u = uint8_residues_stack(
        c_stack, table.moduli, out=np.empty(c_stack.shape, dtype=np.float64)
    )
    if table.precision_bits == 64:
        c1 = np.tensordot(table.s1, u.reshape(table.num_moduli, -1), axes=1)
        c1 = c1.reshape(c_stack.shape[1:])
    else:
        c1 = _ordered_sum(u, table.s1, range(table.num_moduli))
    if not s2_nonzero:
        return c1, None
    # Adding a term with s2[i] == 0 is a bitwise no-op (all terms are >= 0),
    # so only the nonzero ones are visited.
    return c1, _ordered_sum(u, table.s2, s2_nonzero)


def reconstruct_crt(
    c1: np.ndarray, c2: Optional[np.ndarray], table: CRTConstantTable
) -> np.ndarray:
    """Reconstruct ``C'' = rmod(C', P)`` from the two accumulations.

    Implements lines 10–11 of Algorithm 1::

        Q   = round(Pinv · C'^{(1)})
        t   = (C'^{(1)} − P1·Q) + C'^{(2)}
        C'' = fma(−P2, Q, t)

    bit for bit as the software FMA of :mod:`repro.utils.fma` evaluates
    ``fma(−P1, Q, C1) + C2`` and then ``fma(−P2, Q, t)``, in plain float64
    passes.  ``c2 = None`` (the sentinel for an all-zero second
    accumulation) skips the addition outright.

    Let ``g = ulp(P1) = 2^(E−52)`` with ``E = ⌊log2 P1⌋``, and
    ``L = ⌈log2(N·255 + 1)⌉``.  ``C1 ≤ Σ s_i1 (p_i − 1) < N·255·P``, so
    ``|Q| ≤ N·255 < 2^L``.  ``P1 = P1h + P1l`` with ``P1h`` truncated to
    ``53 − L`` bits; both are multiples of ``g`` and ``|P1l| < 2^L g``, so
    ``P1h·Q`` (at most 53 bits) and ``P1l·Q`` (at most ``2L`` bits) are
    exact.

    ``P1`` step, ``(C1 − P1h·Q) − P1l·Q``: both subtractions are exact.

    * 64-bit tables: every ``s_i1`` is a multiple of
      ``2^(e_max − 44 + ⌈log2 N⌉) ≥ g`` (``w_i ≥ P/256``), so ``C1`` and
      both subtrahends share the unit ``g``.  ``Q`` is the nearest integer
      to ``C1/P`` up to ``N·255·2^-52``, so both differences are at most
      ``P/2 + 2^(2L+1) g < 2^(E+1) = 2^53 g`` in magnitude.
    * 32-bit tables (``C1`` is a rounded sum): ``Q ≥ 2`` implies
      ``C1 > 2^E``, so ``C1`` is a multiple of ``g`` and the bound above
      applies; ``Q = 0`` subtracts zeros.  For ``Q = 1``,
      ``C1 ∈ [P/2, 3P/2]·(1 ± 2^-50)`` lies on a grid of ``g/2`` and both
      differences stay below ``2^E = 2^53 · g/2``, provided no power of two
      lies within a factor ``1 ± 2^-36`` of ``P``.  Every default table
      keeps at least ``2^-8`` (pinned by a test).

    The software ``fma(−P1, Q, C1)`` returns the same exact value: it is
    representable, and the FMA's error terms are multiples of ``g`` far
    below ``2^53 g``.

    ``P2`` step.  Splitting ``P2`` the same way is *not* exact:
    ``fl(fl(t − P2h·Q) − P2l·Q)`` rounds twice whenever ``t − P2h·Q`` is
    inexact.  Instead every intermediate of the software FMA is reproduced:
    ``p = fl(−P2·Q)``; its exact error ``e_p = (−P2h·Q − p) − P2l·Q``
    (the first difference is exact by Sterbenz's lemma, as
    ``|P2l| < 2^(L−52)|P2h|``; the second yields the rounding error of a
    product, which is representable); ``(s, e_s) = two_sum(p, t)``, exact
    for any magnitudes (a fast two-sum is not: ``|t| < |P2h·Q|`` with bits
    of ``t`` below ``P2h·Q``'s last one occurs when ``C2`` nearly cancels
    ``C1 − P1·Q``); and ``C'' = s + (e_s + e_p)``.  The 32-bit tables, and
    the 64-bit ones with ``P < 2^53``, have ``P2 = 0``: there
    ``fma(−0, Q, t) = t`` and the step is skipped.
    """
    terms = _table_terms(table.moduli, table.precision_bits)
    q = np.multiply(c1, table.Pinv)
    np.rint(q, out=q)
    t = np.multiply(q, terms.p1_hi)
    np.subtract(c1, t, out=t)
    w = np.multiply(q, terms.p1_lo)
    t -= w
    if c2 is not None:
        t += c2
    if table.P2 == 0.0:
        return t
    # e_p, the exact error of p = fl(-P2*Q), into w.
    p = np.multiply(q, -table.P2)
    np.multiply(q, -terms.p2_hi, out=w)
    w -= p
    q *= -terms.p2_lo
    w += q
    s, e_s = two_sum(p, t)
    # C'' = s + (e_s + e_p)
    e_s += w
    s += e_s
    return s


def unscale(
    c_pp: np.ndarray,
    mu_exp: np.ndarray,
    nu_exp: np.ndarray,
    out_dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Line 12 of Algorithm 1: ``C = diag(μ⁻¹)·C''·diag(ν⁻¹)``.

    ``μ = 2^mu_exp`` and ``ν = 2^nu_exp``, so the two divisions are one
    ``ldexp`` by ``-(mu_exp[:, None] + nu_exp[None, :])``: exact whenever
    the result is representable, rounded once into the subnormal range,
    and ±inf only when the exact value lies beyond the format's range.
    """
    return np.asarray(ldexp_unscale(c_pp, mu_exp, nu_exp), dtype=out_dtype)
