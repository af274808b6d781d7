"""Residue kernels: ``rmod`` and ``mod`` (Sections 4.2 and 4.3).

Algorithm 1 has one production kernel for each; the other two families are
reference functions the tests (and the ablation benchmark) call directly.

Production kernels
    :func:`residues_to_int8` (lines 4-5 of Algorithm 1) and
    :func:`uint8_residues_stack` (line 7) compute the exact remainders, the
    CPU analogue of the paper's reciprocal and ``__mulhi`` kernels.
    Conversion multiplies by the correctly rounded ``1/p``, rounds and
    subtracts, over cache-sized blocks, exactly for every ``|x| < 2**93``
    (larger inputs raise :class:`~repro.errors.ValidationError`).  The
    ``mod`` of the INT32/INT64 products is ``C' - p * (C' // p)`` in integer
    arithmetic (NumPy vectorises integer floor-division by a scalar as a
    multiply-high and a shift, the ``__mulhi`` idea), exact for every int32
    and int64 value.

Exact reference kernels
    :func:`rmod_exact` and :func:`mod_exact` use exact integer remainders
    (values beyond the int64 range are split exactly into two limbs first),
    so they realise the mathematical definitions

    .. math::

        \\mathrm{rmod}(X, p) = X - p\\,\\mathrm{round}(X/p), \\qquad
        \\mathrm{mod}(X, p)  = X - p\\,\\lfloor X/p \\rfloor

    with no error.  The test suite compares the production kernels with
    them.

The paper's kernels
    :func:`rmod_fast_fma` reproduces the FMA/reciprocal kernel of
    Section 4.2 (built-in ``fmod`` is slow on GPUs, so the paper multiplies
    by a precomputed reciprocal, rounds, and corrects with up to two extra
    FMA steps depending on ``N``), and :func:`mod_fast_mulhi` reproduces the
    ``__mulhi``-based integer kernel of Section 4.3.  Their residues are
    congruent to the production ones modulo ``p``, so the ``U_i`` and every
    output bit are the same: the test suite's literal Algorithm 1
    (``tests/algorithm1_oracle.py``) gives the production bits with either
    kernel pair.  The tests also check the windows of validity the paper
    states (``N <= 18`` for FP32 inputs, ``N <= 20`` for FP64 inputs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError, ValidationError
from ..utils.fma import fma

__all__ = [
    "rmod_exact",
    "mod_exact",
    "rmod_fast_fma",
    "mod_fast_mulhi",
    "residues_to_int8",
    "uint8_residues_stack",
]

#: Correction-step thresholds (N1, N2) of the fast rmod kernel, per input
#: precision (Section 4.2).
_FAST_RMOD_THRESHOLDS = {64: (13, 19), 32: (5, 11)}


#: Largest magnitude that is safely converted to int64 for the fast integer
#: remainder path (one bit of headroom below 2**63).
_INT64_SAFE_LIMIT = 2.0**62

#: The exact conversion kernels (the float-domain production kernel and the
#: integer reference) are exact for ``|x|`` strictly below this bound and raise
#: above it instead of returning wrong residues.  It is far above anything the
#: scaling produces (accurate mode reaches ``2**81`` at N = 20).
_EXACT_RANGE_LIMIT = 2.0**93

#: Limb split of the float-domain conversion: ``x = hi * 2**50 + lo`` with
#: ``|lo| <= 2**49`` and ``|hi| <= 2**43`` for ``|x| < 2**93``.
_LIMB_BITS = 50

#: Elements per float-domain conversion block.  Its working set — the
#: float64 input block and four float64 temporaries (5 x 256 KiB) plus its
#: INT8 output for every modulus (N x 32 KiB) — must stay in one core's L2
#: (2 MiB on the 2-CPU reference host) while all ``N`` moduli visit it:
#: 64K-element blocks overflowed it (serial 1536^2 fp64 N=15 conversion
#: 114 -> 132 ms).  Its length must amortise the block's ufunc calls (about
#: seven per modulus), each of which releases and re-takes the GIL: with
#: row bands on two threads, 16K-element blocks made two bands no faster
#: than one (1536^2, both sides: 232 vs 226 ms), 32K-element blocks 1.5x
#: faster (194 -> 121 ms).  Serially 32K ran as fast as 16K (114 vs 120 ms).
_CONVERT_BLOCK = 32768


def _check_exact_range(max_abs: float) -> None:
    """Refuse magnitudes the exact residue kernels cannot represent."""
    if not max_abs < _EXACT_RANGE_LIMIT:
        raise ValidationError(
            f"residue conversion is exact only for |x| < 2**93, got max |x| = {max_abs:.6g}"
        )


def _nonneg_mod_integer_valued(x: np.ndarray, p: int) -> np.ndarray:
    """Exact ``x mod p`` in ``[0, p)`` for integer-valued float64 ``x``.

    Uses int64 remainders (much faster than ``fmod``) whenever the values
    fit; larger values — which occur for many moduli, where the scaled
    matrices can exceed 2**62 — are split exactly into
    ``x = hi * 2**31 + lo`` (both parts fit int64) and recombined modulo
    ``p``.  Either way the result is exact for ``|x| < 2**93``; larger
    magnitudes raise :class:`~repro.errors.ValidationError`.
    """
    x = np.asarray(x, dtype=np.float64)
    p_int = int(p)
    max_abs = float(np.max(np.abs(x))) if x.size else 0.0
    _check_exact_range(max_abs)
    if max_abs < _INT64_SAFE_LIMIT:
        return np.remainder(x.astype(np.int64), p_int).astype(np.float64)
    # Exact split: hi = floor(x / 2^31) is an integer below 2^62 for
    # |x| < 2^93; lo = x - hi*2^31 lies in [0, 2^31).  Both steps are exact
    # in float64.
    hi = np.floor(np.ldexp(x, -31))
    lo = x - np.ldexp(hi, 31)
    hi_mod = np.remainder(hi.astype(np.int64), p_int)
    lo_mod = np.remainder(lo.astype(np.int64), p_int)
    shift_mod = pow(2, 31, p_int)
    return np.remainder(hi_mod * shift_mod + lo_mod, p_int).astype(np.float64)


def rmod_exact(x: np.ndarray, p: int) -> np.ndarray:
    """Centred remainder ``x - p*round(x/p)`` computed exactly.

    ``x`` must contain integer-valued float64 entries (as produced by the
    truncation step of Algorithm 1).  The result lies in ``[-p/2, p/2]``;
    for even ``p`` the boundary value ``+p/2`` is kept (the INT8 engine
    wraps ``+128`` to ``-128``, which is congruent modulo 256).
    """
    p_f = float(int(p))
    r = _nonneg_mod_integer_valued(x, p)
    return np.where(r > p_f / 2.0, r - p_f, r)


def mod_exact(x: np.ndarray, p: int) -> np.ndarray:
    """Non-negative remainder ``x mod p`` in ``[0, p)`` (exact)."""
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.floating):
        return _nonneg_mod_integer_valued(x, p)
    return np.mod(x, np.asarray(p, dtype=x.dtype))


def rmod_fast_fma(
    x: np.ndarray,
    p: int,
    pinv_b: float,
    pinv32: float,
    num_moduli: int,
    precision_bits: int,
) -> np.ndarray:
    """The paper's fast ``rmod`` kernel (Section 4.2).

    Steps (with ``fma(a, b, c) = a*b + c``):

    1. ``y = single(fma(round(x * pinv_b), -p, x))``
    2. if ``N >= N1``: ``y = fma(round(y * pinv32), -p, y)``
    3. if ``N >= N2``: ``y = fma(round(y * pinv32), -p, y)``

    where ``(N1, N2) = (13, 19)`` for FP64 inputs and ``(5, 11)`` for FP32
    inputs.  The kernel returns values congruent to ``x`` modulo ``p`` whose
    magnitude fits INT8 for the ``N`` ranges stated in the paper; the test
    suite verifies this window against :func:`rmod_exact`.
    """
    try:
        n1, n2 = _FAST_RMOD_THRESHOLDS[int(precision_bits)]
    except KeyError:
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        ) from None
    x = np.asarray(x, dtype=np.float64)
    p_f = float(int(p))
    y = fma(np.rint(x * float(pinv_b)), -p_f, x)
    # The paper stores the first correction in FP32; the value is already
    # small (order p * number-of-correction-steps), so this cast is lossless
    # for integers below 2^24 and mirrors the GPU register usage.
    y = np.asarray(y, dtype=np.float32).astype(np.float64)
    if num_moduli >= n1:
        y = fma(np.rint(y * float(pinv32)), -p_f, y)
    if num_moduli >= n2:
        y = fma(np.rint(y * float(pinv32)), -p_f, y)
    return y


def mod_fast_mulhi(c: np.ndarray, p: int, pinv_prime: int) -> np.ndarray:
    """The paper's ``__mulhi``-based ``mod`` kernel for INT32 inputs.

    Steps (Section 4.3), with ``mulhi`` the upper 32 bits of the 64-bit
    product:

    1. ``y = x - mulhi(x, pinv') * p``
    2. ``y = y - (y >= p) * p``
    3. ``y = y + (y < 0) * p``

    Returns values in ``[0, p)`` equal to ``c mod p``.
    """
    c64 = np.asarray(c, dtype=np.int64)
    t = (c64 * np.int64(int(pinv_prime))) >> np.int64(32)
    y = c64 - t * np.int64(int(p))
    y = y - (y >= p) * np.int64(int(p))
    y = y + (y < 0) * np.int64(int(p))
    return y


def residues_to_int8(
    x: np.ndarray, moduli: Sequence[int], out: np.ndarray | None = None
) -> np.ndarray:
    """Residues of an integer-valued array for every modulus, as INT8.

    Returns an array of shape ``(N, *x.shape)`` holding ``rmod(x, p_i)``
    cast to INT8 (lines 4-5 of Algorithm 1), written into ``out`` when one
    is given: an INT8 array of that shape whose slice per modulus is
    C-contiguous (a row band of a C-contiguous stack).  ``x`` (``A'``, ``B'`` or a
    GEMV vector ``x'``) may be any shape: the kernel is element-wise, so a
    1-D vector (the ``n = 1`` operand of
    :func:`repro.core.gemv.prepared_gemv`) converts bit-identically to the
    equivalent ``(k, 1)`` column.

    ``x`` is processed in blocks of :data:`_CONVERT_BLOCK` elements, so each
    block's temporaries stay cache-resident while every modulus visits it.
    Per block, ``x`` is split exactly into centred limbs
    ``hi * 2**50 + lo`` once (``hi = rint(x * 2**-50)``, so ``|hi| <= 2**43``
    and ``lo`` is an integer with ``|lo| <= 2**49``, which the subtraction
    forms exactly).  Per modulus,

        ``y = hi * c + lo``, with ``c = 2**50 mod p`` centred (``|c| <= 127``
        for ``p <= 255``, ``c = 0`` for ``p = 256``),

    is congruent to ``x`` and exact: ``|hi * c| < 2**50``, so
    ``|y| < 1.5 * 2**50``.  When ``max |x| < 2**50`` the split is skipped
    and ``y = x``.  Then ``y - p * rint(fl(y * fl(1/p)))`` is the centred
    remainder, exactly: the two roundings put the product within
    ``|y/p| * 2**-52 < 0.38/p`` of ``y/p``.  For odd ``p``, ``y/p`` is at
    least ``0.5/p`` from every half-integer (``2y - (2j+1)p`` is odd); for
    even ``p`` it is either an exact half-integer or at least ``1/p`` from
    one.  So ``rint`` returns the exact nearest quotient, except that an
    exact tie may round either way; ``p * rint(...)`` and the subtraction
    are exact integers below ``2**53``.

    For odd ``p`` the result is the unique representative in
    ``[-(p-1)/2, (p-1)/2]``; for even ``p`` a tie gives ``+p/2`` or
    ``-p/2``, and ``+p/2`` is mapped to ``-p/2``, exactly as the INT8 wrap of
    ``+128`` does for ``p = 256``.  The result equals :func:`rmod_exact`
    cast to INT8 for every ``|x| < 2**93``; larger magnitudes raise
    :class:`~repro.errors.ValidationError`.
    """
    x = np.asarray(x, dtype=np.float64)
    mods = [int(p) for p in moduli]
    if out is None:
        out = np.empty((len(mods),) + x.shape, dtype=np.int8)
    if x.size == 0:
        return out
    max_abs = max(float(np.max(x)), -float(np.min(x)))
    _check_exact_range(max_abs)
    split = max_abs >= 2.0**_LIMB_BITS
    flat = np.ascontiguousarray(x).reshape(-1)
    dest = out.reshape(len(mods), -1)
    if not np.may_share_memory(dest, out):
        raise ValueError("out must hold one C-contiguous slice per modulus")
    consts = []
    for p in mods:
        shift_mod = pow(2, _LIMB_BITS, p)
        if 2 * shift_mod > p:
            shift_mod -= p
        consts.append((float(p), 1.0 / p, float(shift_mod), p % 2 == 0))
    size = min(flat.size, _CONVERT_BLOCK)
    hi, lo, y, q = (np.empty(size, dtype=np.float64) for _ in range(4))
    for start in range(0, flat.size, _CONVERT_BLOCK):
        stop = min(start + _CONVERT_BLOCK, flat.size)
        n = stop - start
        xb, hb, lb, yb, qb = flat[start:stop], hi[:n], lo[:n], y[:n], q[:n]
        if split:
            np.multiply(xb, 2.0**-_LIMB_BITS, out=hb)
            np.rint(hb, out=hb)
            np.multiply(hb, 2.0**_LIMB_BITS, out=lb)
            np.subtract(xb, lb, out=lb)
        for i, (p, pinv, shift_mod, even) in enumerate(consts):
            if split:
                np.multiply(hb, shift_mod, out=yb)
                yb += lb
            src = yb if split else xb
            np.multiply(src, pinv, out=qb)
            np.rint(qb, out=qb)
            qb *= p
            np.subtract(src, qb, out=yb)
            if even:
                yb[yb == 0.5 * p] = -0.5 * p
            dest[i, start:stop] = yb
    return out


def uint8_residues_stack(
    c_stack: np.ndarray,
    moduli: Sequence[int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``U = [mod(C'_1, p_1), ..., mod(C'_N, p_N)]`` for the whole stack.

    ``c_stack`` is the ``(N, m, n)`` integer residue-product stack; entry
    ``i`` is reduced by modulus ``moduli[i]``.  The remainder is
    ``C' - p * (C' // p)`` in the stack's integer type: the floor-division is
    exact for every int32 and int64 value, and the result lies in
    ``[0, p)``, so it is exact even where ``p * (C' // p)`` wraps (near
    ``-2**31`` for int32) — the wrapped product is still right modulo the
    type's width.  Stacks of any other dtype (an integer-valued float stack,
    say) are cast to int64 first.  The paper's ``__mulhi`` kernel
    (:func:`mod_fast_mulhi`) returns the same ``U``.

    ``out`` may supply a preallocated ``c_stack.shape`` array of any dtype
    that can represent ``[0, 255]``; the accumulation passes a float64
    stack so the residues are computed in place in their final
    representation.  Without ``out``, a UINT8 stack is returned.
    """
    c = np.asarray(c_stack)
    u = out if out is not None else np.empty(c.shape, dtype=np.uint8)
    if c.dtype not in (np.int32, np.int64):
        c = c.astype(np.int64)
    r = np.empty(c.shape[1:], dtype=c.dtype)
    for i, p in enumerate(moduli):
        np.floor_divide(c[i], p, out=r)
        r *= p
        np.subtract(c[i], r, out=r)
        u[i] = r
    return u
