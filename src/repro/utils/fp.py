"""Floating-point exponent helpers and directed-rounding reductions.

The scale vectors of Section 4.2 are built from quantities of the form
``floor(log2(max_h |a_ih|))`` and from row/column sums of squares that the
paper requires to be computed *in round-up mode* so that the Cauchy–Schwarz
bound (7) is a true upper bound.  NumPy cannot switch the FPU rounding mode
portably, so :func:`round_up_sum_of_squares` instead computes an upper bound
on the round-to-nearest result by inflating it with the standard a-priori
error bound ``(n*u/(1-n*u))`` — slightly looser than true round-up mode but
guaranteed to be an upper bound, which is all condition (7) needs.

Every power-of-two scale in the library is an ``np.intc`` exponent vector
(the dtype of NumPy's fast ``ldexp`` loop), applied only by
:func:`ldexp_lines` and :func:`ldexp_unscale`: a float ``2**e`` overflows
long before ``x·2**e`` does (a row of magnitude 1e-300 needs ``2**1050``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = [
    "ldexp_lines",
    "ldexp_unscale",
    "max_exponents",
    "exponent_floor",
    "ufp",
    "next_power_of_two_exponent",
    "round_up_sum_of_squares",
    "upper_bound_inflation",
]


def ldexp_lines(x: np.ndarray, exps: np.ndarray, axis: int) -> np.ndarray:
    """``x`` with row ``i`` (``axis=1``) or column ``i`` (``axis=0``) times
    ``2**exps[i]``: exact wherever the result is representable.  Float
    ``exps`` are a ``TypeError``, never a silent multiplication."""
    return np.ldexp(x, exps[:, None] if axis == 1 else exps[None, :])


def ldexp_unscale(c: np.ndarray, row_exps: np.ndarray, col_exps: np.ndarray) -> np.ndarray:
    """``c·2^-(row_exps[:, None] + col_exps[None, :])`` in one ``ldexp`` pass:
    no intermediate over- or underflows, a subnormal result is rounded once,
    and one beyond the format's range is ±inf (NumPy warns, as for a native
    GEMM's overflow)."""
    return np.ldexp(c, np.subtract(-row_exps[:, None], col_exps[None, :]))


def max_exponents(max_abs: np.ndarray) -> np.ndarray:
    """``⌊log2 m⌋`` of each per-row/column max magnitude ``m`` as ``np.intc``;
    0 for a zero line (whose scale never matters)."""
    return np.where(max_abs > 0, exponent_floor(max_abs), 0).astype(np.intc)


def exponent_floor(x) -> np.ndarray:
    """``floor(log2(|x|))`` computed exactly from the binary representation.

    Zeros map to the most negative int64 exponent surrogate (-1074 - 1) so
    that downstream ``max`` reductions ignore them naturally.  This mirrors
    the role of ``floor(log2 max_h |a_ih|)`` in Section 4.2 without the
    rounding hazards of calling ``log2`` on values close to powers of two.
    """
    x = np.asarray(x, dtype=np.float64)
    mantissa, exponent = np.frexp(np.abs(x))
    # frexp returns mantissa in [0.5, 1), so floor(log2|x|) = exponent - 1.
    result = exponent.astype(np.int64) - 1
    return np.where(x == 0.0, np.int64(-1075), result)


def ufp(x) -> np.ndarray:
    """Unit in the first place: the largest power of two not exceeding |x|.

    ``ufp(0) = 0`` by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.where(x == 0.0, 0.0, np.ldexp(1.0, max_exponents(np.abs(x))))


def next_power_of_two_exponent(x) -> np.ndarray:
    """Smallest integer ``e`` with ``2**e >= |x|`` (elementwise).

    Exact powers of two map to their own exponent.  Zeros map to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    e = exponent_floor(x)
    exact = np.abs(x) == ufp(x)
    out = np.where(exact, e, e + 1)
    return np.where(x == 0.0, np.int64(0), out)


def upper_bound_inflation(n: int, dtype=np.float64) -> float:
    """Inflation factor turning a nearest-rounded sum into an upper bound.

    For a recursive summation of ``n`` non-negative terms in precision with
    unit roundoff ``u``, the computed value ``s_hat`` satisfies
    ``s <= s_hat * (1 + gamma)`` with ``gamma = n*u / (1 - n*u)``.  Multiplying
    the computed value by ``1 + 2*gamma`` therefore gives a guaranteed upper
    bound on the exact sum (the factor 2 absorbs the final multiplication's
    own rounding).
    """
    if n < 0:
        raise ValidationError("n must be non-negative")
    u = float(np.finfo(dtype).eps) / 2.0
    nu = (n + 2) * u
    if nu >= 1.0:  # pathological sizes; fall back to a crude factor of 2
        return 2.0
    gamma = nu / (1.0 - nu)
    return 1.0 + 2.0 * gamma


def round_up_sum_of_squares(x: np.ndarray, axis: int) -> np.ndarray:
    """Upper bound on ``sum(x**2, axis)`` as required by Section 4.2.

    The paper asks for the row/column sums of squares to be evaluated in
    round-up mode so the Cauchy–Schwarz bound (7) holds rigorously.  This
    implementation computes the nearest-rounded sum and inflates it by the
    a-priori bound of :func:`upper_bound_inflation`, yielding a value that is
    provably no smaller than the exact sum.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[axis]
    s = np.sum(np.square(x), axis=axis, dtype=np.float64)
    return s * upper_bound_inflation(2 * n)
