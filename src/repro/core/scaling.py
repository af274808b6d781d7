"""Scale-vector determination (Section 4.2).

Before anything touches the INT8 engine, Algorithm 1 converts the inputs to
integer matrices ``A' = trunc(diag(μ)·A)`` and ``B' = trunc(B·diag(ν))``
with power-of-two scale vectors ``μ`` and ``ν`` chosen so that condition (3)
of the paper holds::

    2 · Σ_h |a'_ih| |b'_hj|  <  P        for every (i, j).

This guarantees that the CRT reconstruction of ``A'B'`` is unique.  Larger
scales retain more significand bits after the truncation, so the goal is to
pick the largest power-of-two scales that still satisfy the bound.

Every function here returns a scale as its ``np.intc`` exponent vector
(``μ = 2^e_μ``), never as a float: a row of magnitude 1e-300 needs
``μ ≈ 2^1050``, which no float64 holds (see :mod:`repro.utils.fp`).

Two modes are provided, as in the paper:

fast mode
    bounds ``Σ_h |a'_ih||b'_hj|`` with the Cauchy–Schwarz inequality using
    row norms of ``A`` and column norms of ``B`` (computed as guaranteed
    upper bounds, see :func:`repro.utils.fp.round_up_sum_of_squares`);

accurate mode
    bounds it with a direct product ``C̄ = Ā·B̄`` of cheaply rounded-up
    magnitude matrices on the INT8 engine, which is tighter and therefore
    allows larger scales (smaller truncation error), at the cost of one
    extra INT8 GEMM.

Interpretation note
-------------------
The printed formulas in Section 4.2 use the full budget
``P'_fast = log2(P−1) − 1.5`` inside *both* ``μ`` and ``ν``; applied
literally this violates condition (3) (the two sides together would consume
``2·log2(P)`` bits).  This implementation follows the evident intent and
splits the budget evenly between the two sides: each side receives
``α = (log2(P−1) − 1.5) / 2``.  The ``−⌊log2 max_h |a_ih|⌋`` normalisation
term of the paper's formula is kept (it makes the scales independent of the
absolute data magnitude and immune to under/overflow of the row sums of
squares).  The resulting scales provably satisfy condition (3) (see the
derivation in ``tests/core/test_scaling.py`` and the property tests) and
reproduce the accuracy behaviour reported in Figure 3 (N≈14–15 for
DGEMM-level accuracy at k=1024, N≈7–8 for SGEMM-level accuracy).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..errors import ValidationError
from ..utils.fp import ldexp_lines, max_exponents, round_up_sum_of_squares

__all__ = [
    "scale_exponent_budget",
    "PrescaleBounds",
    "AccuratePrescale",
    "fast_mode_prescale",
    "scale_from_prescale",
    "fast_mode_scales",
    "fast_mode_scale_a",
    "fast_mode_scale_b",
    "accurate_mode_prescale",
    "accurate_scales_from_prescale",
    "accurate_mode_scales",
    "check_condition3",
]


def scale_exponent_budget(table: CRTConstantTable, mode: str) -> float:
    """Per-side exponent budget ``α`` derived from ``P``.

    ``fast`` mode uses ``α = P'_fast / 2`` and ``accurate`` mode uses
    ``α = P'_accu / 2`` where ``P'_fast``/``P'_accu`` are the constants of
    Section 4.1 (``log2(P−1) − 1.5`` and ``− 0.5``).  Splitting evenly
    between the A-side and the B-side guarantees condition (3); see the
    module docstring.
    """
    if mode == "fast":
        return 0.5 * float(table.P_fast)
    if mode == "accurate":
        # Use the fast budget rather than P'_accu/2 for the exponential part:
        # the direct-product bound is already tight, and the extra 0.5 bit of
        # headroom keeps condition (3) satisfied even when C̄ entries equal 1
        # (where the 0.51 slack factor provides no margin).
        return 0.5 * float(table.P_fast)
    raise ValidationError(f"unknown scaling mode {mode!r}")


@dataclasses.dataclass(frozen=True)
class PrescaleBounds:
    """The ``N``-independent inputs of one side's fast-mode scale formula.

    The fast-mode exponent of row/column ``i`` is
    ``⌊α(N) − t_i⌋ − M_i`` where only the budget ``α(N)`` depends on the
    moduli count; ``t_i = max(1, 0.51·log2 S_i)`` (the clamped norm
    estimate) and ``M_i = ⌊log2 max_h |a_ih|⌋`` are pure functions of the
    data.  Capturing them once lets a prepared operand re-derive its scale
    vector for *any* moduli count — bit-identically to a fresh scaling pass
    over the raw matrix — without touching the matrix again (see
    :meth:`repro.core.operand.ResidueOperand.resolve_for`).

    Attributes
    ----------
    axis:
        1 for the A side (per-row), 0 for the B side (per-column).
    clamp_term:
        ``max(1, 0.51·log2 S_i)`` per row/column (float64).
    m_exp:
        Floored exponents ``M_i`` (``np.intc``; 0 for zero rows/columns).
    max_abs:
        Per-row/column largest magnitudes (the scan the scaling pass
        performs anyway; ``float(global_max_abs)`` feeds auto-N selection).
    """

    axis: int
    clamp_term: np.ndarray
    m_exp: np.ndarray
    max_abs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("clamp_term", "m_exp", "max_abs"):
            getattr(self, name).setflags(write=False)

    @property
    def global_max_abs(self) -> float:
        """``max|X|`` over the whole operand (0 for an all-zero operand)."""
        return float(np.max(self.max_abs)) if self.max_abs.size else 0.0


def fast_mode_prescale(x: np.ndarray, axis: int) -> PrescaleBounds:
    """Compute the ``N``-independent part of the fast-mode scale formula.

    Each row/column is first normalised by ``2^M`` where ``M`` is the floored
    exponent of its largest magnitude (the ``−⌊log2 max_h |a_ih|⌋`` term of
    the paper's formula); the sum of squares of the *normalised* vector then
    lies in ``[1, 4k]`` regardless of the absolute data scale, so it can
    neither underflow nor overflow, and the clamp ``max(1, 0.51·log2 S)`` is
    a true upper bound on ``log2`` of the normalised 2-norm.
    """
    max_abs = np.max(np.abs(x), axis=axis)
    m_exp = max_exponents(max_abs)
    s_norm = round_up_sum_of_squares(ldexp_lines(x, -m_exp, axis), axis=axis)
    s_norm = np.maximum(s_norm, 1.0)
    clamp = np.maximum(1.0, 0.51 * np.log2(s_norm))
    return PrescaleBounds(axis=axis, clamp_term=clamp, m_exp=m_exp, max_abs=max_abs)


def scale_from_prescale(prescale: PrescaleBounds, alpha: float) -> np.ndarray:
    """Fast-mode scale exponents from pre-scale bounds and a budget.

    The exponent is ``⌊α − max(1, 0.51·log2 S_norm)⌋ − M``, which
    guarantees ``μ_i·‖a_i‖₂ ≤ 2^α`` (see the module docstring and
    :func:`fast_mode_prescale`); zero rows/columns get exponent 0.  This is
    the one place the fast formula is evaluated: :func:`fast_mode_scale_a`,
    :func:`fast_mode_scale_b`, prepared operands and out-of-core staging all
    finalise through it, so their exponents agree bit for bit.
    """
    exps = np.floor(alpha - prescale.clamp_term) - prescale.m_exp
    return np.where(prescale.max_abs > 0, exps, 0.0).astype(np.intc)


def fast_mode_scale_a(a: np.ndarray, table: CRTConstantTable) -> np.ndarray:
    """Fast-mode scale exponents ``e_μ`` (per row of A) alone.

    Fast mode derives each side's scales from that side only (Cauchy–Schwarz
    splits the budget per side), so ``μ`` can be computed — and cached, see
    :mod:`repro.core.operand` — without ever seeing ``B``.
    """
    return scale_from_prescale(fast_mode_prescale(a, axis=1), scale_exponent_budget(table, "fast"))


def fast_mode_scale_b(b: np.ndarray, table: CRTConstantTable) -> np.ndarray:
    """Fast-mode scale exponents ``e_ν`` (per column of B) alone."""
    return scale_from_prescale(fast_mode_prescale(b, axis=0), scale_exponent_budget(table, "fast"))


def fast_mode_scales(
    a: np.ndarray, b: np.ndarray, table: CRTConstantTable
) -> Tuple[np.ndarray, np.ndarray]:
    """Scale exponents ``e_μ`` (per row of A) and ``e_ν`` (per column of B), fast mode.

    The exponent of ``μ_i`` is ``⌊α − max(1, 0.51·log2 S_i)⌋ − M_i`` where
    ``M_i = ⌊log2 max_h |a_ih|⌋`` and ``S_i`` is a guaranteed upper bound on
    the sum of squares of the row normalised by ``2^{M_i}``.  Because
    ``max(1, 0.51·log2 S_i) ≥ 0.5·log2 S_i = log2(‖a_i‖/2^{M_i})``, the
    product ``μ_i ‖a_i‖ ≤ 2^α`` and condition (3) follows from
    Cauchy–Schwarz.  Zero rows/columns get exponent 0 (their contribution to
    ``A'B'`` is zero either way).
    """
    return fast_mode_scale_a(a, table), fast_mode_scale_b(b, table)


@dataclasses.dataclass(frozen=True)
class AccuratePrescale:
    """The per-side, ``N``-independent half of the accurate-mode scaling.

    Accurate mode couples the two sides through the bound product
    ``C̄ = Ā·B̄``, so a single side cannot finish its scale vector alone —
    but everything *before* the product is per-side and independent of the
    moduli count: the pre-scales ``μ' = 2^(5−⌊log2 max_h|a_ih|⌋)`` and the
    rounded-up magnitude matrix ``Ā = ceil(diag(μ')·|A|)``.  Capturing them
    at preparation time lets a prepared accurate-mode operand skip its half
    of the magnitude scan and round-up on every reuse — bit-identically to
    a fresh pass, because the one-shot :func:`accurate_mode_scales` is
    implemented as the same split.

    Attributes
    ----------
    axis:
        Reduction axis of the magnitude scan: 1 for the A side (per-row),
        0 for the B side (per-column).
    exp_prime:
        Exponents of the pre-scale vector ``μ'`` (A side) or ``ν'`` (B
        side), ``np.intc``.
    magnitude:
        ``Ā`` / ``B̄`` — ``ceil`` of the pre-scaled magnitudes, entries in
        ``[0, 2^6]``, ready for the INT8 bound product.
    max_abs:
        Per-row/column largest magnitudes of the raw data.
    """

    axis: int
    exp_prime: np.ndarray
    magnitude: np.ndarray
    max_abs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("exp_prime", "magnitude", "max_abs"):
            getattr(self, name).setflags(write=False)

    @property
    def global_max_abs(self) -> float:
        """``max|X|`` over the whole operand (0 for an all-zero operand)."""
        return float(np.max(self.max_abs)) if self.max_abs.size else 0.0


def accurate_mode_prescale(x: np.ndarray, axis: int) -> AccuratePrescale:
    """Compute one side's ``N``-independent accurate-mode pre-scale.

    ``axis=1`` treats ``x`` as the A side (per-row pre-scales), ``axis=0``
    as the B side (per-column).  The pre-scale exponent is
    ``5 − ⌊log2 max_h|a_ih|⌋`` (0 for a zero row), so ``Ā`` has entries in
    ``[0, 2^6]``.
    """
    max_abs = np.max(np.abs(x), axis=axis)
    exp_prime = np.where(max_abs > 0, 5 - max_exponents(max_abs), 0).astype(np.intc)
    magnitude = np.ceil(ldexp_lines(np.abs(x), exp_prime, axis))
    return AccuratePrescale(
        axis=axis, exp_prime=exp_prime, magnitude=magnitude, max_abs=max_abs
    )


def accurate_scales_from_prescale(
    prescale_a: AccuratePrescale,
    prescale_b: AccuratePrescale,
    table: CRTConstantTable,
    engine: MatrixEngine | None = None,
    max_block_k: int = 2**17,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finalise accurate-mode scales from two cached per-side pre-scales.

    Runs the coupled half of accurate mode: the blocked INT8 bound product
    ``C̄ = Ā·B̄`` followed by the row/column-max exponent formula.  Returns
    ``(e_μ, e_ν, C̄)`` exactly as :func:`accurate_mode_scales` does.
    """
    if prescale_a.axis != 1 or prescale_b.axis != 0:
        raise ValidationError(
            "accurate_scales_from_prescale needs an A-side prescale (axis=1) "
            f"and a B-side prescale (axis=0), got axes {prescale_a.axis} "
            f"and {prescale_b.axis}"
        )
    engine = engine or Int8MatrixEngine()
    alpha = scale_exponent_budget(table, "accurate")

    a_bar = prescale_a.magnitude
    b_bar = prescale_b.magnitude
    if a_bar.shape[1] != b_bar.shape[0]:
        raise ValidationError(
            f"prescale inner dimensions differ: A side has k={a_bar.shape[1]}, "
            f"B side has k={b_bar.shape[0]}"
        )

    # C̄ = Ā·B̄ on the INT8 engine, blocked over k so the INT32 accumulator
    # cannot overflow (entries are at most 2^6, so a block of 2^17 columns
    # stays below 2^29 < 2^31).
    k = a_bar.shape[1]
    c_bar = np.zeros((a_bar.shape[0], b_bar.shape[1]), dtype=np.float64)
    for start in range(0, k, max_block_k):
        stop = min(start + max_block_k, k)
        c_bar += engine.matmul(a_bar[:, start:stop], b_bar[start:stop, :]).astype(np.float64)

    row_max = np.maximum(np.max(c_bar, axis=1), 1.0)
    col_max = np.maximum(np.max(c_bar, axis=0), 1.0)

    exp_a = np.floor(alpha - 0.51 * np.log2(row_max)).astype(np.intc)
    exp_b = np.floor(alpha - 0.51 * np.log2(col_max)).astype(np.intc)
    return prescale_a.exp_prime + exp_a, prescale_b.exp_prime + exp_b, c_bar


def accurate_mode_scales(
    a: np.ndarray,
    b: np.ndarray,
    table: CRTConstantTable,
    engine: MatrixEngine | None = None,
    max_block_k: int = 2**17,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scale exponents in accurate mode (Section 4.2), plus the bound matrix.

    The magnitude matrices ``Ā = ceil(diag(μ')·|A|)`` and
    ``B̄ = ceil(|B|·diag(ν'))`` (entries at most ``2^6``) are multiplied on
    the INT8 engine; ``C̄ = Ā·B̄`` then bounds ``Σ_h |a_ih||b_hj|`` from
    above after undoing ``μ'``/``ν'``.  The final scales are::

        μ_i = μ'_i · 2^⌊α − 0.51·log2(max_h c̄_ih)⌋
        ν_j = ν'_j · 2^⌊α − 0.51·log2(max_h c̄_hj)⌋

    evaluated as integer additions of exponents.  Returns ``(e_μ, e_ν, C̄)``;
    the last is exposed for diagnostics and tests.
    Implemented as :func:`accurate_mode_prescale` per side followed by
    :func:`accurate_scales_from_prescale`, the same two-phase split that
    prepared operands use — so prepared reuse is bit-identical by
    construction.
    """
    return accurate_scales_from_prescale(
        accurate_mode_prescale(a, axis=1),
        accurate_mode_prescale(b, axis=0),
        table,
        engine=engine,
        max_block_k=max_block_k,
    )


def check_condition3(
    a_prime: np.ndarray, b_prime: np.ndarray, table: CRTConstantTable
) -> bool:
    """Verify condition (3): ``2·max_ij Σ_h |a'_ih||b'_hj| < P``.

    This is an O(m·k·n) check intended for tests and debugging, not for the
    hot path.  It evaluates the bound with Python integers so that no
    rounding can mask a violation.
    """
    abs_prod = np.abs(a_prime) @ np.abs(b_prime)
    largest = float(np.max(abs_prod)) if abs_prod.size else 0.0
    # float64 comparison is conservative only if P fits; use exact integers.
    return 2 * int(np.ceil(largest)) < table.P_int
