"""Accuracy-driven moduli-count selection (the auto-N engine).

Every phase of the emulation — conversion, the ``N`` INT8 GEMMs, the
accumulation, the CRT reconstruction — costs time linear in the moduli
count, yet the *required* ``N`` is a function of the problem: the inner
dimension ``k``, the operand magnitudes, and the accuracy the caller
actually needs.  This module turns the scaling construction of
:mod:`repro.core.scaling` into a rigorous a-priori bound on the emulated
product's element-wise error and inverts it: given a target accuracy,
:func:`select_num_moduli` returns the smallest ``N`` whose bound meets it.
It is the library's one error model: ``num_moduli="auto"``, every result's
``bound`` and ``bound_met``, and the benchmark's correctness checks all
read it.  Fixed counts come from Section 5.1's measurements instead (15
moduli for DGEMM-level and 8 for SGEMM-level accuracy, the
:class:`~repro.config.Ozaki2Config` defaults).

Derivation
----------
Write ``A' = trunc(diag(μ)·A)`` and ``B' = trunc(B·diag(ν))``.  The CRT
pipeline reproduces ``A'B'`` exactly (the residue GEMMs are exact integer
products and the split-weight accumulation of Section 4.3 commits only the
reconstruction roundoff), so the dominant error is the truncation::

    (AB − C)_ij = Σ_h [ a_ih·δb_h / ν_j + b_hj·δa_h / μ_i − δa_h·δb_h/(μ_i ν_j) ]

with ``|δa|, |δb| < 1``.  The fast-mode scale construction
(:func:`repro.core.scaling.fast_mode_scale_a`) picks the exponent
``⌊α − max(1, 0.51·log2 S_i)⌋ − M_i`` where ``α = (log2(P−1) − 1.5)/2`` is
the per-side budget, ``M_i = ⌊log2 max_h |a_ih|⌋`` and ``S_i ≤ 4k·(1+γ)``
bounds the sum of squares of the ``2^{−M_i}``-normalised row.  Chasing the
floor and the clamp through gives the guaranteed scale lower bound

.. math::

    1/μ_i \\;\\le\\; \\max|A| \\cdot 2^{\\,c(k) − α}, \\qquad
    c(k) = 1 + \\max(1,\\; 0.51\\,\\log_2(4k(1+γ))) + c_{slack}

(and the analogous bound for ``ν``; accurate mode's direct-product scales
obey the same form with ``c(k) = 0.51·log2(4096·k) − 4 + c_slack``, since
``C̄`` entries are at most ``k·2^{12}``).  Substituting into the truncation
sum and adding the reconstruction roundoff ``u_acc·k`` (``u_acc = 2^{−52}``
for the split 64-bit tables, ``2^{−36}`` for the unsplit 32-bit tables)
yields the **relative** bound

.. math::

    \\frac{\\max_{ij} |(AB − C)_{ij}|}{k\\,\\max|A|\\,\\max|B|}
    \\;\\le\\; ρ(N, k) = 2^{\\,c(k)+1−α(N)} + 2^{\\,2(c(k)−α(N))} + u_{acc}\\,k.

``ρ`` depends only on ``(N, k, precision, mode)`` — the operand magnitudes
cancel against the natural scale ``k·max|A|·max|B|`` — so the selection is
magnitude-invariant: rescaling the data by powers of two never changes the
chosen ``N``.  This is what makes prepared-operand reuse sound under auto
selection: the ``N`` chosen at preparation time (from the operand's own
max-abs scan) is exactly the ``N`` every partner's multiplication selects
under the same target (see :mod:`repro.core.operand`).

The bound is deliberately coarse (the property suite measures it two to
four orders above the observed error) but it is a *true* upper bound for
this library's scaling construction, which ``tests/crt/test_adaptive.py``
and the adaptive benchmark verify across workload families.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from ..config import MAX_MODULI
from ..errors import ConfigurationError, warn_at_caller
from ..utils.fp import upper_bound_inflation
from .calibration import DEFAULT_CALIBRATION, CalibrationTable
from .constants import build_constant_table

__all__ = [
    "AUTO_MODULI",
    "DEFAULT_TARGET_ACCURACY",
    "SELECTION_MODELS",
    "AdaptiveSelection",
    "truncation_margin_exponent",
    "truncation_relative_bound",
    "floor_relative_bound",
    "relative_error_bound",
    "calibrated_relative_bound",
    "elementwise_error_bound",
    "select_num_moduli",
]

#: Sentinel value of ``Ozaki2Config.num_moduli`` requesting auto selection.
AUTO_MODULI = "auto"

#: Default relative accuracy target per precision (keyed on the constant
#: table's bit width).  The values match the library's default solver
#: tolerances (``repro solve``: 1e-10 for fp64, 1e-5 for fp32) — "as
#: accurate as the rest of the pipeline asks for", not "as accurate as the
#: format allows"; callers wanting the full fixed-N accuracy pass a tighter
#: ``target_accuracy`` or a fixed ``num_moduli``.
DEFAULT_TARGET_ACCURACY = {64: 1e-10, 32: 1e-5}

#: Smallest moduli count the selector may return (the constant tables
#: require at least two moduli).
_MIN_MODULI = 2

#: Slack (in bits) absorbing the floating-point evaluation of the scale
#: exponents themselves (the ``0.51·log2 S`` term is computed in float64;
#: its rounding is far below one bit, 0.1 is generous).
_SLACK_BITS = 0.1

#: Accumulation/reconstruction unit roundoff per table bit width: ``P`` and
#: the CRT weights are split into two float64 values for the 64-bit tables
#: and stored as one for the 32-bit tables.
_U_ACC = {64: 2.0**-52, 32: 2.0**-36}

#: Output-precision rounding floor: the final :func:`~repro.core.
#: accumulation.unscale` rounds the reconstructed product into the target
#: dtype, committing up to one unit roundoff of the *result* format
#: relative to the natural scale ``k·max|A|·max|B|``.  For fp64 targets
#: this is absorbed by ``u_acc·k``; for fp32 targets (2^-24) it dominates
#: the floor at every k — without it the model would promise targets
#: tighter than float32 can represent, and a tight-target selection would
#: report ``met=True`` for an error the output rounding alone exceeds.
_U_OUT = {64: 2.0**-52, 32: 2.0**-24}

#: Absolute floor of every nonzero bound, the target's smallest subnormal:
#: a subnormal output rounds on a fixed grid that ``u_out`` cannot cover
#: (fp32 ``A·(B·1e-44)`` misses by 2^-150; the relative terms give 7.8e-49).
_SUBNORMAL_FLOOR = {64: 2.0**-1074, 32: 2.0**-149}

#: Selection models accepted by :func:`select_num_moduli` and
#: ``Ozaki2Config.selection_model``.
SELECTION_MODELS = ("rigorous", "calibrated")

#: Once-per-process latch of the clamp warning (see ``_warn_clamped``).
_CLAMP_WARNING_EMITTED = False


@dataclasses.dataclass(frozen=True)
class AdaptiveSelection:
    """Outcome of one auto-N selection.

    Attributes
    ----------
    num_moduli:
        The selected moduli count (clamped to ``[2, MAX_MODULI]``).
    target:
        The relative accuracy target the selection aimed for.
    met:
        Whether the a-priori bound at ``num_moduli`` meets ``target``.
        False only when even ``MAX_MODULI`` moduli cannot — the selection
        then clamps rather than failing, and ``bound`` reports what *is*
        guaranteed.
    bound:
        Guaranteed absolute element-wise error bound
        ``max_ij |(AB − C)_ij| ≤ bound`` at the selected ``N``: the relative
        bound times the natural scale, plus the target format's smallest
        subnormal unless an operand is zero.
    relative_bound:
        The same bound divided by the natural scale ``k·max|A|·max|B|``
        (0 when either operand is identically zero).
    k:
        Inner dimension the selection was made for.
    max_abs_a / max_abs_b:
        The operand max-abs values used (the B value is the partner's, or
        the operand's own at preparation time — the relative bound is
        magnitude-invariant, so this never changes the selected ``N``).
    precision_bits:
        64 (DGEMM emulation) or 32 (SGEMM emulation).
    mode:
        ``"fast"`` or ``"accurate"`` — selects the margin constant.
    model:
        The selection model that was *requested* (``"rigorous"`` or
        ``"calibrated"``).
    decided_by:
        The model that actually fixed ``num_moduli``.  Under
        ``model="calibrated"`` this is ``"calibrated"`` only when the
        margin test passed *and* the calibrated bound lowered the count;
        otherwise the guaranteed-safe rigorous selection decided and this
        reads ``"rigorous"`` (the fallback engaging is observable here).
    rigorous_num_moduli:
        The count the rigorous model selects for the same inputs — equal to
        ``num_moduli`` unless the calibrated model lowered it.
    calibration_margin_bits:
        The margin (bits) the calibrated bound claimed when it decided;
        0.0 when the rigorous model decided.
    """

    num_moduli: int
    target: float
    met: bool
    bound: float
    relative_bound: float
    k: int
    max_abs_a: float
    max_abs_b: float
    precision_bits: int
    mode: str
    model: str = "rigorous"
    decided_by: str = "rigorous"
    rigorous_num_moduli: Optional[int] = None
    calibration_margin_bits: float = 0.0

    @property
    def scale(self) -> float:
        """The natural error scale ``k·max|A|·max|B|``."""
        return _natural_scale(self.k, self.max_abs_a, self.max_abs_b)


def _natural_scale(k: int, max_abs_a: float, max_abs_b: float) -> float:
    """``k·max|A|·max|B|`` smallest factor first (``k·1e307`` overflows)."""
    small, large = sorted((float(max_abs_a), float(max_abs_b)))
    return float(k) * small * large


def truncation_margin_exponent(k: int, mode: str = "fast") -> float:
    """The margin ``c(k)`` of the scale lower bound ``1/μ ≤ max|A|·2^{c−α}``.

    Fast mode: the clamp term of the exponent formula is at most
    ``max(1, 0.51·log2(4k·(1+γ)))`` (normalised entries are below 2 in
    magnitude, so the round-up sum of squares is below ``4k`` inflated by
    :func:`repro.utils.fp.upper_bound_inflation`); the floor loses one more
    bit.  Accurate mode: the direct-product bound matrix ``C̄`` has entries
    at most ``k·2^{12}`` (both magnitude matrices are below ``2^6``), and
    the pre-scale ``μ'`` contributes ``2^{M−5}``.
    """
    k = int(k)
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    if mode == "fast":
        inflation = upper_bound_inflation(2 * k)
        clamp = max(1.0, 0.51 * math.log2(4.0 * k * inflation))
        return 1.0 + clamp + _SLACK_BITS
    if mode == "accurate":
        return 0.51 * math.log2(4096.0 * k) - 4.0 + _SLACK_BITS
    raise ConfigurationError(f"unknown compute mode {mode!r}")


def truncation_relative_bound(
    k: int, num_moduli: int, precision_bits: int = 64, mode: str = "fast"
) -> float:
    """The truncation term of ``ρ(N, k)`` alone (no accumulation floor).

    This is the part of the bound the worst-case derivation inflates — and
    therefore the only part the calibrated model is allowed to tighten
    (:func:`calibrated_relative_bound`); the roundoff floor of
    :func:`floor_relative_bound` is charged in full by both models.
    """
    if precision_bits not in _U_ACC:
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        )
    table = build_constant_table(int(num_moduli), int(precision_bits))
    alpha = 0.5 * float(table.P_fast)
    c = truncation_margin_exponent(k, mode)
    return 2.0 ** (c - alpha + 1.0) + 2.0 ** (2.0 * (c - alpha))


def floor_relative_bound(k: int, precision_bits: int = 64) -> float:
    """The N-independent roundoff floor of ``ρ``: ``u_acc·k + u_out``.

    ``u_acc·k`` is the accumulation/reconstruction roundoff of the split
    tables; ``u_out`` is the final rounding into the target dtype (see
    ``_U_OUT`` — material for fp32 targets, negligible for fp64).  No
    moduli count can push the error below this floor, so targets beneath
    it report ``met=False`` instead of promising the impossible.
    """
    if precision_bits not in _U_ACC:
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        )
    k = int(k)
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    bits = int(precision_bits)
    return _U_ACC[bits] * float(k) + _U_OUT[bits]


def relative_error_bound(
    k: int, num_moduli: int, precision_bits: int = 64, mode: str = "fast"
) -> float:
    """Relative bound ``ρ(N, k)``: max element error over ``k·max|A|·max|B|``.

    Magnitude-invariant (see the module docstring): this is the quantity
    the selection compares against ``target_accuracy``.  The sum of
    :func:`truncation_relative_bound` and :func:`floor_relative_bound`.
    """
    return truncation_relative_bound(
        k, num_moduli, precision_bits, mode
    ) + floor_relative_bound(k, precision_bits)


def calibrated_relative_bound(
    k: int,
    num_moduli: int,
    precision_bits: int = 64,
    mode: str = "fast",
    calibration: Optional[CalibrationTable] = None,
) -> Optional[float]:
    """Calibrated relative bound, or ``None`` when the margin test fails.

    The truncation term is tightened by the band's claimed margin
    (observed conservatism minus the guard — see
    :mod:`repro.crt.calibration`); the roundoff floor is charged in full.
    ``None`` means no calibration entry covers ``(precision, mode, k)`` or
    its observed margin is consumed by the guard: callers must fall back
    to :func:`relative_error_bound`.
    """
    table = calibration if calibration is not None else DEFAULT_CALIBRATION
    entry = table.entry_for(k, precision_bits, mode)
    if entry is None or not entry.margin_test_passes:
        return None
    trunc = truncation_relative_bound(k, num_moduli, precision_bits, mode)
    return trunc * 2.0**-entry.margin_bits + floor_relative_bound(
        k, precision_bits
    )


def elementwise_error_bound(
    k: int,
    max_abs_a: float,
    max_abs_b: float,
    num_moduli: int,
    precision_bits: int = 64,
    mode: str = "fast",
) -> float:
    """Absolute element-wise bound ``max_ij |(AB − C)_ij|`` of one emulation.

    The product of :func:`relative_error_bound` and the natural scale
    ``k·max|A|·max|B|``, plus the smallest subnormal of the target format
    (the final rounding of a subnormal output).  Zero operands give a zero
    bound (the emulated product of a zero matrix is exactly zero).
    """
    max_abs_a = _check_max_abs(max_abs_a, "A")
    max_abs_b = _check_max_abs(max_abs_b, "B")
    if max_abs_a == 0.0 or max_abs_b == 0.0:
        return 0.0
    rel = relative_error_bound(k, num_moduli, precision_bits, mode)
    return rel * _natural_scale(k, max_abs_a, max_abs_b) + _SUBNORMAL_FLOOR[precision_bits]


def _check_max_abs(value: float, which: str) -> float:
    value = float(value)
    if not (value >= 0.0) or math.isinf(value):
        raise ConfigurationError(
            f"max|{which}| must be a finite non-negative value, got {value}"
        )
    return value


def _warn_clamped(target: float, relative_bound: float) -> None:
    """Once-per-process warning when selection clamps with ``met=False``.

    Silent clamping was a bug: every caller (GEMM, GEMV, batches, the
    solvers) received a result missing its requested ``target_accuracy``
    with no signal.  The warning fires once per process (a solver loop
    re-selecting every iteration must not spam); programmatic callers read
    ``AdaptiveSelection.met`` / ``Result.bound_met`` instead.  It is
    attributed to the first frame outside the ``repro`` package, the
    caller's own line, whichever route (GEMM, GEMV, preparation, a direct
    :func:`select_num_moduli`) selected (:func:`~repro.errors.warn_at_caller`).
    """
    global _CLAMP_WARNING_EMITTED
    if _CLAMP_WARNING_EMITTED:
        return
    _CLAMP_WARNING_EMITTED = True
    warn_at_caller(
        f"target_accuracy={target:g} is unreachable: even num_moduli="
        f"{MAX_MODULI} only guarantees a relative bound of "
        f"{relative_bound:g}; proceeding with the clamped count "
        "(selection.met / Result.bound_met report False; this warning is "
        "emitted once per process)",
        RuntimeWarning,
    )


def select_num_moduli(
    k: int,
    max_abs_a: float,
    max_abs_b: float,
    precision_bits: int = 64,
    target: "float | None" = None,
    mode: str = "fast",
    model: str = "rigorous",
    calibration: Optional[CalibrationTable] = None,
) -> AdaptiveSelection:
    """Smallest ``N`` whose a-priori bound meets the accuracy target.

    Parameters
    ----------
    k:
        Inner dimension of the product.
    max_abs_a / max_abs_b:
        ``max|A|`` / ``max|B|`` — the max-abs scans the scaling pass
        performs anyway.  They parameterise the returned absolute bound;
        the *selection* is magnitude-invariant (the relative bound does not
        depend on them), except that a zero operand short-circuits to the
        minimum ``N`` with a zero bound.
    precision_bits:
        64 for DGEMM emulation, 32 for SGEMM emulation.
    target:
        Relative accuracy target in ``(0, 1)``; ``None`` uses
        :data:`DEFAULT_TARGET_ACCURACY` for the precision.  A target that
        even :data:`repro.config.MAX_MODULI` moduli cannot meet returns
        that count with ``met=False`` rather than raising — auto selection
        degrades to the most accurate supported configuration, the
        returned ``bound`` states what is actually guaranteed, and a
        once-per-process ``RuntimeWarning`` flags the shortfall.
    mode:
        ``"fast"`` or ``"accurate"``.
    model:
        ``"rigorous"`` (default) selects from the guaranteed a-priori
        bound alone.  ``"calibrated"`` additionally consults the measured
        calibration (:mod:`repro.crt.calibration`): when the margin test
        passes, the count may be *lowered* to the smallest ``N`` whose
        calibrated bound meets the target — never raised, and never past
        a failed margin test (uncovered ``k``, missing entry, guard-
        consumed margin), where the rigorous selection stands unchanged.
        ``decided_by`` on the result records which model fixed the count.
    calibration:
        Calibration table override for ``model="calibrated"``; defaults to
        the shipped :data:`repro.crt.calibration.DEFAULT_CALIBRATION`.
    """
    k = int(k)
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    if precision_bits not in _U_ACC:
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        )
    if target is None:
        target = DEFAULT_TARGET_ACCURACY[int(precision_bits)]
    target = float(target)
    if not (0.0 < target < 1.0):
        raise ConfigurationError(
            f"target_accuracy must lie in (0, 1), got {target}"
        )
    model = str(model).strip().lower()
    if model not in SELECTION_MODELS:
        raise ConfigurationError(
            f"selection model must be one of {SELECTION_MODELS}, got {model!r}"
        )
    max_abs_a = _check_max_abs(max_abs_a, "A")
    max_abs_b = _check_max_abs(max_abs_b, "B")

    if max_abs_a == 0.0 or max_abs_b == 0.0:
        # A zero operand: the emulated product is exactly zero for any N.
        # (An underflowing natural scale is not one: selection stays
        # magnitude-invariant.)
        return AdaptiveSelection(
            num_moduli=_MIN_MODULI,
            target=target,
            met=True,
            bound=0.0,
            relative_bound=0.0,
            k=k,
            max_abs_a=max_abs_a,
            max_abs_b=max_abs_b,
            precision_bits=int(precision_bits),
            mode=mode,
            model=model,
            decided_by="rigorous",
            rigorous_num_moduli=_MIN_MODULI,
        )

    chosen, met, rel = MAX_MODULI, False, relative_error_bound(
        k, MAX_MODULI, precision_bits, mode
    )
    for n in range(_MIN_MODULI, MAX_MODULI + 1):
        candidate = relative_error_bound(k, n, precision_bits, mode)
        if candidate <= target:
            chosen, met, rel = n, True, candidate
            break
    if not met:
        _warn_clamped(target, rel)

    rigorous_chosen = chosen
    decided_by = "rigorous"
    margin_bits = 0.0
    if model == "calibrated" and met:
        # The calibrated model may only *lower* the count, and only when
        # the margin test passes (calibrated_relative_bound returns None
        # otherwise — the guaranteed-safe fallback is the selection above).
        for n in range(_MIN_MODULI, rigorous_chosen):
            candidate = calibrated_relative_bound(
                k, n, precision_bits, mode, calibration
            )
            if candidate is None:
                break
            if candidate <= target:
                table = (
                    calibration if calibration is not None else DEFAULT_CALIBRATION
                )
                entry = table.entry_for(k, precision_bits, mode)
                assert entry is not None  # candidate is not None above
                chosen, rel = n, candidate
                decided_by = "calibrated"
                margin_bits = entry.margin_bits
                break
    return AdaptiveSelection(
        num_moduli=chosen,
        target=target,
        met=met,
        bound=rel * _natural_scale(k, max_abs_a, max_abs_b) + _SUBNORMAL_FLOOR[precision_bits],
        relative_bound=rel,
        k=k,
        max_abs_a=max_abs_a,
        max_abs_b=max_abs_b,
        precision_bits=int(precision_bits),
        mode=mode,
        model=model,
        decided_by=decided_by,
        rigorous_num_moduli=rigorous_chosen,
        calibration_margin_bits=margin_bits,
    )
