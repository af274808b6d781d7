"""Public emulated-GEMM API (Algorithm 1) and its shared front end.

:func:`ozaki2_gemm` runs the full pipeline of Algorithm 1 on a pair of
matrices and returns either the result matrix or a
:class:`~repro.result.GemmResult` with per-phase timings, operation counts
and intermediate diagnostics.  The convenience wrappers
:func:`emulated_dgemm` / :func:`emulated_sgemm` choose sensible defaults for
FP64 / FP32 targets.

Every emulated GEMM runs through :func:`ozaki2_gemm`: the batched runtime
(:mod:`repro.runtime.batched`) calls it once per item.  Lines 1–5 of
Algorithm 1 (validation, moduli selection, the scale vectors and whatever
conversion a side still needs) are decided in one place,
:func:`_scaled_sides`, for both entry points: this module's GEMM and the
residue GEMV (:mod:`repro.core.gemv`).  Each keeps only its own conversion
strategy, its line 6 and its result type.  The inner-dimension block limit
of Section 4.3 is read from this module's :data:`MAX_K_WITHOUT_BLOCKING`
on every route, so tests shrink it in one place.

The result and phase-time classes live in :mod:`repro.result` (the unified
result hierarchy shared with the GEMV and solver routes) and are re-exported
here; see that module for the phase-key table.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..config import ComputeMode, MAX_K_WITHOUT_BLOCKING, Ozaki2Config
from ..crt.adaptive import AdaptiveSelection
# Selection runs in core.operand.resolve_moduli; the name stays importable
# here because perfbench's span tracer looks it up in this module.
from ..crt.adaptive import select_num_moduli  # noqa: F401
from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..result import GemmResult, PHASE_KEYS, PhaseTimes, _PhaseTimer
from ..types import result_dtype
from ..utils.validation import check_operand, require_finite
from ..errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # runtime imports core; keep the scheduler type import one-way
    from ..runtime.scheduler import Scheduler
from .accumulation import unscale
from .operand import (
    AUTO_TABLE_RESTRICTION,
    PreparedOperand,
    ResidueOperand,
    resolve_moduli,
    table_for,
)
from .scaling import (
    accurate_mode_prescale,
    accurate_scales_from_prescale,
    fast_mode_scale_a,
    fast_mode_scale_b,
)

__all__ = [
    "PHASE_KEYS",
    "PhaseTimes",
    "GemmResult",
    "ozaki2_gemm",
    "emulated_dgemm",
    "emulated_sgemm",
]


@dataclasses.dataclass
class _ScaledSides:
    """What lines 1–5 decided for one product (see :func:`_scaled_sides`).

    ``mu_exp``/``nu_exp`` are the exponents of the scale vectors ``μ``/``ν``.
    ``a_slices``/``b_slices`` hold a side's cached INT8 residue stack (a
    fast-mode :class:`~repro.core.operand.ResidueOperand`); when ``None``,
    ``a_source``/``b_source`` is the float64 matrix the route still has to
    truncate under those exponents and convert (lines 2–5).  ``a_prime`` is
    the truncated ``A'`` such an A side keeps for the GEMV's FP64 line 6,
    else ``None``.
    """

    config: Ozaki2Config
    table: CRTConstantTable
    selection: Optional[AdaptiveSelection]
    m: int
    k: int
    n: int
    mu_exp: np.ndarray
    nu_exp: np.ndarray
    a_slices: Optional[np.ndarray]
    a_source: Optional[np.ndarray]
    b_slices: Optional[np.ndarray]
    b_source: Optional[np.ndarray]
    a_prime: Optional[np.ndarray]


#: Why a prepared operand was refused on a side, keyed by the side it was
#: passed on.
_WRONG_SIDE = {
    "A": "an operand prepared for the B side (per-column scales) was passed as "
    "the left operand; use prepare_a for A",
    "B": "an operand prepared for the A side (per-row scales) was passed as "
    "the right operand; use prepare_b for B",
}


def _side(x: Any, want: str) -> "tuple[Optional[PreparedOperand], Any]":
    """Split one GEMM side into ``(prepared, raw)``; validate its shape.

    A raw side is coerced to a contiguous 2-D float64 matrix (finiteness is
    checked by the caller after the inner dimensions, as
    :func:`~repro.utils.validation.check_gemm_operands` orders it).
    """
    if not isinstance(x, PreparedOperand):
        return None, check_operand(x, want, check_finite=False)
    if x.side != want:
        raise ValidationError(_WRONG_SIDE[want])
    return x, None


def _scaled_sides(
    a: "np.ndarray | PreparedOperand",
    b: "np.ndarray | PreparedOperand",
    config: Ozaki2Config,
    constant_table: Optional[CRTConstantTable],
    engine: MatrixEngine,
    times: PhaseTimes,
) -> _ScaledSides:
    """Lines 1–5 of Algorithm 1 up to conversion, for raw or prepared sides.

    Validates both sides (orientation and configuration compatibility of a
    prepared side, shape and finiteness of a raw one, the inner dimension),
    resolves ``num_moduli="auto"`` through
    :func:`~repro.core.operand.resolve_moduli` (re-deriving prepared sides
    at the selected count under the ``"convert_A"``/``"convert_B"`` phases
    of ``times``), builds the constant table and derives the scale
    exponents under the ``"scale"`` phase.  Fast mode takes
    each side's scales from that side alone, so a prepared operand
    contributes its cached exponents; accurate mode finalises from the two
    sides' pre-scales (cached on an :class:`~repro.core.operand.AccurateOperand`,
    computed here otherwise) through the coupled bound product on
    ``engine``.  Every entry point calls this, so a prepared, raw or vector
    side is scaled by the same arithmetic.
    """
    a_prep, a = _side(a, "A")
    b_prep, b = _side(b, "B")
    for prep in (a_prep, b_prep):
        if prep is not None:
            prep.require_compatible(config)
    shape_a = a_prep.shape if a_prep is not None else a.shape
    shape_b = b_prep.shape if b_prep is not None else b.shape
    if shape_a[1] != shape_b[0]:
        raise ValidationError(
            f"inner dimensions do not match: A is {tuple(shape_a)}, "
            f"B is {tuple(shape_b)}"
        )
    if a is not None:
        require_finite(a, "A")
    if b is not None:
        require_finite(b, "B")
    (m, k), n = shape_a, shape_b[1]

    # Accuracy-driven moduli selection: resolve "auto" to a concrete count
    # (and re-derive prepared sides at it) before any table exists.  A
    # caller-supplied table cannot be honoured under auto — the selection
    # model is defined for the default moduli prefix — so it is rejected
    # rather than silently replaced.
    selection = None
    if config.moduli_is_auto:
        if constant_table is not None:
            raise ConfigurationError(AUTO_TABLE_RESTRICTION)
        config, selection = resolve_moduli(
            config, k, _max_abs(a, a_prep), _max_abs(b, b_prep)
        )
        # Re-deriving a prepared side at another count converts it again
        # (truncation and residues from its kept source): a convert phase.
        if a_prep is not None and a_prep.num_moduli != config.num_moduli:
            with _PhaseTimer(times, "convert_A"):
                a_prep = a_prep.resolve_for(config.num_moduli)
        if b_prep is not None and b_prep.num_moduli != config.num_moduli:
            with _PhaseTimer(times, "convert_B"):
                b_prep = b_prep.resolve_for(config.num_moduli)
    table = constant_table or table_for(config)

    with _PhaseTimer(times, "scale"):
        if config.mode is ComputeMode.FAST:
            mu_exp = a_prep.scale_exp if a_prep is not None else fast_mode_scale_a(a, table)
            nu_exp = b_prep.scale_exp if b_prep is not None else fast_mode_scale_b(b, table)
        else:
            pa = a_prep.prescale if a_prep is not None else accurate_mode_prescale(a, axis=1)
            pb = b_prep.prescale if b_prep is not None else accurate_mode_prescale(b, axis=0)
            mu_exp, nu_exp, _ = accurate_scales_from_prescale(
                pa, pb, table, engine, MAX_K_WITHOUT_BLOCKING
            )

    # A fast prepared side carries its residues; everything else (raw, or
    # accurate prepared — its scales are partner-coupled) still converts.
    a_slices, a_source = _pending(a, a_prep)
    b_slices, b_source = _pending(b, b_prep)
    a_prime = a_prep._a_prime if isinstance(a_prep, ResidueOperand) else None
    return _ScaledSides(
        config, table, selection, m, k, n, mu_exp, nu_exp,
        a_slices, a_source, b_slices, b_source, a_prime,
    )


def _pending(
    raw: Any, prep: Optional[PreparedOperand]
) -> "tuple[Optional[np.ndarray], Optional[np.ndarray]]":
    """``(cached INT8 stack, None)`` or ``(None, matrix still to convert)``."""
    if isinstance(prep, ResidueOperand):
        return prep.slices, None
    return None, raw if prep is None else prep.source


def _max_abs(raw: Any, prep: Optional[PreparedOperand]) -> float:
    """``max|X|`` of one side, the magnitude auto selection feeds on.

    Prepared operands carry the value from their preparation's scaling scan
    (free); raw sides pay one ``max(|X|)`` pass — the same scan the scaling
    phase performs, a negligible fraction of the conversion it feeds.
    """
    if prep is None:
        return float(np.max(np.abs(raw)))
    if prep.max_abs is None:
        raise ValidationError(
            "auto moduli selection needs the operand's max-abs, but this "
            "hand-constructed ResidueOperand carries no cached prescale "
            "bounds; prepare it with repro.core.operand.prepare_a/"
            "prepare_b or pass a fixed num_moduli"
        )
    return prep.max_abs


def ozaki2_gemm(
    a: "np.ndarray | PreparedOperand",
    b: "np.ndarray | PreparedOperand",
    config: Optional[Ozaki2Config] = None,
    engine: Optional[MatrixEngine] = None,
    return_details: bool = False,
    constant_table: Optional[CRTConstantTable] = None,
    scheduler: "Scheduler | None" = None,
) -> "np.ndarray | GemmResult":
    """Emulated matrix product ``A @ B`` via Ozaki scheme II (Algorithm 1).

    Parameters
    ----------
    a, b:
        Input matrices with a matching inner dimension.  Either side may be
        a precomputed operand from :func:`~repro.core.operand.prepare_a` /
        :func:`~repro.core.operand.prepare_b`: a fast-mode
        :class:`~repro.core.operand.ResidueOperand` (the corresponding
        convert phase is skipped entirely — reported as 0 in
        :class:`PhaseTimes`) or an accurate-mode
        :class:`~repro.core.operand.AccurateOperand` (the per-side half of
        the scale phase is skipped; the coupled bound product and the
        conversion still run per partner).  Either way the result is
        bit-identical to the unprepared call.  The operand's mode must
        match ``config.mode``.
    config:
        :class:`~repro.config.Ozaki2Config`; defaults to DGEMM emulation
        with 15 moduli in fast mode.  ``config.parallelism`` fans the
        residue GEMMs out over worker threads and ``config.memory_budget_mb``
        tiles the output (both via :mod:`repro.runtime`); results are
        bit-identical for every setting.
    engine:
        INT8 matrix engine to use; defaults to a fresh
        :class:`~repro.engines.Int8MatrixEngine`.
    return_details:
        When True, return a :class:`GemmResult` instead of just the
        product matrix; its ledger holds the engine work of this call alone
        (the engine's counter is snapshotted on entry, which only this flag
        pays for).
    constant_table:
        Precomputed constant table (otherwise built/cached from the config).
    scheduler:
        Optional :class:`~repro.runtime.scheduler.Scheduler` to reuse (e.g.
        to keep one worker pool warm across many calls); by default one is
        created from ``config.parallelism`` and closed before returning.
        When given, it takes precedence over ``engine``.

    Returns
    -------
    ``C`` (ndarray) or :class:`GemmResult`.
    """
    # Imported lazily: repro.runtime imports this module.
    from ..runtime.plan import plan_for_config
    from ..runtime.scheduler import Scheduler, execute_plan

    config = config or Ozaki2Config()
    out_dtype = result_dtype(config.precision)
    own_scheduler = scheduler is None
    if not own_scheduler:
        engine = scheduler.engine
    elif engine is None:
        engine = Int8MatrixEngine()
    counter_before = engine.counter.copy() if return_details else None
    times = PhaseTimes()
    sides = _scaled_sides(a, b, config, constant_table, engine, times)
    config, table = sides.config, sides.table

    # The plan records the k-blocks (from MAX_K_WITHOUT_BLOCKING), the m/n
    # tiles and the call's route (executor="auto" picks threads or
    # processes by the INT8 work N·m·k·n), which both conversions and the
    # plan execution below follow.
    plan = plan_for_config(sides.m, sides.k, sides.n, config)
    scheduler = scheduler or Scheduler(
        parallelism=plan.parallelism,
        engine=engine,
        executor=config.executor,
        max_pool_rebuilds=config.max_pool_rebuilds,
    )
    a_slices = b_slices = None

    try:
        # Lines 2-5: A', B' and their residues, skipped for a side that
        # carries a fast-mode residue stack.  Conversion routes through the
        # scheduler, which bands large operands' rows across its workers
        # (bit-identical to one band in this thread).
        a_slices, b_slices = sides.a_slices, sides.b_slices
        if a_slices is None:
            with _PhaseTimer(times, "convert_A"):
                a_slices = scheduler.convert_residues(
                    sides.a_source, sides.mu_exp, "left", table, plan
                )
        else:
            times.add("convert_A", 0.0)
        if b_slices is None:
            with _PhaseTimer(times, "convert_B"):
                b_slices = scheduler.convert_residues(
                    sides.b_source, sides.nu_exp, "right", table, plan
                )
        else:
            times.add("convert_B", 0.0)

        # Lines 6-11: the N INT8 GEMMs (fanned out over the scheduler's
        # workers, blocked over k and tiled over m/n per the plan) and the
        # CRT reconstruction.  Fills the matmul/accumulate/reconstruct
        # phases of ``times``.  The residue stacks come from our own
        # conversion (or a prepared operand), so they are trusted: the
        # engine may skip its per-call validation sweeps.
        c_pp = execute_plan(
            scheduler, plan, a_slices, b_slices, table, times, trusted=True
        )
        # One emulated GEMM retired at this (possibly auto-selected) count.
        engine.counter.record_emulated(config.num_moduli)

        # Line 12: inverse scaling.
        with _PhaseTimer(times, "unscale"):
            c = unscale(c_pp, sides.mu_exp, sides.nu_exp, out_dtype=out_dtype)
    finally:
        if own_scheduler:
            scheduler.close()
        else:
            # Shared scheduler: free any shared-memory conversion outputs
            # now rather than at the owner's close (prepared-operand slices
            # are not scheduler-owned, so release is a no-op for them).
            scheduler.release(a_slices)
            scheduler.release(b_slices)

    if not return_details:
        return c
    return GemmResult(
        value=c,
        config=config,
        mu_exp=sides.mu_exp,
        nu_exp=sides.nu_exp,
        phase_times=times,
        ledger=engine.counter.difference(counter_before),
        num_k_blocks=plan.num_k_blocks,
        moduli_selection=sides.selection,
        moduli_history=[config.num_moduli],
    )


def emulated_dgemm(
    a: np.ndarray,
    b: np.ndarray,
    num_moduli: int = 15,
    mode: "ComputeMode | str" = ComputeMode.FAST,
    **kwargs: Any,
) -> "np.ndarray | GemmResult":
    """Emulated DGEMM (FP64 target) — the paper's ``OS II-<mode>-<N>``.

    Accepts the same extra keyword arguments as :func:`ozaki2_gemm`
    (``engine``, ``return_details``, ...).
    """
    config = Ozaki2Config.for_dgemm(num_moduli=num_moduli, mode=mode)
    return ozaki2_gemm(a, b, config=config, **kwargs)


def emulated_sgemm(
    a: np.ndarray,
    b: np.ndarray,
    num_moduli: int = 8,
    mode: "ComputeMode | str" = ComputeMode.FAST,
    **kwargs: Any,
) -> "np.ndarray | GemmResult":
    """Emulated SGEMM (FP32 target) — the paper's ``OS II-<mode>-<N>``."""
    config = Ozaki2Config.for_sgemm(num_moduli=num_moduli, mode=mode)
    return ozaki2_gemm(a, b, config=config, **kwargs)
