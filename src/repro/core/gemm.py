"""Public emulated-GEMM API (Algorithm 1).

:func:`ozaki2_gemm` runs the full pipeline of Algorithm 1 on a pair of
matrices and returns either the result matrix or a
:class:`~repro.result.GemmResult` (historically ``Ozaki2Result``, kept as an
alias) with per-phase timings, operation counts and intermediate
diagnostics.  The convenience wrappers :func:`emulated_dgemm` /
:func:`emulated_sgemm` choose sensible defaults for FP64 / FP32 targets.

The result and phase-time classes live in :mod:`repro.result` (the unified
result hierarchy shared with the GEMV and solver routes) and are re-exported
here for backwards compatibility; see that module for the phase-key table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from ..config import ComputeMode, MAX_K_WITHOUT_BLOCKING, Ozaki2Config
from ..crt.adaptive import AdaptiveSelection, select_num_moduli
from ..crt.constants import CRTConstantTable, build_constant_table
from ..engines.base import MatrixEngine
from ..result import GemmResult, Ozaki2Result, PHASE_KEYS, PhaseTimes, _PhaseTimer
from ..types import result_dtype
from ..utils.validation import check_gemm_operands, check_operand
from ..errors import ConfigurationError, ValidationError

if TYPE_CHECKING:  # runtime imports core; keep the scheduler type import one-way
    from ..runtime.scheduler import Scheduler
from .accumulation import unscale
from .operand import AccurateOperand, PreparedOperand, ResidueOperand
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
    "Ozaki2Result",
    "ozaki2_gemm",
    "emulated_dgemm",
    "emulated_sgemm",
]

#: Why num_moduli="auto" rejects a caller-supplied constant table.
_AUTO_TABLE_RESTRICTION = (
    "num_moduli='auto' selects the count (and with it the moduli prefix) "
    "per call from the default table, so a caller-supplied constant_table "
    "cannot be honoured; pass a fixed num_moduli to use a custom table"
)


def _operand_max_abs(raw: np.ndarray, prep: Optional[PreparedOperand]) -> float:
    """``max|X|`` of one GEMM side, prepared or raw.

    Prepared operands carry the value from their preparation's scaling scan
    (free); raw sides pay one ``max(|X|)`` pass — the same scan the scaling
    phase performs, a negligible fraction of the conversion it feeds.
    """
    if prep is not None:
        if prep.max_abs is None:
            raise ValidationError(
                "auto moduli selection needs the operand's max-abs, but this "
                "hand-constructed ResidueOperand carries no cached prescale "
                "bounds; prepare it with repro.core.operand.prepare_a/"
                "prepare_b or pass a fixed num_moduli"
            )
        return prep.max_abs
    return float(np.max(np.abs(raw))) if raw.size else 0.0


def _resolve_auto_moduli(
    a: np.ndarray,
    b: np.ndarray,
    a_prep: Optional[PreparedOperand],
    b_prep: Optional[PreparedOperand],
    k: int,
    config: Ozaki2Config,
) -> "tuple[Ozaki2Config, Optional[PreparedOperand], Optional[PreparedOperand], AdaptiveSelection]":
    """Resolve ``num_moduli="auto"`` for one call.

    Returns ``(config, a_prep, b_prep, selection)``: a concrete
    configuration at the selected count, prepared sides re-derived at that
    count (:meth:`~repro.core.operand.ResidueOperand.resolve_for`, cached),
    and the :class:`~repro.crt.adaptive.AdaptiveSelection` diagnostic.  The
    resolved call is bit-identical to a fixed-``num_moduli`` call at the
    selected count — auto selection chooses the configuration, never the
    arithmetic.  ``config.selection_model`` picks between the rigorous
    bound and the calibrated model (which falls back to rigorous whenever
    its margin test fails; see :mod:`repro.crt.calibration`).
    """
    selection = select_num_moduli(
        k,
        _operand_max_abs(a, a_prep),
        _operand_max_abs(b, b_prep),
        64 if config.is_dgemm else 32,
        target=config.target_accuracy,
        mode=config.mode.value,
        model=config.selection_model,
    )
    config = config.resolved(selection.num_moduli)
    if a_prep is not None:
        a_prep = a_prep.resolve_for(config.num_moduli)
    if b_prep is not None:
        b_prep = b_prep.resolve_for(config.num_moduli)
    return config, a_prep, b_prep, selection


def _check_prepared_a(a_prep: PreparedOperand, config: Ozaki2Config) -> None:
    """Validate a prepared operand passed as the left operand.

    Shared by the GEMM route and the residue-GEMV fast path
    (:mod:`repro.core.gemv`), whose contract is exact error parity with
    this route — one helper keeps the invariant structural.
    """
    if a_prep.side != "A":
        raise ValidationError(
            "an operand prepared for the B side (per-column scales) "
            "was passed as the left operand; use prepare_a for A"
        )
    a_prep.require_compatible(config)


def _resolve_prepared_sides(
    a: np.ndarray,
    b: np.ndarray,
    a_prep: Optional[PreparedOperand],
    b_prep: Optional[PreparedOperand],
    config: Ozaki2Config,
) -> "tuple[np.ndarray, np.ndarray]":
    """Validate a GEMM call in which at least one side is prepared.

    Checks side orientation and configuration compatibility of the prepared
    side(s), applies the usual per-operand validation to the raw side (if
    any) and verifies the inner dimensions match.  Returns the coerced
    ``(a, b)`` pair (prepared entries are passed through unchanged).
    """
    if a_prep is not None:
        _check_prepared_a(a_prep, config)
    if b_prep is not None:
        if b_prep.side != "B":
            raise ValidationError(
                "an operand prepared for the A side (per-row scales) "
                "was passed as the right operand; use prepare_b for B"
            )
        b_prep.require_compatible(config)

    if a_prep is None:
        a = check_operand(a, "A") if config.validate else np.asarray(a, dtype=np.float64)
    if b_prep is None:
        b = check_operand(b, "B") if config.validate else np.asarray(b, dtype=np.float64)

    k_a = a_prep.inner_dim if a_prep is not None else a.shape[1]
    k_b = b_prep.inner_dim if b_prep is not None else b.shape[0]
    if k_a != k_b:
        shape_a = a_prep.shape if a_prep is not None else a.shape
        shape_b = b_prep.shape if b_prep is not None else b.shape
        raise ValidationError(
            f"inner dimensions do not match: A is {tuple(shape_a)}, "
            f"B is {tuple(shape_b)}"
        )
    return a, b


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
        When True, return an :class:`Ozaki2Result` instead of just the
        product matrix.
    constant_table:
        Precomputed constant table (otherwise built/cached from the config).
    scheduler:
        Optional :class:`~repro.runtime.scheduler.Scheduler` to reuse (e.g.
        to keep one worker pool warm across many calls); by default one is
        created from ``config.parallelism`` and closed before returning.
        When given, it takes precedence over ``engine``.

    Returns
    -------
    ``C`` (ndarray) or :class:`Ozaki2Result`.
    """
    # Imported lazily: repro.runtime imports this module for Ozaki2Result.
    from ..runtime.plan import plan_for_config
    from ..runtime.scheduler import Scheduler, execute_plan

    config = config or Ozaki2Config()
    out_dtype = result_dtype(config.precision)

    a_prep = a if isinstance(a, PreparedOperand) else None
    b_prep = b if isinstance(b, PreparedOperand) else None
    if a_prep is None and b_prep is None:
        if config.validate:
            a, b = check_gemm_operands(a, b, dtype=np.float64)
        else:
            a = np.asarray(a, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
    else:
        a, b = _resolve_prepared_sides(a, b, a_prep, b_prep, config)

    m, k = a_prep.shape if a_prep is not None else a.shape
    n = (b_prep.shape if b_prep is not None else b.shape)[1]

    # Accuracy-driven moduli selection: resolve "auto" to a concrete count
    # (and re-derive prepared sides at it) before any table or plan exists.
    # A caller-supplied table cannot be honoured under auto — the selection
    # model is defined for the default moduli prefix — so it is rejected
    # rather than silently replaced.
    selection = None
    if config.moduli_is_auto:
        if constant_table is not None:
            raise ConfigurationError(_AUTO_TABLE_RESTRICTION)
        config, a_prep, b_prep, selection = _resolve_auto_moduli(
            a, b, a_prep, b_prep, k, config
        )
    table = constant_table or build_constant_table(
        config.num_moduli, 64 if config.is_dgemm else 32
    )

    # Raises OverflowRiskError when k > 2**17 with blocking disabled; the
    # number of k-blocks reported below comes from the ranges actually used.
    # The threshold is read from this module's global so tests can shrink it.
    # The plan also records the call's route (executor="auto" picks threads
    # or processes by the INT8 work N·m·k·n), which both conversions and
    # the plan execution below follow.
    plan = plan_for_config(m, k, n, config, max_block_k=MAX_K_WITHOUT_BLOCKING)

    own_scheduler = scheduler is None
    scheduler = scheduler or Scheduler(
        parallelism=plan.parallelism,
        engine=engine,
        executor=config.executor,
        max_pool_rebuilds=config.max_pool_rebuilds,
    )
    engine = scheduler.engine
    times = PhaseTimes()
    a_slices = b_slices = None

    try:
        # Line 1: scale vectors.  Fast mode derives each side's scales from
        # that side alone, so a prepared operand simply contributes its
        # cached vector; accurate mode finalises from the two sides'
        # pre-scales (cached on AccurateOperands, computed here otherwise)
        # through the coupled bound product.
        with _PhaseTimer(times, "scale"):
            if config.mode is ComputeMode.FAST:
                mu = a_prep.scale if a_prep is not None else fast_mode_scale_a(a, table)
                nu = b_prep.scale if b_prep is not None else fast_mode_scale_b(b, table)
            else:
                pa = (
                    a_prep.prescale
                    if isinstance(a_prep, AccurateOperand)
                    else accurate_mode_prescale(a, axis=1)
                )
                pb = (
                    b_prep.prescale
                    if isinstance(b_prep, AccurateOperand)
                    else accurate_mode_prescale(b, axis=0)
                )
                mu, nu, _ = accurate_scales_from_prescale(
                    pa, pb, table, engine, MAX_K_WITHOUT_BLOCKING
                )

        # Lines 2 and 4: A' and its residues (skipped when A carries a
        # fast-mode residue stack; an accurate prepared operand converts
        # from its retained source — the scales are partner-coupled).
        # Conversion routes through the scheduler so a process-routed call
        # can band the rows across workers (bit-identical to the inline
        # path, which serial/thread-routed calls run unchanged).
        if isinstance(a_prep, ResidueOperand):
            a_slices = a_prep.slices
            times.add("convert_A", 0.0)
        else:
            a_src = a_prep.source if a_prep is not None else a
            with _PhaseTimer(times, "convert_A"):
                a_slices = scheduler.convert_residues(
                    a_src, mu, "left", table, config, plan
                )

        # Lines 3 and 5: B' and its residues (skipped when B is prepared).
        if isinstance(b_prep, ResidueOperand):
            b_slices = b_prep.slices
            times.add("convert_B", 0.0)
        else:
            b_src = b_prep.source if b_prep is not None else b
            with _PhaseTimer(times, "convert_B"):
                b_slices = scheduler.convert_residues(
                    b_src, nu, "right", table, config, plan
                )

        # Lines 6-11: the N INT8 GEMMs (fanned out over the scheduler's
        # workers, blocked over k and tiled over m/n per the plan) and the
        # CRT reconstruction.  Fills the matmul/accumulate/reconstruct
        # phases of ``times``.  The residue stacks come from our own
        # conversion (or a prepared operand), so they are trusted: the
        # engine may skip its per-call validation sweeps.
        c_pp = execute_plan(
            scheduler, plan, a_slices, b_slices, table, config, times, trusted=True
        )
        # One emulated GEMM retired at this (possibly auto-selected) count.
        engine.counter.record_emulated(config.num_moduli)

        # Line 12: inverse scaling.
        with _PhaseTimer(times, "unscale"):
            c = unscale(c_pp, mu, nu, out_dtype=out_dtype)
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
        mu=mu,
        nu=nu,
        phase_times=times,
        ledger=engine.counter,
        num_k_blocks=plan.num_k_blocks,
        moduli_selection=selection,
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
