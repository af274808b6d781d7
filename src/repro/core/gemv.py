"""Dedicated residue-GEMV path: emulated ``A @ x`` without the GEMM machinery.

The iterative solvers of :mod:`repro.apps.solvers` apply the *same* prepared
system matrix to a new vector every iteration.  Routing that ``n = 1``
product through :func:`~repro.core.gemm.ozaki2_gemm` pays the full GEMM
machinery per call — an :class:`~repro.runtime.plan.ExecutionPlan`, a
:class:`~repro.runtime.scheduler.Scheduler`, modulus-chunk task lists, m/n
tiling — and, worse, the engine's SGEMM product promotes the whole
``(N, m, k)`` INT8 residue stack to float32 on every iteration (4x the
stack's memory traffic for a product that performs only ``N·m·k`` MACs).

:func:`prepared_gemv` is the ``n = 1`` specialisation that skips all of it:

* the vector converts in a single vector-shaped pass
  (:func:`repro.crt.residues.residues_to_int8` on the 1-D ``x'``),
* the ``N`` residue GEMVs issue as **one** stacked
  :meth:`~repro.engines.base.MatrixEngine.matvec_stack` engine call per
  k-block (the INT8 engine casts the stack to float32 in cache-sized row
  blocks and runs exact k-chunk SGEMVs on each, so the stack streams from
  memory once),
* no plan, no scheduler, no tiling: the transient workspace is one
  ``(N, m)`` stack.

The result is **bit-identical** to the ``n = 1`` GEMM route,
``ozaki2_gemm(a, x[:, None])``, for every configuration, and the op ledger
records exactly the same ``N`` residue products — the GEMV path is an
execution strategy, not a numerical change.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

import numpy as np

from ..config import ComputeMode, MAX_K_WITHOUT_BLOCKING, Ozaki2Config, ResidueKernel
from ..crt.constants import CRTConstantTable, build_constant_table
from ..engines.base import MatrixEngine, OpCounter
from ..engines.int8 import Int8MatrixEngine
from ..errors import ConfigurationError, OverflowRiskError, ValidationError
from ..result import PhaseTimes, Result, _PhaseTimer
from ..types import result_dtype
from ..utils.validation import check_operand
from .accumulation import accumulate_residue_products, reconstruct_crt, unscale
from .blocking import k_block_ranges
from .conversion import residue_slices, truncate_scaled
from .gemm import (
    _AUTO_TABLE_RESTRICTION,
    _check_prepared_a,
    _resolve_auto_moduli,
)
from .operand import AccurateOperand, PreparedOperand, ResidueOperand
from .scaling import (
    accurate_mode_prescale,
    accurate_scales_from_prescale,
    fast_mode_scale_a,
    fast_mode_scale_b,
)

__all__ = ["GemvResult", "prepared_gemv"]


@dataclasses.dataclass
class GemvResult(Result):
    """Full result of one emulated matrix–vector product.

    Attributes
    ----------
    value:
        The emulated product ``A @ x`` as a 1-D vector in the target
        precision's dtype (also reachable under the historical name
        :attr:`c`).
    config:
        The configuration used.
    mu / nu:
        The power-of-two scale vectors actually applied (``nu`` has length
        1 — the vector is the single column of the B side).
    phase_times:
        Wall-clock seconds per phase, under the same keys as
        :class:`~repro.result.PhaseTimes` so GEMV and GEMM breakdowns
        compare directly.
    ledger:
        Operation ledger of the INT8 engine — identical to what the
        ``n = 1`` GEMM route records for the same product (also reachable
        under the historical name :attr:`int8_counter`).
    moduli_selection:
        :class:`~repro.crt.adaptive.AdaptiveSelection` diagnostic for
        ``num_moduli="auto"`` runs; ``None`` for fixed counts.
    """

    mu: Optional[np.ndarray] = None
    nu: Optional[np.ndarray] = None
    moduli_selection: object = None

    @property
    def c(self) -> np.ndarray:
        """The emulated product (historical alias of :attr:`value`)."""
        return self.value

    @property
    def int8_counter(self) -> OpCounter:
        """The engine's op ledger (historical alias of :attr:`ledger`)."""
        return self.ledger


def _resolve_a_side(
    a: np.ndarray,
    a_prep: Optional[PreparedOperand],
    config: Ozaki2Config,
) -> Optional[np.ndarray]:
    """Validate the left operand (prepared or raw) exactly as the GEMM route."""
    if a_prep is not None:
        _check_prepared_a(a_prep, config)
        return None
    return check_operand(a, "A") if config.validate else np.asarray(a, dtype=np.float64)


def prepared_gemv(
    a: "np.ndarray | PreparedOperand",
    x: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    engine: Optional[MatrixEngine] = None,
    return_details: bool = False,
    constant_table: Optional[CRTConstantTable] = None,
) -> "np.ndarray | GemvResult":
    """Emulated matrix–vector product ``A @ x`` via the residue-GEMV path.

    Parameters
    ----------
    a:
        The matrix side: a precomputed operand from
        :func:`~repro.core.operand.prepare_a` — a fast-mode
        :class:`~repro.core.operand.ResidueOperand` (the convert-once
        solver pattern: the ``convert_A`` phase is skipped and reported as
        0) or an accurate-mode :class:`~repro.core.operand.AccurateOperand`
        (the per-side half of the scale phase is skipped; truncation and
        residues rerun per vector under the coupled scales) — or a raw
        ``(m, k)`` matrix converted on the spot.
    x:
        1-D vector of length ``k``.  Validation mirrors the GEMM route's
        treatment of the equivalent ``(k, 1)`` column bit for bit: empty
        vectors, non-finite entries and mismatched lengths raise the same
        precise :class:`~repro.errors.ValidationError`\\ s, and
        non-contiguous/strided input succeeds identically (it is copied
        contiguous, exactly as ``check_operand`` does for matrices).
    config:
        :class:`~repro.config.Ozaki2Config`; defaults to the prepared
        operand's configuration (or DGEMM emulation for raw ``a``).
        ``parallelism`` and ``memory_budget_mb`` are accepted but moot —
        the GEMV workspace is one ``(N, m)`` stack and a single stacked
        engine call beats any fan-out of it.  Results are bit-identical to
        the plan/scheduler GEMM route at every setting; the op ledgers are
        identical too whenever that route runs untiled (a ``memory_budget_mb``
        small enough to force m-tiling splits the comparator's products
        into per-tile engine calls, which the never-tiling GEMV path has no
        reason to mirror).
    engine:
        INT8 matrix engine; defaults to a fresh
        :class:`~repro.engines.int8.Int8MatrixEngine`.
    return_details:
        When True, return a :class:`GemvResult` instead of just the vector.
    constant_table:
        Precomputed constant table (otherwise built/cached from the config).

    Returns
    -------
    ``c`` (1-D ndarray in the target dtype) or :class:`GemvResult` —
    bit-identical to ``ozaki2_gemm(a, x[:, None], config).ravel()``.
    """
    a_prep = a if isinstance(a, PreparedOperand) else None
    config = config or (a_prep.config if a_prep is not None else Ozaki2Config())
    out_dtype = result_dtype(config.precision)
    engine = engine or Int8MatrixEngine()
    times = PhaseTimes()

    a_mat = _resolve_a_side(a, a_prep, config)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"prepared_gemv expects a 1-D vector, got shape {x.shape}")
    # Validate the vector exactly as the GEMM route validates the (k, 1)
    # column it would see — same messages, same contiguous copy for strided
    # input, same rejection of empty and non-finite vectors.
    if config.validate:
        x_col = check_operand(x[:, None], "B")
    else:
        x_col = np.ascontiguousarray(x)[:, None]

    m, k = a_prep.shape if a_prep is not None else a_mat.shape
    if k != x_col.shape[0]:
        shape_a = a_prep.shape if a_prep is not None else a_mat.shape
        raise ValidationError(
            f"inner dimensions do not match: A is {tuple(shape_a)}, "
            f"B is {tuple(x_col.shape)}"
        )
    if k > MAX_K_WITHOUT_BLOCKING and not config.block_k:
        raise OverflowRiskError(
            f"k={k} exceeds {MAX_K_WITHOUT_BLOCKING} and k-blocking is "
            "disabled in the config"
        )

    # Accuracy-driven moduli selection, exactly as the GEMM route resolves
    # it: concrete count, prepared side re-derived (cached), bit-identical
    # to the fixed-count run at the selected count.  A caller-supplied
    # table is rejected under auto, as on the GEMM route.
    selection = None
    if config.moduli_is_auto:
        if constant_table is not None:
            raise ConfigurationError(_AUTO_TABLE_RESTRICTION)
        config, a_prep, _, selection = _resolve_auto_moduli(
            a_mat, x_col, a_prep, None, k, config
        )
    table = constant_table or build_constant_table(
        config.num_moduli, 64 if config.is_dgemm else 32
    )

    # Line 1: scale vectors.  A fast prepared operand contributes its cached
    # μ; accurate mode finalises from the matrix side's pre-scale (cached on
    # an AccurateOperand, computed here otherwise) and the vector's, through
    # the coupled bound product — exactly the GEMM route's arithmetic.
    with _PhaseTimer(times, "scale"):
        if config.mode is ComputeMode.FAST:
            mu = a_prep.scale if a_prep is not None else fast_mode_scale_a(a_mat, table)
            nu = fast_mode_scale_b(x_col, table)
        else:
            pa = (
                a_prep.prescale
                if isinstance(a_prep, AccurateOperand)
                else accurate_mode_prescale(a_mat, axis=1)
            )
            pb = accurate_mode_prescale(x_col, axis=0)
            mu, nu, _ = accurate_scales_from_prescale(
                pa, pb, table, engine, MAX_K_WITHOUT_BLOCKING
            )

    # Lines 2 and 4: A' and its residues (skipped when A carries a fast-mode
    # residue stack; an accurate prepared operand converts from its retained
    # source under the partner-coupled scales).
    if isinstance(a_prep, ResidueOperand):
        a_slices = a_prep.slices
        times.add("convert_A", 0.0)
    else:
        a_conv_src = a_prep.source if a_prep is not None else a_mat
        with _PhaseTimer(times, "convert_A"):
            a_prime = truncate_scaled(a_conv_src, mu, side="left")
            a_slices = residue_slices(a_prime, table, config.residue_kernel)

    # Lines 3 and 5: x' and its residues, converted vector-shaped — the
    # kernels are element-wise, so the 1-D pass is bit-identical to
    # converting the (k, 1) column (see crt.residues.residues_to_int8).
    with _PhaseTimer(times, "convert_B"):
        x_prime = truncate_scaled(x_col, nu, side="right").ravel()
        x_slices = residue_slices(x_prime, table, config.residue_kernel)

    # Line 6: the N residue GEMVs — one stacked engine call per k-block, no
    # plan, no scheduler, no tiling.  Multiple k-blocks accumulate the exact
    # INT32 partials in INT64, exactly as the blocked GEMM route does.
    with _PhaseTimer(times, "matmul"):
        blocks = (
            list(k_block_ranges(k, MAX_K_WITHOUT_BLOCKING))
            if config.block_k
            else [(0, k)]
        )
        if len(blocks) == 1:
            c_stack = engine.matvec_stack(a_slices, x_slices, trusted=True)
        else:
            c_stack = np.zeros((table.num_moduli, m), dtype=np.int64)
            for start, stop in blocks:
                c_stack += engine.matvec_stack(
                    a_slices[:, :, start:stop], x_slices[:, start:stop], trusted=True
                ).astype(np.int64)

    # Lines 7-11: accumulation and CRT reconstruction, on the (N, m, 1)
    # view so every step matches the GEMM route bit for bit.
    use_mulhi = (
        config.residue_kernel is ResidueKernel.FAST_FMA and c_stack.dtype == np.int32
    )
    t1 = time.perf_counter()
    c1, c2 = accumulate_residue_products(c_stack[:, :, None], table, use_mulhi=use_mulhi)
    t2 = time.perf_counter()
    c_pp = reconstruct_crt(c1, c2, table)
    t3 = time.perf_counter()
    times.add("accumulate", t2 - t1)
    times.add("reconstruct", t3 - t2)

    # One emulated GEMV retired at this (possibly auto-selected) count.
    engine.counter.record_emulated(config.num_moduli)

    # Line 12: inverse scaling, then drop the dead column axis.
    with _PhaseTimer(times, "unscale"):
        c = unscale(c_pp, mu, nu, out_dtype=out_dtype)[:, 0]

    if not return_details:
        return c
    return GemvResult(
        value=c,
        config=config,
        mu=mu,
        nu=nu,
        phase_times=times,
        ledger=engine.counter,
        moduli_selection=selection,
        moduli_history=[config.num_moduli],
    )
