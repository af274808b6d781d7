"""Dedicated residue-GEMV path: emulated ``A @ x`` without the GEMM machinery.

The iterative solvers of :mod:`repro.apps.solvers` apply the *same* prepared
system matrix to a new vector every iteration.  Routing that ``n = 1``
product through :func:`~repro.core.gemm.ozaki2_gemm` pays the full GEMM
machinery per call — an :class:`~repro.runtime.plan.ExecutionPlan`, a
:class:`~repro.runtime.scheduler.Scheduler`, modulus-chunk task lists, m/n
tiling — and, worse, the engine's SGEMM product promotes the whole
``(N, m, k)`` INT8 residue stack to float32 on every iteration (4x the
stack's memory traffic for a product that performs only ``N·m·k`` MACs).

:func:`prepared_gemv` is the ``n = 1`` specialisation that skips all of it.
Lines 1–5 up to conversion (validation, moduli selection, scales) go
through the GEMM's own front end, :func:`repro.core.gemm._scaled_sides`,
with the vector as the ``(k, 1)`` column the GEMM route would see; what
this module adds is the execution strategy:

* the vector converts in a single vector-shaped pass
  (:func:`repro.crt.residues.residues_to_int8` on the 1-D ``x'``),
* the ``N`` residue GEMVs issue as **one** stacked
  :meth:`~repro.engines.base.MatrixEngine.matvec_stack` engine call per
  k-block (the INT8 engine casts the stack to float32 in cache-sized row
  blocks and runs exact k-chunk SGEMVs on each, so the stack streams from
  memory once),
* no plan, no scheduler, no tiling: the transient workspace is one
  ``(N, m)`` stack.

A prepared fast-mode A side that kept its truncated ``A'`` (see
:class:`~repro.core.operand.ResidueOperand`) skips even the stacked INT8
call on the BLAS engine: lines 7–12 consume only ``U_i = mod(C'_i, p_i)``
and ``C'_i ≡ A'x' (mod p_i)``, so line 6 becomes one exact FP64 DGEMM of
``A'`` against balanced digits of ``x'`` (Ozaki scheme I's splitting,
applied to the vector), reduced to an ``(N, m)`` stack congruent to the
``C'_i`` (:func:`_fp64_residue_products`).  The engine's ledger still
records the ``N`` residue GEMVs per k-block the emulation stands for.

The result is **bit-identical** to the ``n = 1`` GEMM route,
``ozaki2_gemm(a, x[:, None])``, for every configuration, and the op ledger
records exactly the same ``N`` residue products — the GEMV path is an
execution strategy, not a numerical change.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Optional, Tuple

import numpy as np

from ..config import Ozaki2Config
from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..errors import ValidationError
from ..result import PhaseTimes, Result, _PhaseTimer
from ..types import result_dtype
from . import gemm as _gemm
from .accumulation import accumulate_residue_products, reconstruct_crt, unscale
from .blocking import k_block_ranges
from .conversion import residue_slices, truncate_scaled
from .operand import FP64_ROUTE_MIN_DIGIT_BITS, PreparedOperand, fp64_digit_width
from .scaling import scale_exponent_budget
# Scaling runs in core.gemm._scaled_sides; these names stay importable here
# because perfbench's span tracer looks them up in this module.
from .scaling import accurate_mode_prescale, accurate_scales_from_prescale  # noqa: F401
from .scaling import fast_mode_scale_a, fast_mode_scale_b  # noqa: F401

__all__ = ["GemvResult", "prepared_gemv"]

#: ``T = hi·2^27 + lo`` splits each FP64 line-6 product (``|T| ≤ 2^53``)
#: into limbs of magnitude at most ``2^26``.
_T_LIMB_BITS = 27


def _centred(value: int, p: int) -> int:
    """``value mod p`` as the representative in ``(−p/2, p/2]``."""
    value %= p
    return value - p if 2 * value > p else value


@functools.lru_cache(maxsize=None)
def _fp64_route_constants(
    moduli: Tuple[int, ...], alpha: float, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Digit scales and limb weights of the FP64 line 6, per ``(table, w)``.

    ``L`` balanced ``w``-bit digits hold every ``|x'| ≤ 2^α`` once
    ``w·L ≥ α + 1``.  Returns the scales ``2^(−w·l)``, ``l < L``, and the
    ``(N, 2L)`` weights ``2^e mod p_i`` (centred, so ``|·| ≤ 128``) of the
    limbs ``lo_l`` (``e = w·l``) and ``hi_l`` (``e = w·l + 27``).
    """
    count = math.ceil((alpha + 1.0) / width)
    while width * count < alpha + 1.0:
        count += 1
    scales = np.ldexp(1.0, -width * np.arange(count))
    exps = [width * j for j in range(count)] + [width * j + _T_LIMB_BITS for j in range(count)]
    weights = np.array([[_centred(pow(2, e, p), p) for e in exps] for p in moduli], dtype=np.float64)
    scales.setflags(write=False)
    weights.setflags(write=False)
    return scales, weights


def _fp64_residue_products(
    a_prime: np.ndarray, x_prime: np.ndarray, table: CRTConstantTable, width: int
) -> np.ndarray:
    """Line 6 as one exact FP64 DGEMM: an ``(N, m)`` stack ``Y ≡ C'_i (mod p_i)``.

    ``x'`` splits into balanced digits ``x' = Σ_l 2^(w·l)·s_l`` with
    ``|s_l| ≤ 2^(w−1)``: ``q_l = rint(x'·2^(−w·l))``, ``s_l = q_l − 2^w·q_(l+1)``
    (the sum telescopes to ``q_0 = x'``, and ``q_L = 0`` because
    ``|x'| ≤ 2^α ≤ 2^(w·L−1)``), every step exact.  ``T = [s_l] @ A'ᵀ`` is
    exact in any summation order, blocking or FMA use: every partial sum is
    an integer of magnitude at most ``‖a'_i‖₁·2^(w−1) ≤ 2^53``
    (:func:`~repro.core.operand.fp64_digit_width`).  Each ``T_l`` splits
    exactly into limbs ``hi·2^27 + lo`` (``|hi|, |lo| ≤ 2^26``), and one
    small DGEMM of the centred weights ``2^e mod p_i`` against the limbs
    gives ``Y_i ≡ Σ_l 2^(w·l)·T_l = A'x' ≡ C'_i (mod p_i)``, exactly: each of
    its ``2L`` terms is at most ``2^33``.  So ``mod(Y_i, p_i)`` is line 7's
    ``U_i``, and every later bit is unchanged.
    """
    scales, weights = _fp64_route_constants(
        table.moduli, scale_exponent_budget(table, "fast"), width
    )
    count = scales.size
    digits = np.multiply.outer(scales, x_prime)
    np.rint(digits, out=digits)
    digits[:-1] -= np.ldexp(digits[1:], width)
    t = digits @ a_prime.T
    limbs = np.empty((2 * count, t.shape[1]))
    lo, hi = limbs[:count], limbs[count:]
    np.multiply(t, 2.0**-_T_LIMB_BITS, out=hi)
    np.rint(hi, out=hi)
    np.multiply(hi, 2.0**_T_LIMB_BITS, out=lo)
    np.subtract(t, lo, out=lo)
    return weights @ limbs


@dataclasses.dataclass
class GemvResult(Result):
    """Full result of one emulated matrix–vector product.

    Attributes
    ----------
    value:
        The emulated product ``A @ x`` as a 1-D vector in the target
        precision's dtype.
    config:
        The configuration used.
    mu_exp / nu_exp:
        Exponents (``np.intc``) of the power-of-two scale vectors actually
        applied (``nu_exp`` has length 1 — the vector is the single column
        of the B side).
    phase_times:
        Wall-clock seconds per phase, under the same keys as
        :class:`~repro.result.PhaseTimes` so GEMV and GEMM breakdowns
        compare directly.
    ledger:
        This call's operation ledger on the INT8 engine — identical to what
        the ``n = 1`` GEMM route records for the same product.
    moduli_selection:
        :class:`~repro.crt.adaptive.AdaptiveSelection` diagnostic for
        ``num_moduli="auto"`` runs; ``None`` for fixed counts.
    """

    mu_exp: Optional[np.ndarray] = None
    nu_exp: Optional[np.ndarray] = None
    moduli_selection: object = None


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
        When True, return a :class:`GemvResult` instead of just the vector;
        its ledger holds the engine work of this call alone (the engine's
        counter is snapshotted on entry, which only this flag pays for).
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
    counter_before = engine.counter.copy() if return_details else None
    times = PhaseTimes()

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError(f"prepared_gemv expects a 1-D vector, got shape {x.shape}")
    # Lines 1-5 up to conversion through the GEMM front end, with the vector
    # as the (k, 1) column the GEMM route would see: same validation, same
    # moduli selection, same scales.
    sides = _gemm._scaled_sides(a, x[:, None], config, constant_table, engine, times)
    config, table = sides.config, sides.table
    # Line 6's FP64 route: an A side that kept A' at this count, on the BLAS
    # INT8 engine (any other engine runs its own matvec_stack, the product it
    # models).
    width = fp64_digit_width(table, sides.k)
    fp64_line6 = (
        sides.a_prime is not None
        and width >= FP64_ROUTE_MIN_DIGIT_BITS
        and type(engine) is Int8MatrixEngine
        and engine.use_blas
    )

    # Lines 2 and 4: A' and its residues (skipped when A carries a fast-mode
    # residue stack; an accurate prepared operand converts from its retained
    # source under the partner-coupled scales).
    a_slices = sides.a_slices
    if a_slices is None:
        with _PhaseTimer(times, "convert_A"):
            a_prime = truncate_scaled(sides.a_source, sides.mu_exp, side="left")
            a_slices = residue_slices(a_prime, table)
    else:
        times.add("convert_A", 0.0)

    # Lines 3 and 5: x' and its residues, converted vector-shaped — the
    # kernels are element-wise, so the 1-D pass is bit-identical to
    # converting the (k, 1) column (see crt.residues.residues_to_int8).
    # The FP64 route needs x' only.
    with _PhaseTimer(times, "convert_B"):
        x_prime = truncate_scaled(sides.b_source, sides.nu_exp, side="right").ravel()
        x_slices = None if fp64_line6 else residue_slices(x_prime, table)

    # Line 6: the N residue GEMVs — one stacked engine call per k-block, no
    # plan, no scheduler, no tiling.  Multiple k-blocks accumulate the exact
    # INT32 partials in INT64, exactly as the blocked GEMM route does.  The
    # FP64 route computes a congruent stack from A' in one DGEMM and records
    # the same per-k-block GEMVs.
    with _PhaseTimer(times, "matmul"):
        blocks = list(k_block_ranges(sides.k, _gemm.MAX_K_WITHOUT_BLOCKING))
        if fp64_line6:
            c_stack = _fp64_residue_products(sides.a_prime, x_prime, table, width)
            for start, stop in blocks:
                engine.record_matvec_stack(table.num_moduli, sides.m, stop - start)
        elif len(blocks) == 1:
            c_stack = engine.matvec_stack(a_slices, x_slices, trusted=True)
        else:
            c_stack = np.zeros((table.num_moduli, sides.m), dtype=np.int64)
            for start, stop in blocks:
                c_stack += engine.matvec_stack(
                    a_slices[:, :, start:stop], x_slices[:, start:stop], trusted=True
                ).astype(np.int64)

    # Lines 7-11: accumulation and CRT reconstruction, on the (N, m, 1)
    # view so every step matches the GEMM route bit for bit.
    t1 = time.perf_counter()
    c1, c2 = accumulate_residue_products(c_stack[:, :, None], table)
    t2 = time.perf_counter()
    c_pp = reconstruct_crt(c1, c2, table)
    t3 = time.perf_counter()
    times.add("accumulate", t2 - t1)
    times.add("reconstruct", t3 - t2)

    # One emulated GEMV retired at this (possibly auto-selected) count.
    engine.counter.record_emulated(config.num_moduli)

    # Line 12: inverse scaling, then drop the dead column axis.
    with _PhaseTimer(times, "unscale"):
        c = unscale(c_pp, sides.mu_exp, sides.nu_exp, out_dtype=out_dtype)[:, 0]

    if not return_details:
        return c
    return GemvResult(
        value=c,
        config=config,
        mu_exp=sides.mu_exp,
        nu_exp=sides.nu_exp,
        phase_times=times,
        ledger=engine.counter.difference(counter_before),
        moduli_selection=sides.selection,
        moduli_history=[config.num_moduli],
    )
