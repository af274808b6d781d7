"""Iterative solvers whose inner products reuse a prepared system matrix.

Iterative methods apply the *same* system matrix ``A`` every iteration —
the textbook convert-once/multiply-many workload for Ozaki scheme II.  Each
solver here prepares ``A`` exactly once (:func:`repro.core.operand.prepare_a`:
scales, truncation and INT8 residues) and then drives every matrix–vector
product of the iteration through the emulated GEMM with the prepared
operand, skipping the dominant ``convert_A`` phase on every call.  The
emulated products are bit-identical to unprepared calls, so the solvers'
numerics are exactly those of a loop over :func:`~repro.core.gemm.ozaki2_gemm`.

Each matrix–vector product takes the dedicated residue-GEMV path
(:func:`repro.core.gemv.prepared_gemv`) — one stacked engine GEMV on the
cached residues, bypassing the GEMM plan/scheduler machinery entirely, and
bit-identical to the ``n = 1`` GEMM route (see :func:`prepared_matvec`).

Four solvers are provided:

* :func:`jacobi_solve` — for strictly diagonally dominant systems
  (e.g. :func:`repro.workloads.diagonally_dominant_matrix`); a ``precond``
  upgrades the sweep to preconditioned Richardson,
* :func:`cg_solve` — conjugate gradients for symmetric positive-definite
  systems (e.g. :func:`repro.workloads.spd_matrix`),
* :func:`pcg_solve` — preconditioned CG whose ``M ≈ A`` is factored once
  (:mod:`repro.apps.preconditioners`: ILU(0), SSOR), cutting the iteration
  count — and with it the number of emulated products — on
  ill-conditioned systems,
* :func:`iterative_refinement_solve` — LU once (optionally with emulated
  trailing updates, see :mod:`repro.apps.lu`), then refinement steps whose
  residuals ``r = b − A·x`` run through the prepared emulated GEMM.

Each solve runs its products on one
:class:`~repro.engines.int8.Int8MatrixEngine`, whose op ledger counts every
iteration's residue GEMVs.  The GEMV kernel is a single engine call, so
``config.parallelism`` and ``config.executor`` play no part in a solve;
only ``emulated_factorization``'s trailing updates run GEMMs through them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

import numpy as np

from ..config import Ozaki2Config
from ..core.gemv import prepared_gemv
from ..core.operand import PreparedOperand, prepare_a
from ..crt.adaptive import select_num_moduli
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..errors import ValidationError
from ..result import Result
from ..utils.validation import ensure_2d
from .preconditioners import Preconditioner, make_preconditioner

__all__ = [
    "SolveResult",
    "moduli_schedule_segments",
    "prepared_matvec",
    "jacobi_solve",
    "cg_solve",
    "pcg_solve",
    "iterative_refinement_solve",
]


def moduli_schedule_segments(moduli_history: List[int]) -> List[tuple]:
    """Run-length encode a moduli history into ``(count, iterations)`` pairs.

    ``[6, 6, 12, 15, 15]`` becomes ``[(6, 2), (12, 1), (15, 2)]`` — the
    form the CLI and the progressive-solver sweep render schedules in.
    """
    segments: List[list] = []
    for count in moduli_history:
        if segments and segments[-1][0] == count:
            segments[-1][1] += 1
        else:
            segments.append([count, 1])
    return [tuple(segment) for segment in segments]


class _ModuliLadder:
    """Escalation schedule of a progressive-precision solve.

    Early iterations of an iterative solver cannot profit from a matvec
    whose error sits ten orders below the current residual — the adaptive
    error model (:mod:`repro.crt.adaptive`) says how many moduli suffice to
    keep the matvec's error safely below the residual, and that is all a
    contraction needs.  The ladder maps the current relative residual to a
    moduli count, never descends, escalates in strides of at least
    :data:`_ESCALATION_STRIDE` (each stage re-derives the prepared operand
    once — cached on it — so fewer, larger jumps amortise better), and
    pins the endgame to the full count: once the residual is within a
    decade of the tolerance every iteration runs at ``n_full``, so a
    converged answer has passed exactly the fixed-count residual check.

    Two deliberately-heuristic ingredients (the *correctness* of a
    progressive solve never rests on them — only its speed — because
    convergence is declared solely from a full-count residual):

    * the stage rule stays on a count while the stage's guaranteed
      relative bound remains within :data:`_BOUND_SLACK_CREDIT` of the
      residual — the bound's documented two-to-four-order conservatism
      means the true matvec error then sits far below the residual;
    * a stall guard (:meth:`stalled`) escalates anyway whenever a window
      of iterations stops making progress — the backstop for matrices on
      which that slack did not materialise.

    The selection is intentionally fed unit magnitudes: the model's
    relative bound is magnitude-invariant, so the ladder depends only on
    ``(k, precision, mode)`` and the residual.
    """

    def __init__(self, inner_dim: int, config: Ozaki2Config, tol: float) -> None:
        self.k = int(inner_dim)
        self.n_full = int(config.num_moduli)
        self.bits = 64 if config.is_dgemm else 32
        self.mode = config.mode.value
        self.model = config.selection_model
        self.tol = float(tol)
        self._window: List[float] = []

    def moduli_for(self, rel_residual: float, current: int) -> int:
        """Moduli count for the next iteration given the residual now."""
        if not np.isfinite(rel_residual) or rel_residual <= 10.0 * self.tol:
            return self.n_full
        target = min(_BOUND_SLACK_CREDIT * rel_residual, 0.099)
        want = select_num_moduli(
            self.k, 1.0, 1.0, self.bits, target=target, mode=self.mode,
            model=self.model,
        ).num_moduli
        want = min(self.n_full, want)
        if want <= current:
            return current
        return min(self.n_full, max(want, current + _ESCALATION_STRIDE))

    def next_stride(self, current: int) -> int:
        """One forced escalation step (the stall guard's move)."""
        return min(self.n_full, current + _ESCALATION_STRIDE)

    def advance(self, rel_residual: float, current: int) -> int:
        """Count for the next iteration: the stage rule plus the stall guard.

        Covers the ordinary escalation (the residual shrank past the
        current stage), a low-count residual meeting the tolerance (the
        stage rule then pins the full count for the verification pass),
        and the stall guard (no progress at this stage's error floor).
        Resets the progress window whenever an escalation is due, so the
        caller only has to swap operands when the result exceeds
        ``current``.
        """
        want = self.moduli_for(rel_residual, current)
        if want == current and current < self.n_full and self.stalled(rel_residual):
            want = self.next_stride(current)
        if want > current:
            self.reset_window()
        return want

    def stalled(self, rel_residual: float) -> bool:
        """True when the recent iterations stopped making progress.

        CG residuals oscillate, so single samples cannot be compared; the
        guard instead compares the *best* residual of the newest half of a
        sliding window against the best of the oldest half, and reports a
        stall only when the improvement is under 10%.  A full window must
        accumulate first, which doubles as a grace period after every
        escalation/restart (escalations clear the window).
        """
        self._window.append(float(rel_residual))
        if len(self._window) < _STALL_WINDOW:
            return False
        if len(self._window) > _STALL_WINDOW:
            self._window.pop(0)
        half = _STALL_WINDOW // 2
        return min(self._window[half:]) > 0.9 * min(self._window[:half])

    def reset_window(self) -> None:
        """Forget the progress window (call after every escalation)."""
        self._window.clear()

    def initial(self) -> int:
        """Starting count (the ladder entry for an unconverged residual)."""
        return self.moduli_for(1.0, 0)


#: Minimum escalation jump of the progressive ladder (see _ModuliLadder).
#: Tuned on the adaptive-moduli benchmark: smaller strides add operand
#: re-derivations and CG restarts that cost more than their finer-grained
#: stages save.
_ESCALATION_STRIDE = 6

#: Stage rule: stay on a count while its *guaranteed* relative bound is
#: below ``credit x residual``.  1.0 keeps the guarantee exactly at the
#: residual; the bound's measured two-to-four-order conservatism means the
#: true matvec error then sits far below it, and the stall guard covers
#: the exceptions.  (Values well above 1 over-stay stages on
#: ill-conditioned systems; values below 1 escalate before the cheap
#: stages have paid for their derivation.)
_BOUND_SLACK_CREDIT = 1.0

#: Sliding-window length of the stall guard (compared in halves; also the
#: post-escalation grace period, since escalations clear the window).
_STALL_WINDOW = 20


@dataclasses.dataclass
class SolveResult(Result):
    """Outcome of one iterative solve.

    Attributes
    ----------
    value:
        The computed solution vector.
    converged:
        Whether the stopping tolerance was met within ``max_iter``.
    iterations:
        Number of iterations actually performed.
    residual_norm:
        Final relative residual ``‖b − A·x‖₂ / ‖b‖₂``.
    residual_history:
        Relative residual after every iteration (length ``iterations``).
    method:
        Solver label, e.g. ``"jacobi(OS II-fast-15)"`` or
        ``"pcg+ilu0(OS II-fast-15)"``.
    prepare_seconds:
        One-time cost of preparing the system matrix (the amortised phase).
    seconds:
        Total wall-clock of the solve, including preparation.
    precond:
        Preconditioner kind actually applied (``"none"`` when the solver
        ran unpreconditioned).
    precond_seconds:
        One-time cost of factoring the preconditioner (0 for ``"none"``) —
        amortised over the iterations exactly like ``prepare_seconds``.
    moduli_history:
        Moduli count each iteration's emulated products ran with (aligned
        with ``residual_history``).  Constant for plain solves; a
        non-descending ladder ending at the full count for progressive
        solves (``progressive=True``) — convergence is only ever declared
        from a full-count residual check.
    """

    converged: bool = False
    iterations: int = 0
    residual_norm: float = float("nan")
    residual_history: List[float] = dataclasses.field(default_factory=list)
    method: str = ""
    prepare_seconds: float = 0.0
    seconds: float = 0.0
    precond: str = "none"
    precond_seconds: float = 0.0


def prepared_matvec(
    operand: PreparedOperand,
    v: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    engine: Optional[MatrixEngine] = None,
) -> np.ndarray:
    """Emulated ``A @ v`` through a prepared left operand.

    The product takes the dedicated residue-GEMV kernel
    (:func:`repro.core.gemv.prepared_gemv`): one stacked engine GEMV on the
    cached residues, no plan/scheduler machinery, bit-identical to the
    ``n = 1`` GEMM route ``ozaki2_gemm(operand, v[:, None])``.  A given
    ``engine`` runs it, so the product lands on that engine's op ledger.
    """
    config = config or operand.config
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValidationError(f"matvec expects a 1-D vector, got shape {v.shape}")
    product = prepared_gemv(operand, v, config=config, engine=engine)
    return np.asarray(product, dtype=np.float64).ravel()


def _check_system(a: np.ndarray, b: np.ndarray) -> tuple:
    a = ensure_2d(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"iterative solvers need a square matrix, got {a.shape}")
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.shape[0] != a.shape[0]:
        raise ValidationError(
            f"right-hand side has {b.shape[0]} entries for a {a.shape[0]}-row matrix"
        )
    return np.asarray(a, dtype=np.float64), b


def _solver_config(config: Optional[Ozaki2Config]) -> Ozaki2Config:
    return config or Ozaki2Config.for_dgemm()


def _check_max_iter(max_iter: int) -> int:
    """At least one iteration, so the reported residual is always measured."""
    max_iter = int(max_iter)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    return max_iter


def _adopt_prepared(
    a: np.ndarray, config: Ozaki2Config, prepared: PreparedOperand
) -> tuple:
    """Validate a caller-supplied prepared system matrix and adopt it.

    Callers that already hold ``A``'s prepared operand (fast-mode
    :class:`~repro.core.operand.ResidueOperand` or accurate-mode
    :class:`~repro.core.operand.AccurateOperand`) — the
    :class:`~repro.session.Session` facade's transparent operand cache, or a
    user reusing one system matrix across many right-hand sides — pass it as
    ``prepared=`` and the solver skips its own :func:`prepare_a` (the
    one-time conversion was paid elsewhere, so ``prepare_seconds`` reports
    0).  The operand must be an A-side preparation of this very system
    matrix; a fixed-count ``config`` at another moduli count re-derives the
    operand (``resolve_for``, cached, bit-identical to a fresh
    preparation).  Returns ``(operand, concrete_config)``.
    """
    if prepared.side != "A":
        raise ValidationError(
            "the prepared system matrix must be an A-side operand "
            "(per-row scales); use prepare_a / Session.prepare(side='A')"
        )
    if tuple(prepared.shape) != tuple(a.shape):
        raise ValidationError(
            f"prepared operand shape {tuple(prepared.shape)} does not match "
            f"the system matrix {tuple(a.shape)}"
        )
    if config.moduli_is_auto:
        prepared.require_compatible(config)
        return prepared, prepared.config
    # Mode/precision/kernel must match outright; the count may differ and is
    # reachable through the operand's cached re-derivation.
    prepared.require_compatible(config.replace(num_moduli="auto", target_accuracy=None))
    return prepared.resolve_for(config.num_moduli), config


def jacobi_solve(
    a: np.ndarray,
    b: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    precond: "str | Preconditioner | None" = None,
    omega: float = 1.0,
    progressive: bool = False,
    prepared: Optional[PreparedOperand] = None,
) -> SolveResult:
    """Jacobi iteration ``x ← x + D⁻¹(b − A·x)`` with emulated residuals.

    Converges for strictly diagonally dominant ``A``.  The system matrix is
    prepared once; every iteration's ``A·x`` reuses the cached residues.

    ``precond`` upgrades the sweep to the preconditioned Richardson
    iteration ``x ← x + M⁻¹(b − A·x)``: classic Jacobi *is* this sweep with
    ``M = diag(A)``, and passing ``"ilu0"``/``"ssor"`` (or a factored
    :class:`~repro.apps.preconditioners.Preconditioner`) swaps in the
    stronger factored-once ``M``, widening the convergent class well beyond
    diagonal dominance.  ``None`` (default) keeps the classic diagonal
    sweep bit-for-bit.

    ``progressive`` runs the sweep at a reduced moduli count while the
    residual is large and escalates along the adaptive ladder
    (:class:`_ModuliLadder`); the stationary iteration tolerates the
    larger early matvec error, and convergence is only declared from a
    full-count residual check, so a converged answer passed exactly the
    plain solve's criterion.
    """
    config = _solver_config(config)
    a, b = _check_system(a, b)
    # Progressive sweeps spend iterations on ladder stages and full-count
    # verification passes, so their default budget carries 50% slack
    # (matching pcg_solve's 3n-instead-of-2n default).
    if max_iter is None:
        max_iter = 300 if progressive else 200
    else:
        max_iter = _check_max_iter(max_iter)
    # Both one-time costs count towards the reported total wall clock, so
    # the timer starts before the preconditioner is factored.
    start = time.perf_counter()
    m_inv: Optional[Preconditioner] = None
    precond_seconds = 0.0
    kind = "none"
    if precond is not None:
        candidate = make_preconditioner(a, precond, omega=omega)
        if candidate.kind != "none":
            m_inv, kind = candidate, candidate.kind
            precond_seconds = candidate.factor_seconds
    if m_inv is None:
        diag = np.diag(a).copy()
        if np.any(diag == 0.0):
            raise ValidationError("Jacobi requires a zero-free diagonal")
    label = "jacobi" if m_inv is None else f"jacobi+{kind}"

    if prepared is not None:
        prep, config = _adopt_prepared(a, config, prepared)
        prepare_seconds = 0.0
    else:
        prep_start = time.perf_counter()
        prep = prepare_a(a, config=config)
        config = prep.config  # concrete under num_moduli="auto"
        prepare_seconds = time.perf_counter() - prep_start

    n_full = config.num_moduli
    ladder = _ModuliLadder(a.shape[1], config, tol) if progressive else None
    cur_n = ladder.initial() if ladder is not None else n_full
    prep_cur = prep.resolve_for(cur_n)
    cfg_cur = config.resolved(cur_n)
    if progressive:
        label += "-prog"

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    b_norm = float(np.linalg.norm(b)) or 1.0
    history: List[float] = []
    moduli: List[int] = []
    converged = False
    engine = Int8MatrixEngine()
    for _ in range(max_iter):
        residual = b - prepared_matvec(prep_cur, x, cfg_cur, engine)
        rel = float(np.linalg.norm(residual)) / b_norm
        history.append(rel)
        moduli.append(cur_n)
        if rel <= tol:
            if cur_n == n_full:
                converged = True
                break
            # A low-count residual met the tolerance: re-verify at the
            # full count before claiming convergence (no sweep applied
            # — x may already be converged).
            cur_n = n_full
            prep_cur, cfg_cur = prep.resolve_for(cur_n), config.resolved(cur_n)
            continue
        if ladder is not None:
            want = ladder.advance(rel, cur_n)
            if want > cur_n:
                # Escalate for the *next* sweep; the residual in hand is
                # still a valid stationary-iteration correction.
                cur_n = want
                prep_cur, cfg_cur = prep.resolve_for(cur_n), config.resolved(cur_n)
        if m_inv is None:
            x = x + residual / diag
        else:
            x = x + m_inv.apply(residual)
    return SolveResult(
        value=x,
        config=config,
        converged=converged,
        iterations=len(history),
        residual_norm=history[-1] if history else float("nan"),
        residual_history=history,
        method=f"{label}({config.method_name})",
        prepare_seconds=prepare_seconds,
        seconds=time.perf_counter() - start,
        precond=kind,
        precond_seconds=precond_seconds,
        moduli_history=moduli,
    )


def cg_solve(
    a: np.ndarray,
    b: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    precond: "str | Preconditioner | None" = None,
    omega: float = 1.0,
    progressive: bool = False,
    prepared: Optional[PreparedOperand] = None,
) -> SolveResult:
    """Conjugate gradients for SPD ``A`` with emulated ``A·p`` products.

    One matrix–vector product per iteration, all through the prepared
    operand.  ``max_iter`` defaults to ``2n`` (CG reaches the exact solution
    in at most ``n`` exact-arithmetic steps; the slack absorbs rounding).
    This is :func:`pcg_solve` with the identity preconditioner — the
    preconditioned iteration with ``M = I`` performs bit-for-bit the plain
    CG recurrence — and passing ``precond`` upgrades it to preconditioned
    CG outright (reported under the ``pcg+<kind>`` label).
    ``progressive`` enables the moduli-escalation ladder (see
    :func:`pcg_solve`).
    """
    # Decide from the preconditioner *kind*, so a factored
    # IdentityPreconditioner instance labels the run "cg" exactly like
    # precond=None / "none" does.
    if precond is None:
        unpreconditioned = True
    elif isinstance(precond, Preconditioner):
        unpreconditioned = precond.kind == "none"
    else:
        unpreconditioned = str(precond).strip().lower() in ("none", "")
    return pcg_solve(
        a,
        b,
        config=config,
        tol=tol,
        max_iter=max_iter,
        x0=x0,
        precond="none" if unpreconditioned else precond,
        omega=omega,
        progressive=progressive,
        prepared=prepared,
        _method_label="cg" if unpreconditioned else None,
    )


def pcg_solve(
    a: np.ndarray,
    b: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
    precond: "str | Preconditioner" = "ilu0",
    omega: float = 1.0,
    progressive: bool = False,
    prepared: Optional[PreparedOperand] = None,
    _method_label: Optional[str] = None,
) -> SolveResult:
    """Preconditioned conjugate gradients with emulated ``A·p`` products.

    Both one-time costs follow the convert-once pattern: the system matrix
    is prepared for the emulated GEMV (:func:`~repro.core.operand.
    prepare_a`) and the preconditioner ``M ≈ A`` is factored
    (:func:`~repro.apps.preconditioners.make_preconditioner`) before the
    first iteration; every step then costs one emulated matrix–vector
    product plus the O(n²) preconditioner application ``z = M⁻¹ r``.  On
    ill-conditioned SPD systems the preconditioned iteration converges in
    strictly fewer steps than plain CG — fewer emulated products, which is
    the whole budget of the solve.

    ``precond`` is a kind from :data:`~repro.apps.preconditioners.
    PRECONDITIONER_KINDS` (``"none"``, ``"ilu0"``, ``"ssor"``) or an
    already-factored :class:`~repro.apps.preconditioners.Preconditioner`
    to reuse across solves; ``omega`` is the SSOR relaxation factor.

    ``progressive`` iterates at a reduced moduli count while the residual
    is large and escalates along the adaptive ladder
    (:class:`_ModuliLadder`).  CG's recurrence assumes one fixed operator,
    so every escalation *restarts* the recurrence from the current iterate
    (a fresh residual, preconditioned direction and ``r·z`` at the new
    count); the endgame runs at the full count, so a converged answer
    passed exactly the plain solve's residual check.
    """
    config = _solver_config(config)
    a, b = _check_system(a, b)
    n = a.shape[0]
    # Progressive solves spend iterations on ladder stages and restarts, so
    # their default budget carries an extra n of slack.
    if max_iter is None:
        max_iter = (3 if progressive else 2) * n
    else:
        max_iter = _check_max_iter(max_iter)

    start = time.perf_counter()
    # Factor the preconditioner before the (expensive) operand preparation,
    # so invalid precond arguments fail before any residue conversion runs.
    # The one-time factor cost is recorded where it happens (an
    # already-factored instance passed in reports its original cost).
    m_inv = make_preconditioner(a, precond, omega=omega)
    precond_seconds = m_inv.factor_seconds

    if prepared is not None:
        prep, config = _adopt_prepared(a, config, prepared)
        prepare_seconds = 0.0
    else:
        prep_start = time.perf_counter()
        prep = prepare_a(a, config=config)
        config = prep.config  # concrete under num_moduli="auto"
        prepare_seconds = time.perf_counter() - prep_start

    if _method_label is None:
        _method_label = "pcg" if m_inv.kind == "none" else f"pcg+{m_inv.kind}"
    if progressive:
        _method_label += "-prog"

    n_full = config.num_moduli
    ladder = _ModuliLadder(a.shape[1], config, tol) if progressive else None
    cur_n = ladder.initial() if ladder is not None else n_full
    prep_cur = prep.resolve_for(cur_n)
    cfg_cur = config.resolved(cur_n)

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    b_norm = float(np.linalg.norm(b)) or 1.0
    history: List[float] = []
    moduli: List[int] = []
    converged = False
    engine = Int8MatrixEngine()

    def _restart():
        """(Re)start the recurrence from x at the current count."""
        r = b - prepared_matvec(prep_cur, x, cfg_cur, engine)
        z = m_inv.apply(r)
        return r, z, z.copy(), float(r @ z)

    def _recover_from_breakdown():
        """Escalate to the full count after a low-count breakdown.

        At a reduced count the emulated ``A·p`` carries the ladder's
        deliberately larger error, which can destroy the recurrence's
        positive-definiteness; that is an artefact of the stage, not
        of the problem, so the progressive solve escalates straight
        to the full count and restarts instead of aborting.
        Returns True when a recovery restart was performed.
        """
        nonlocal cur_n, prep_cur, cfg_cur, r, z, p, rz
        if ladder is None or cur_n >= n_full:
            return False
        cur_n = n_full
        prep_cur = prep.resolve_for(cur_n)
        cfg_cur = config.resolved(cur_n)
        ladder.reset_window()
        r, z, p, rz = _restart()
        return True

    r, z, p, rz = _restart()
    for _ in range(max_iter):
        rel = float(np.linalg.norm(r)) / b_norm
        history.append(rel)
        moduli.append(cur_n)
        if rel <= tol and cur_n == n_full:
            converged = True
            break
        if ladder is not None:
            want = ladder.advance(rel, cur_n)
            if want > cur_n:
                cur_n = want
                prep_cur = prep.resolve_for(cur_n)
                cfg_cur = config.resolved(cur_n)
                r, z, p, rz = _restart()
                continue
        if rz == 0.0:
            # Breakdown: the preconditioned inner product vanished while
            # the residual has not.  At the full count this is possible
            # only for a degenerate user-supplied preconditioner — alpha
            # would be 0 and the beta division undefined, so stop rather
            # than crash.
            if _recover_from_breakdown():
                continue
            break
        ap = prepared_matvec(prep_cur, p, cfg_cur, engine)
        denom = float(p @ ap)
        if denom <= 0.0:
            # Loss of positive-definiteness in the emulated product (or
            # an indefinite preconditioner) — stop rather than diverge
            # silently, unless a reduced-count stage caused it.
            if _recover_from_breakdown():
                continue
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = m_inv.apply(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return SolveResult(
        value=x,
        config=config,
        converged=converged,
        iterations=len(history),
        residual_norm=history[-1] if history else float("nan"),
        residual_history=history,
        method=f"{_method_label}({config.method_name})",
        prepare_seconds=prepare_seconds,
        seconds=time.perf_counter() - start,
        precond=m_inv.kind,
        precond_seconds=precond_seconds,
        ledger=engine.counter,
        moduli_history=moduli,
    )


def iterative_refinement_solve(
    a: np.ndarray,
    b: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    tol: float = 1e-13,
    max_iter: Optional[int] = None,
    lu_block: int = 64,
    emulated_factorization: bool = False,
    progressive: bool = False,
    prepared: Optional[PreparedOperand] = None,
) -> SolveResult:
    """LU once, then refinement steps with emulated residuals.

    Factors ``P·A = L·U`` once (with
    :func:`repro.apps.lu.blocked_lu`; ``emulated_factorization`` routes the
    trailing updates through the emulated GEMM with prepared ``L21`` panels),
    then iterates ``x ← x + U⁻¹L⁻¹P(b − A·x)`` where the residual product
    ``A·x`` runs through the prepared system matrix every step — the classic
    HPL-style pairing of a fast factorization with high-quality residuals.

    ``progressive`` computes the early residuals at a reduced moduli count
    (mixed-precision refinement's textbook move) and escalates along the
    adaptive ladder; the convergence check always happens at the full
    count.
    """
    from .lu import blocked_lu, prepared_update_gemm

    config = _solver_config(config)
    a, b = _check_system(a, b)
    # Progressive refinement spends steps on ladder stages and full-count
    # verification passes; widen the default budget accordingly.
    if max_iter is None:
        max_iter = 30 if progressive else 20
    else:
        max_iter = _check_max_iter(max_iter)

    start = time.perf_counter()
    if prepared is not None:
        prep, config = _adopt_prepared(a, config, prepared)
        prepare_seconds = 0.0
    else:
        prep = prepare_a(a, config=config)
        config = prep.config  # concrete under num_moduli="auto"
        prepare_seconds = time.perf_counter() - start

    if emulated_factorization:
        # Convert-once trailing panels: L21 is prepared once per panel and
        # reused across the U12 column strips (see lu_with_prepared_updates).
        p, lower, upper = blocked_lu(
            a,
            block=lu_block,
            gemm=prepared_update_gemm(config),
            prepare_left=lambda l21: prepare_a(l21, config=config),
            trail_cols=lu_block,
        )
    else:
        p, lower, upper = blocked_lu(a, block=lu_block)

    def correction(residual: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(lower, p @ residual)
        return np.linalg.solve(upper, y)

    n_full = config.num_moduli
    ladder = _ModuliLadder(a.shape[1], config, tol) if progressive else None
    cur_n = ladder.initial() if ladder is not None else n_full
    prep_cur = prep.resolve_for(cur_n)
    cfg_cur = config.resolved(cur_n)

    x = correction(b)
    b_norm = float(np.linalg.norm(b)) or 1.0
    history: List[float] = []
    moduli: List[int] = []
    converged = False
    engine = Int8MatrixEngine()
    for _ in range(max_iter):
        residual = b - prepared_matvec(prep_cur, x, cfg_cur, engine)
        rel = float(np.linalg.norm(residual)) / b_norm
        history.append(rel)
        moduli.append(cur_n)
        if rel <= tol:
            if cur_n == n_full:
                converged = True
                break
            # Re-verify at the full count before claiming convergence.
            cur_n = n_full
            prep_cur, cfg_cur = prep.resolve_for(cur_n), config.resolved(cur_n)
            continue
        if ladder is not None:
            want = ladder.advance(rel, cur_n)
            if want > cur_n:
                cur_n = want
                prep_cur, cfg_cur = prep.resolve_for(cur_n), config.resolved(cur_n)
        x = x + correction(residual)
    return SolveResult(
        value=x,
        config=config,
        converged=converged,
        iterations=len(history),
        residual_norm=history[-1] if history else float("nan"),
        residual_history=history,
        method=f"ir{'-prog' if progressive else ''}({config.method_name})",
        prepare_seconds=prepare_seconds,
        seconds=time.perf_counter() - start,
        moduli_history=moduli,
    )
