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

They are front ends over one routine, ``_solve``, which validates the
inputs, prepares (or adopts) ``A``, holds the engine and the moduli
ladder, records every iteration and builds the :class:`SolveResult`.  Two
kernels iterate: the Richardson loop ``x ← x + M⁻¹(b − A·x)`` (Jacobi
with ``M = diag(A)``, Jacobi with a factored ``M``, and refinement with
``M`` the LU solve, started from ``x₀ = M⁻¹b``) and the PCG loop (CG is
PCG with ``M = I``).  :data:`SOLVERS` names them for
:meth:`repro.session.Session.solve`, ``repro solve`` and ``/v1/solve``.

Each solve runs its products on one
:class:`~repro.engines.int8.Int8MatrixEngine`, whose op ledger
(``SolveResult.ledger``) counts every iteration's residue GEMVs.  The GEMV
kernel is a single engine call, so ``config.parallelism`` and
``config.executor`` play no part in a solve; only
``emulated_factorization``'s trailing updates run GEMMs through them.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

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
    "SOLVERS",
    "solver_for",
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
            want = min(self.n_full, current + _ESCALATION_STRIDE)
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
        One-time cost of factoring the preconditioner, reported by the
        solve that paid it: ``0.0`` for ``"none"`` and for a solve that
        reused factors — an already-factored instance passed as
        ``precond``, or a :class:`~repro.session.Session` cache hit — like
        ``prepare_seconds`` for a reused system matrix.
    ledger:
        Op ledger of the solve's engine, which ran every emulated GEMV of
        the iteration; its ``emulated_calls`` counts them by moduli count.
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


def _number(value, name: str, cast: type):
    """``cast(value)``; a service request may carry any JSON value here."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


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


class _Iteration:
    """What a kernel iterates against: the prepared ``A`` at the current
    moduli count (full, or the ladder's stage), the engine whose ledger
    counts every product, ``b`` with the stopping rule, and the records.
    """

    def __init__(self, prep, config, b, tol, max_iter, progressive) -> None:
        self.prep, self.config = prep, config
        self.b = b
        self.b_norm = float(np.linalg.norm(b)) or 1.0
        self.tol, self.max_iter = tol, max_iter
        self.n_full = config.num_moduli
        self.ladder = _ModuliLadder(prep.shape[1], config, tol) if progressive else None
        self.engine = Int8MatrixEngine()
        self.history: List[float] = []
        self.moduli: List[int] = []
        # A progressive solve starts at the ladder's entry for an unconverged residual.
        self._use(self.ladder.moduli_for(1.0, 0) if progressive else self.n_full)

    def _use(self, count: int) -> None:
        self.count = count
        self._prep = self.prep.resolve_for(count)
        self._config = self.config.resolved(count)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Emulated ``A·v`` at the current count, on this solve's engine."""
        return prepared_matvec(self._prep, v, self._config, self.engine)

    def record(self, residual: np.ndarray) -> float:
        """Record the relative norm of ``residual`` at the current count."""
        rel = float(np.linalg.norm(residual)) / self.b_norm
        self.history.append(rel)
        self.moduli.append(self.count)
        return rel

    def escalate(self, rel_residual: float) -> bool:
        """Take the ladder's next count when it is due; True if the count rose."""
        if self.ladder is None:
            return False
        want = self.ladder.advance(rel_residual, self.count)
        if want <= self.count:
            return False
        self._use(want)
        return True

    def to_full(self) -> bool:
        """Jump to the full count; False when the solve already runs there."""
        if self.count >= self.n_full:
            return False
        self.ladder.reset_window()
        self._use(self.n_full)
        return True


def _richardson(it: _Iteration, apply_m: Callable, x: np.ndarray) -> tuple:
    """Richardson iteration ``x ← x + M⁻¹(b − A·x)``; returns ``(x, converged)``."""
    for _ in range(it.max_iter):
        residual = it.b - it.matvec(x)
        rel = it.record(residual)
        if rel <= it.tol:
            if not it.to_full():
                return x, True
            # A low-count residual met the tolerance: re-verify at the full
            # count before claiming convergence (no sweep applied — x may
            # already be converged).
            continue
        # An escalation takes effect for the *next* sweep; the residual in
        # hand is still a valid stationary-iteration correction.
        it.escalate(rel)
        x = x + apply_m(residual)
    return x, False


def _pcg(it: _Iteration, apply_m: Callable, x: np.ndarray) -> tuple:
    """Preconditioned CG; returns ``(x, converged)``.

    Every escalation of the ladder restarts the recurrence from the current
    iterate: CG assumes one fixed operator.
    """

    def restart():
        """(Re)start the recurrence from x at the current count."""
        r = it.b - it.matvec(x)
        z = apply_m(r)
        return r, z, z.copy(), float(r @ z)

    r, z, p, rz = restart()
    for _ in range(it.max_iter):
        rel = it.record(r)
        if rel <= it.tol and it.count == it.n_full:
            return x, True
        if it.escalate(rel):
            r, z, p, rz = restart()
            continue
        # Breakdown: r·z vanished (alpha would be 0, beta undefined) or p·Ap
        # lost positive-definiteness.  At the full count only a degenerate
        # problem or preconditioner does this: stop rather than crash or
        # diverge silently.  A reduced-count stage's larger matvec error is
        # an artefact of the stage: escalate to the full count and restart.
        ap = it.matvec(p) if rz != 0.0 else None
        denom = 0.0 if ap is None else float(p @ ap)
        if denom <= 0.0:
            if it.to_full():
                r, z, p, rz = restart()
                continue
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        z = apply_m(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return x, False


def _solve(kernel, name, a, b, config, tol, max_iter, budget, progressive, prepared,
           x0=None, precond=None, omega=1.0, plain=None) -> SolveResult:
    """The one set-up and result path behind the four solvers.

    Validates the system, ``tol`` and ``max_iter`` (``budget(n)`` for an
    ``n``-row system when ``None``); factors a preconditioner named by
    ``precond`` before the expensive preparation, so invalid arguments fail
    before any residue conversion runs; prepares or adopts ``A``; runs
    ``kernel``; and builds the result, ledger included.  Both one-time
    costs count towards the reported wall clock.

    Without a preconditioner kind ``M`` is the identity, or what the front
    end's ``plain(a, b, x, config) -> (apply_m, x)`` builds once ``A`` is
    prepared: Jacobi's diagonal, or refinement's LU solve and its start
    ``x₀ = M⁻¹b``.  A kind labels the run ``<jacobi|pcg>+<kind>`` by kernel.
    """
    config = config or Ozaki2Config.for_dgemm()
    a, b = _check_system(a, b)
    tol = _number(tol, "tol", float)
    max_iter = budget(len(b)) if max_iter is None else _number(max_iter, "max_iter", int)
    if max_iter < 1:  # at least one, so the reported residual is always measured
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    start = time.perf_counter()
    m_inv = make_preconditioner(a, precond, omega=omega)

    if prepared is not None:
        prep, config = _adopt_prepared(a, config, prepared)
        prepare_seconds = 0.0
    else:
        prep_start = time.perf_counter()
        prep = prepare_a(a, config=config)
        config = prep.config  # concrete under num_moduli="auto"
        prepare_seconds = time.perf_counter() - prep_start

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    apply_m = m_inv.apply
    if plain is not None and m_inv.kind == "none":
        apply_m, x = plain(a, b, x, config)
    it = _Iteration(prep, config, b, tol, max_iter, progressive)
    x, converged = kernel(it, apply_m, x)

    kind = m_inv.kind
    label = name if kind == "none" else f"{'pcg' if kernel is _pcg else 'jacobi'}+{kind}"
    return SolveResult(
        value=x,
        config=config,
        converged=converged,
        iterations=len(it.history),
        residual_norm=it.history[-1],
        residual_history=it.history,
        method=f"{label}{'-prog' if progressive else ''}({config.method_name})",
        prepare_seconds=prepare_seconds,
        seconds=time.perf_counter() - start,
        precond=kind,
        # A factored instance the caller passed in was paid for elsewhere.
        precond_seconds=0.0 if m_inv is precond else m_inv.factor_seconds,
        ledger=it.engine.counter,
        moduli_history=it.moduli,
    )


def _diagonal(a: np.ndarray, b: np.ndarray, x: np.ndarray, config: Ozaki2Config) -> tuple:
    """Jacobi's ``M = diag(A)``, swept from ``x0``."""
    diag = np.diag(a).copy()
    if np.any(diag == 0.0):
        raise ValidationError("Jacobi requires a zero-free diagonal")
    return (lambda residual: residual / diag), x


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
    plain solve's criterion.  Its default budget carries 50% slack for the
    ladder stages and full-count verification passes (300 sweeps, not 200).
    """
    return _solve(_richardson, "jacobi", a, b, config, tol, max_iter,
                  lambda n: 300 if progressive else 200, progressive, prepared,
                  x0=x0, precond=precond, omega=omega, plain=_diagonal)


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
    return _solve(_pcg, "cg", a, b, config, tol, max_iter,
                  lambda n: (3 if progressive else 2) * n, progressive, prepared,
                  x0=x0, precond=precond, omega=omega)


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
    passed exactly the plain solve's residual check.  Progressive solves
    spend iterations on ladder stages and restarts, so their default
    budget is ``3n`` instead of ``2n``.
    """
    return _solve(_pcg, "pcg", a, b, config, tol, max_iter,
                  lambda n: (3 if progressive else 2) * n, progressive, prepared,
                  x0=x0, precond=precond, omega=omega)


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
    count.  It widens the default budget from 20 steps to 30.
    """
    from .lu import blocked_lu, prepared_update_gemm

    def lu_solve(a: np.ndarray, b: np.ndarray, x: np.ndarray, config: Ozaki2Config) -> tuple:
        emulated = {}
        if emulated_factorization:
            # Convert-once trailing panels: L21 is prepared once per panel
            # and reused across the U12 column strips.
            emulated = dict(
                gemm=prepared_update_gemm(config),
                prepare_left=lambda l21: prepare_a(l21, config=config),
                trail_cols=lu_block,
            )
        p, lower, upper = blocked_lu(a, block=lu_block, **emulated)

        def correction(residual: np.ndarray) -> np.ndarray:
            return np.linalg.solve(upper, np.linalg.solve(lower, p @ residual))

        return correction, correction(b)

    return _solve(_richardson, "ir", a, b, config, tol, max_iter,
                  lambda n: 30 if progressive else 20, progressive, prepared, plain=lu_solve)


#: The solvers by method name: :meth:`~repro.session.Session.solve`,
#: ``repro solve`` and ``/v1/solve`` all dispatch through this one table.
SOLVERS: Dict[str, Callable[..., SolveResult]] = {
    "cg": cg_solve,
    "pcg": pcg_solve,
    "jacobi": jacobi_solve,
    "ir": iterative_refinement_solve,
}


def solver_for(method: str) -> Callable[..., SolveResult]:
    """The solver :data:`SOLVERS` names ``method``; ValidationError otherwise."""
    if method not in SOLVERS:
        raise ValidationError(f"unknown solve method {method!r}; expected one of {tuple(SOLVERS)}")
    return SOLVERS[method]
