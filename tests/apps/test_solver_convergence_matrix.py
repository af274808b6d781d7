"""Solver convergence matrix: families x preconditioners x precisions.

Pins the convergence contract of the preconditioned solvers across the full
grid (SPD, diagonally dominant, ill-conditioned SPD) x (none, ILU(0), SSOR)
x (FP64, FP32), and the headline property of the preconditioner work: on
the ill-conditioned SPD family, preconditioned CG converges in **strictly
fewer** iterations than plain CG — every saved iteration is one emulated
matrix–vector product that never runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import jacobi_solve, pcg_solve
from repro.config import Ozaki2Config
from repro.workloads import linear_system

N = 96
COND = 1e3

#: Per-precision solver configuration and residual tolerance (the fp32
#: emulation's residual floor sits around 1e-7; see the CLI default).
PRECISIONS = {
    "fp64": (Ozaki2Config.for_dgemm(15), 1e-8),
    "fp32": (Ozaki2Config.for_sgemm(8), 1e-3),
}

FAMILIES = ("spd", "diag_dominant", "ill_spd")
PRECONDS = ("none", "ilu0", "ssor")


def _system(kind: str, seed: int = 0):
    return linear_system(N, kind=kind, seed=seed, cond=COND)


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("precond", PRECONDS)
@pytest.mark.parametrize("kind", FAMILIES)
def test_pcg_converges_across_the_grid(kind, precond, precision):
    config, tol = PRECISIONS[precision]
    a, b, x_true = _system(kind)
    result = pcg_solve(a, b, config=config, tol=tol, precond=precond)
    assert result.converged, (
        f"pcg({precond}) on {kind}/{precision} stalled at "
        f"{result.residual_norm:.3e} after {result.iterations} iterations"
    )
    assert result.residual_norm <= tol
    assert result.precond == precond
    # The residual history is the per-iteration record: one entry per
    # iteration, ending at the converged value.
    assert len(result.residual_history) == result.iterations
    assert result.residual_history[-1] == result.residual_norm
    # The solution is meaningful, not just the residual: for the
    # well-conditioned families it reproduces x_true tightly, for the
    # ill-conditioned family within the cond-amplified tolerance.
    scale = float(np.max(np.abs(x_true)))
    budget = tol * COND * 10.0 if kind == "ill_spd" else max(tol, 1e-6) * 100.0
    assert float(np.max(np.abs(result.value - x_true))) <= budget * max(scale, 1.0)


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
def test_preconditioning_strictly_beats_cg_on_ill_conditioned_spd(precision):
    config, tol = PRECISIONS[precision]
    a, b, _ = _system("ill_spd")
    plain = pcg_solve(a, b, config=config, tol=tol, precond="none")
    ilu0 = pcg_solve(a, b, config=config, tol=tol, precond="ilu0")
    ssor = pcg_solve(a, b, config=config, tol=tol, precond="ssor")
    assert plain.converged and ilu0.converged and ssor.converged
    assert ilu0.iterations < plain.iterations, (
        f"ILU(0) took {ilu0.iterations} iterations vs plain CG's "
        f"{plain.iterations} on the ill-conditioned family ({precision})"
    )
    assert ssor.iterations < plain.iterations, (
        f"SSOR took {ssor.iterations} iterations vs plain CG's "
        f"{plain.iterations} on the ill-conditioned family ({precision})"
    )


@pytest.mark.parametrize("precision", sorted(PRECISIONS))
@pytest.mark.parametrize("precond", PRECONDS)
def test_preconditioned_jacobi_sweeps_converge(precond, precision):
    config, tol = PRECISIONS[precision]
    a, b, _ = _system("diag_dominant")
    result = jacobi_solve(
        a, b, config=config, tol=tol, max_iter=300, precond=precond
    )
    assert result.converged
    expected = "jacobi" if precond == "none" else f"jacobi+{precond}"
    assert result.method.startswith(f"{expected}(")


def test_preconditioned_jacobi_reduces_sweeps_on_diag_dominant():
    config, tol = PRECISIONS["fp64"]
    a, b, _ = _system("diag_dominant")
    plain = jacobi_solve(a, b, config=config, tol=tol, max_iter=300)
    ilu0 = jacobi_solve(a, b, config=config, tol=tol, max_iter=300, precond="ilu0")
    assert ilu0.iterations < plain.iterations


def test_precond_seconds_reported_once():
    config, tol = PRECISIONS["fp64"]
    a, b, _ = _system("ill_spd")
    result = pcg_solve(a, b, config=config, tol=tol, precond="ilu0")
    assert result.precond_seconds > 0.0
    plain = pcg_solve(a, b, config=config, tol=tol, precond="none")
    assert plain.precond_seconds == 0.0


def test_pcg_degenerate_preconditioner_stops_instead_of_crashing():
    """A user-supplied apply() that annihilates r must break, not raise."""
    from repro.apps.preconditioners import Preconditioner

    class Annihilator(Preconditioner):
        kind = "ssor"  # any non-"none" kind: exercises the pcg+<kind> path

        def apply(self, r):
            return np.zeros_like(r)

    config, tol = PRECISIONS["fp64"]
    a = np.diag([2.0, 3.0])
    b = np.ones(2)
    result = pcg_solve(a, b, config=config, tol=tol, precond=Annihilator())
    assert not result.converged
    assert result.iterations >= 1


def test_pcg_with_identity_matches_cg_bitwise():
    from repro.apps import cg_solve

    config, tol = PRECISIONS["fp64"]
    a, b, _ = _system("spd")
    cg = cg_solve(a, b, config=config, tol=tol)
    pcg = pcg_solve(a, b, config=config, tol=tol, precond="none")
    assert cg.iterations == pcg.iterations
    np.testing.assert_array_equal(cg.value, pcg.value)
    assert cg.method.startswith("cg(")
    assert pcg.method.startswith("pcg(")
