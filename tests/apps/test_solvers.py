"""Tests for the iterative solvers and the prepared-trailing-update LU."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.apps import (
    blocked_lu,
    cg_solve,
    iterative_refinement_solve,
    jacobi_solve,
    lu_backward_error,
    lu_with_method,
    lu_with_prepared_updates,
    pcg_solve,
    prepared_matvec,
)
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a
from repro.errors import ConfigurationError, ValidationError
from repro.workloads import (
    diagonally_dominant_matrix,
    linear_system,
    spd_matrix,
)

CONFIG = Ozaki2Config.for_dgemm(15)


class TestGenerators:
    def test_diagonally_dominant(self):
        a = diagonally_dominant_matrix(40, seed=0)
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert np.all(np.abs(np.diag(a)) > off)

    def test_diagonally_dominant_rejects_weak_dominance(self):
        with pytest.raises(ValidationError):
            diagonally_dominant_matrix(8, dominance=1.0)

    def test_spd(self):
        a = spd_matrix(24, seed=1)
        np.testing.assert_allclose(a, a.T)
        eigvals = np.linalg.eigvalsh(a)
        assert eigvals.min() > 0

    def test_linear_system_consistent(self):
        a, b, x_true = linear_system(16, kind="spd", seed=2)
        np.testing.assert_allclose(a @ x_true, b)

    def test_linear_system_unknown_kind(self):
        with pytest.raises(ValidationError):
            linear_system(8, kind="toeplitz")


class TestPreparedMatvec:
    def test_matches_gemm_column(self):
        a, b, _ = linear_system(24, seed=3)
        prep = prepare_a(a, CONFIG)
        got = prepared_matvec(prep, b, CONFIG)
        want = ozaki2_gemm(a, b[:, None], config=CONFIG).ravel()
        np.testing.assert_array_equal(got, want)

    def test_rejects_matrix_input(self):
        a, _, _ = linear_system(8, seed=0)
        with pytest.raises(ValidationError):
            prepared_matvec(prepare_a(a, CONFIG), np.ones((8, 2)), CONFIG)


class TestJacobi:
    def test_converges_on_diagonally_dominant(self):
        a, b, x_true = linear_system(48, kind="diag_dominant", seed=4)
        result = jacobi_solve(a, b, config=CONFIG, tol=1e-12)
        assert result.converged
        assert result.residual_norm <= 1e-12
        assert np.max(np.abs(result.value - x_true)) < 1e-9
        assert result.iterations == len(result.residual_history)
        assert result.prepare_seconds > 0.0
        assert result.method == "jacobi(OS II-fast-15)"

    def test_residuals_decrease(self):
        a, b, _ = linear_system(32, seed=5)
        result = jacobi_solve(a, b, config=CONFIG, tol=1e-13)
        hist = result.residual_history
        assert hist[-1] < hist[0]

    def test_non_convergence_reported(self):
        a, b, _ = linear_system(32, seed=6)
        result = jacobi_solve(a, b, config=CONFIG, tol=1e-13, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    @pytest.mark.parametrize("bad", [0, -1])
    def test_max_iter_must_be_positive(self, bad):
        """max_iter >= 1 guarantees the reported residual was measured."""
        a, b, _ = linear_system(8, seed=0)
        with pytest.raises(ValidationError, match="max_iter"):
            jacobi_solve(a, b, max_iter=bad)
        with pytest.raises(ValidationError, match="max_iter"):
            cg_solve(a, b, max_iter=bad)
        with pytest.raises(ValidationError, match="max_iter"):
            iterative_refinement_solve(a, b, max_iter=bad)

    @pytest.mark.parametrize("setting", [{"tol": "abc"}, {"tol": None}, {"max_iter": "many"}])
    def test_non_numeric_settings_rejected(self, setting):
        """Service requests carry JSON values: a bad one is the caller's error."""
        a, b, _ = linear_system(8, kind="spd", seed=0)
        name = next(iter(setting))
        for solver in (jacobi_solve, cg_solve, pcg_solve, iterative_refinement_solve):
            with pytest.raises(ValidationError, match=f"{name} must be a number"):
                solver(a, b, **setting)

    def test_progressive_must_be_a_bool(self):
        """A JSON string such as "no" is not a switch, on direct calls too."""
        a, b, _ = linear_system(8, kind="spd", seed=0)
        with pytest.raises(ValidationError, match="progressive"):
            cg_solve(a, b, progressive="no")

    def test_non_numeric_omega_rejected(self):
        a, b, _ = linear_system(8, kind="spd", seed=0)
        with pytest.raises(ValidationError, match="omega must be a number"):
            pcg_solve(a, b, precond="ssor", omega="x")

    def test_zero_diagonal_rejected(self):
        a = np.eye(4)
        a[2, 2] = 0.0
        with pytest.raises(ValidationError, match="diagonal"):
            jacobi_solve(a, np.ones(4))

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="square"):
            jacobi_solve(np.ones((3, 4)), np.ones(3))
        with pytest.raises(ValidationError, match="right-hand side"):
            jacobi_solve(np.eye(4), np.ones(5))

    def test_accurate_mode_supported(self):
        # Historically rejected: accurate-mode scales couple both operands,
        # so a prepared system matrix could not be reused.  The pre-scale
        # split (repro.core.scaling.accurate_mode_prescale) lifted that —
        # solvers now run accurate mode, and injecting a prepared operand
        # stays bit-identical to the unprepared solve.
        a, b, x_true = linear_system(8, seed=0)
        config = Ozaki2Config.for_dgemm(15, mode="accurate")
        plain = jacobi_solve(a, b, config=config)
        assert plain.converged
        assert np.max(np.abs(plain.value - x_true)) < 1e-8
        prepared = jacobi_solve(
            a, b, config=config, prepared=prepare_a(a, config=config)
        )
        assert np.array_equal(plain.value, prepared.value)

    def test_fast_prepared_rejected_for_accurate_solve(self):
        a, b, _ = linear_system(8, seed=0)
        with pytest.raises(ConfigurationError, match="mode"):
            jacobi_solve(
                a,
                b,
                config=Ozaki2Config.for_dgemm(15, mode="accurate"),
                prepared=prepare_a(a, config=Ozaki2Config.for_dgemm(15)),
            )


class TestConjugateGradients:
    def test_converges_on_spd(self):
        a, b, x_true = linear_system(40, kind="spd", seed=7)
        result = cg_solve(a, b, config=CONFIG, tol=1e-11)
        assert result.converged
        assert np.max(np.abs(result.value - x_true)) < 1e-6
        assert result.method == "cg(OS II-fast-15)"

    def test_warm_start(self):
        a, b, x_true = linear_system(24, kind="spd", seed=8)
        cold = cg_solve(a, b, config=CONFIG, tol=1e-10)
        warm = cg_solve(a, b, config=CONFIG, tol=1e-10, x0=x_true)
        assert warm.iterations <= cold.iterations

    def test_iteration_cap(self):
        a, b, _ = linear_system(24, kind="spd", seed=9)
        result = cg_solve(a, b, config=CONFIG, tol=1e-15, max_iter=3)
        assert result.iterations <= 3


class TestIterativeRefinement:
    def test_reaches_fp64_accuracy(self):
        a, b, x_true = linear_system(40, seed=10)
        result = iterative_refinement_solve(a, b, config=CONFIG)
        assert result.converged
        assert result.residual_norm <= 1e-13
        assert np.max(np.abs(result.value - x_true)) < 1e-10

    def test_emulated_factorization(self):
        a, b, _ = linear_system(36, seed=11)
        result = iterative_refinement_solve(
            a, b, config=CONFIG, emulated_factorization=True, lu_block=12
        )
        assert result.converged
        assert result.method == "ir(OS II-fast-15)"


#: One solve of each kernel path: (solver, system kind, options).
LEDGER_CASES = {
    "jacobi": (jacobi_solve, "diag_dominant", {}),
    "jacobi+ilu0": (jacobi_solve, "diag_dominant", {"precond": "ilu0"}),
    "cg": (cg_solve, "spd", {}),
    "pcg+ilu0": (pcg_solve, "spd", {"precond": "ilu0"}),
    "ir": (iterative_refinement_solve, "diag_dominant", {}),
}


@pytest.mark.parametrize("progressive", [False, True])
@pytest.mark.parametrize("case", list(LEDGER_CASES))
def test_every_solve_carries_its_ledger(case, progressive):
    """The ledger counts one emulated GEMV per recorded iteration, by count."""
    solver, kind, options = LEDGER_CASES[case]
    a, b, _ = linear_system(48, kind=kind, seed=12)
    result = solver(a, b, config=CONFIG, progressive=progressive, **options)
    assert result.converged
    assert result.ledger.emulated_calls == Counter(result.moduli_history)
    assert result.fault_events == {}


class TestPreparedLU:
    def test_matches_unprepared_method(self, rng):
        a = rng.standard_normal((72, 72))
        err_prepared, (p, lower, upper) = lu_with_prepared_updates(
            a, config=CONFIG, block=24
        )
        err_plain, _ = lu_with_method(a, "OS II-fast-15", block=24)
        # Column-strip trailing updates are exact per output column, so the
        # prepared factorisation reproduces the plain emulated one exactly.
        assert err_prepared == err_plain
        assert lu_backward_error(a, p, lower, upper) < 1e-13

    def test_trail_cols_splits_match_single_call_emulated(self, rng):
        """Column-strip trailing updates are bit-identical to the one-call
        update for the emulated GEMM (integer arithmetic; every output
        column depends only on its own column of U12)."""
        a = rng.standard_normal((40, 40))
        gemm = lambda x, y: ozaki2_gemm(x, y, config=CONFIG)  # noqa: E731
        p1, l1, u1 = blocked_lu(a, block=8, gemm=gemm)
        p2, l2, u2 = blocked_lu(a, block=8, gemm=gemm, trail_cols=5)
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(u1, u2)

    def test_trail_cols_validation(self, rng):
        with pytest.raises(ValidationError):
            blocked_lu(rng.standard_normal((8, 8)), trail_cols=0)

    def test_prepare_left_receives_each_panel(self, rng):
        a = rng.standard_normal((32, 32))
        seen = []

        def fake_prepare(l21):
            seen.append(l21.shape)
            return l21

        blocked_lu(a, block=8, prepare_left=fake_prepare, trail_cols=8)
        # 4 panels of width 8; the last one has no trailing block.
        assert seen == [(24, 8), (16, 8), (8, 8)]
