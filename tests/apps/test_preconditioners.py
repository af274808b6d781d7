"""Unit tests for the factored-once preconditioners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.preconditioners import (
    ILU0Preconditioner,
    IdentityPreconditioner,
    PRECONDITIONER_KINDS,
    SSORPreconditioner,
    make_preconditioner,
)
from repro.errors import ValidationError
from repro.workloads import (
    diagonally_dominant_matrix,
    ill_conditioned_spd_matrix,
    spd_matrix,
)


def masked_ilu0_oracle(a: np.ndarray):
    """The textbook masked ILU(0) loop, literally: ``(L⁻¹, U⁻¹)``.

    Each step forms the whole outer product of the multipliers and the
    pivot row and subtracts it through a pattern mask; the production
    factorisation must reproduce its bytes.
    """
    n = a.shape[0]
    pattern = a != 0.0
    lu = a.copy()
    for kk in range(n - 1):
        col = np.where(pattern[kk + 1 :, kk], lu[kk + 1 :, kk] / lu[kk, kk], 0.0)
        lu[kk + 1 :, kk] = col
        update = np.outer(col, lu[kk, kk + 1 :])
        lu[kk + 1 :, kk + 1 :] -= np.where(pattern[kk + 1 :, kk + 1 :], update, 0.0)
    return np.linalg.inv(np.tril(lu, -1) + np.eye(n)), np.linalg.inv(np.triu(lu))


def _banded_with_inner_zero(n: int = 300, half_width: int = 3) -> np.ndarray:
    """Diagonally dominant band matrix with an explicit zero (and a -0.0) inside the band."""
    rng = np.random.default_rng(11)
    a = np.zeros((n, n))
    for offset in range(-half_width, half_width + 1):
        a += np.diag(rng.standard_normal(n - abs(offset)), offset)
    a += np.diag(np.full(n, 4.0 * half_width))
    a[50, 51] = 0.0
    a[52, 50] = -0.0
    return a


def _arrow_with_masked_fill(n: int = 96) -> np.ndarray:
    """Arrow head at the top-left: eliminating column 0 would fill the whole
    trailing block, all of it outside the pattern."""
    rng = np.random.default_rng(12)
    a = np.diag(np.full(n, 4.0 * n))
    a[0, :] = rng.standard_normal(n)
    a[:, 0] = rng.standard_normal(n)
    a[0, 0] = 4.0 * n
    a[np.arange(1, n - 1), np.arange(2, n)] = 1.0
    return a


ORACLE_MATRICES = {
    "dense_spd": lambda: ill_conditioned_spd_matrix(256, cond=1e3, seed=13),
    "banded_inner_zero": _banded_with_inner_zero,
    "masked_fill": _arrow_with_masked_fill,
}


class TestIdentity:
    def test_apply_is_a_no_op(self):
        r = np.arange(5.0)
        ident = IdentityPreconditioner()
        assert ident.apply(r) is r
        assert ident.kind == "none"


class TestILU0:
    def test_dense_pattern_degenerates_to_exact_lu(self):
        # A structurally dense matrix has nothing to drop: ILU(0) is the
        # exact LU without pivoting, so M⁻¹ r solves A x = r exactly.
        a = diagonally_dominant_matrix(24, seed=0)
        precond = ILU0Preconditioner(a)
        rng = np.random.default_rng(1)
        r = rng.standard_normal(24)
        np.testing.assert_allclose(precond.apply(r), np.linalg.solve(a, r), rtol=1e-9)

    def test_zero_fill_in_respects_the_pattern(self):
        # A matrix whose sparsity pattern fills in under exact LU (arrow
        # head at the top-left: eliminating column 0 updates the whole
        # trailing block): ILU(0) must drop that fill, so its apply()
        # matches a scalar reference ILU(0) — and *differs* from the exact
        # solve, proving fill-in was actually dropped.
        n = 8
        a = np.zeros((n, n))
        np.fill_diagonal(a, 4.0)
        a[0, :] = 1.0
        a[:, 0] = 1.0
        a[0, 0] = 4.0

        # Reference IKJ ILU(0): update only entries inside the pattern.
        pattern = a != 0.0
        lu = a.copy()
        for i in range(1, n):
            for kk in range(i):
                if not pattern[i, kk]:
                    continue
                lu[i, kk] /= lu[kk, kk]
                for j in range(kk + 1, n):
                    if pattern[i, j]:
                        lu[i, j] -= lu[i, kk] * lu[kk, j]
        lower_ref = np.tril(lu, -1) + np.eye(n)
        upper_ref = np.triu(lu)

        precond = ILU0Preconditioner(a)
        rng = np.random.default_rng(10)
        r = rng.standard_normal(n)
        expected = np.linalg.solve(upper_ref, np.linalg.solve(lower_ref, r))
        np.testing.assert_allclose(precond.apply(r), expected, rtol=1e-10)
        # Exact LU of this pattern fills in, so ILU(0) is a strict
        # approximation: the apply must NOT equal the exact solve.
        assert not np.allclose(precond.apply(r), np.linalg.solve(a, r), rtol=1e-6)

    @pytest.mark.parametrize("name", list(ORACLE_MATRICES))
    def test_factors_byte_equal_to_masked_oracle(self, name):
        a = ORACLE_MATRICES[name]()
        lower_inv, upper_inv = masked_ilu0_oracle(a)
        precond = ILU0Preconditioner(a)
        assert precond._lower_inv.tobytes() == lower_inv.tobytes()
        assert precond._upper_inv.tobytes() == upper_inv.tobytes()

    def test_nbytes_counts_the_two_inverses(self):
        assert ILU0Preconditioner(spd_matrix(12, seed=4)).nbytes == 2 * 12 * 12 * 8

    def test_zero_pivot_raises_at_construction(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="zero pivot"):
            ILU0Preconditioner(a)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            ILU0Preconditioner(np.ones((3, 4)))

    def test_factor_seconds_recorded(self):
        precond = ILU0Preconditioner(spd_matrix(16, seed=2))
        assert precond.factor_seconds > 0.0


class TestSSOR:
    def test_apply_matches_assembled_m_inverse(self):
        a = spd_matrix(20, seed=3)
        omega = 1.3
        precond = SSORPreconditioner(a, omega=omega)
        d = np.diag(np.diag(a))
        lower = np.tril(a, -1)
        upper = np.triu(a, 1)
        m = (omega / (2.0 - omega)) * (
            (d / omega + lower) @ np.linalg.inv(d) @ (d / omega + upper)
        )
        rng = np.random.default_rng(4)
        r = rng.standard_normal(20)
        np.testing.assert_allclose(precond.apply(r), np.linalg.solve(m, r), rtol=1e-9)

    def test_m_is_spd_for_symmetric_a(self):
        a = ill_conditioned_spd_matrix(16, cond=1e4, seed=5)
        precond = SSORPreconditioner(a)
        # M z = r  =>  z = M⁻¹ r; M is SPD iff M⁻¹ is, so check the
        # application operator's symmetry and positivity.
        eye = np.eye(16)
        m_inv = np.column_stack([precond.apply(eye[:, j]) for j in range(16)])
        np.testing.assert_allclose(m_inv, m_inv.T, atol=1e-10)
        assert np.linalg.eigvalsh(0.5 * (m_inv + m_inv.T)).min() > 0.0

    @pytest.mark.parametrize("omega", [0.0, 2.0, -1.0, 2.5])
    def test_rejects_omega_outside_open_interval(self, omega):
        with pytest.raises(ValidationError, match="omega"):
            SSORPreconditioner(spd_matrix(8, seed=6), omega=omega)

    def test_nbytes_counts_the_inverses_and_the_diagonal(self):
        assert SSORPreconditioner(spd_matrix(12, seed=4)).nbytes == 2 * 12 * 12 * 8 + 12 * 8

    def test_rejects_zero_diagonal(self):
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="zero-free diagonal"):
            SSORPreconditioner(a)


class TestFactory:
    def test_kinds_registry(self):
        assert PRECONDITIONER_KINDS == ("none", "ilu0", "ssor")
        a = spd_matrix(10, seed=7)
        assert make_preconditioner(a, "none").kind == "none"
        assert make_preconditioner(a, "ILU0").kind == "ilu0"
        assert make_preconditioner(a, "ssor").kind == "ssor"

    def test_factored_instance_passes_through(self):
        a = spd_matrix(10, seed=8)
        precond = SSORPreconditioner(a)
        assert make_preconditioner(a, precond) is precond

    def test_unknown_kind_raises(self):
        with pytest.raises(ValidationError, match="unknown preconditioner"):
            make_preconditioner(spd_matrix(4, seed=9), "jacobi2")
