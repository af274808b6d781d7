"""Degenerate inputs to the GEMV path are pinned to match the GEMM route.

The residue-GEMV fast path advertises *behavioural* identity with the
``n = 1`` GEMM route, not just bitwise-equal happy paths: empty vectors,
1x1 systems and non-contiguous (strided) vectors must raise the same
precise :class:`~repro.errors.ValidationError`\\ s — or succeed with the
same bits — as routing the equivalent ``(k, 1)`` column through
:func:`repro.ozaki2_gemm`.
"""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.apps import cg_solve, jacobi_solve, pcg_solve, prepared_matvec
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import prepare_a
from repro.errors import ValidationError
from repro.workloads import phi_pair

CONFIG = Ozaki2Config.for_dgemm(15)


def _routes(a, v, config=CONFIG):
    """Run both routes; return (outcome, payload) pairs for comparison."""
    results = []
    for fn in (
        lambda: prepared_gemv(a, v, config=config),
        lambda: np.asarray(ozaki2_gemm(a, v[:, None], config=config)).ravel(),
    ):
        try:
            results.append(("ok", fn()))
        except ValidationError as exc:
            results.append(("error", str(exc)))
    return results


class TestEmptyVector:
    def test_length_0_raises_the_gemm_routes_exact_message(self):
        a = phi_pair(4, 0 + 4, 1, seed=0)[0]
        empty = np.zeros(0)
        fast, ref = _routes(a, empty)
        assert fast[0] == ref[0] == "error"
        assert fast[1] == ref[1]
        assert "B has a zero dimension (shape (0, 1))" in fast[1]

    def test_empty_matrix_side_raises_identically(self):
        empty_a = np.zeros((0, 5))
        v = np.zeros(5)
        fast, ref = _routes(empty_a, v)
        assert fast[0] == ref[0] == "error"
        assert fast[1] == ref[1]
        assert "A has a zero dimension" in fast[1]


class TestOneByOneSystem:
    def test_gemv_succeeds_identically(self):
        a, b = phi_pair(1, 1, 1, seed=1)
        v = b[:, 0]
        fast, ref = _routes(a, v)
        assert fast[0] == ref[0] == "ok"
        np.testing.assert_array_equal(fast[1], ref[1])
        assert fast[1].shape == (1,)

    def test_prepared_1x1_matches_too(self):
        a, b = phi_pair(1, 1, 1, seed=2)
        prep = prepare_a(a, config=CONFIG)
        v = b[:, 0]
        np.testing.assert_array_equal(
            prepared_gemv(prep, v, config=CONFIG),
            np.asarray(ozaki2_gemm(prep, v[:, None], config=CONFIG)).ravel(),
        )

    @pytest.mark.parametrize("precond", ["none", "ilu0", "ssor"])
    def test_solvers_handle_1x1_systems(self, precond):
        a = np.array([[4.0]])
        b = np.array([8.0])
        jac = jacobi_solve(a, b, config=CONFIG, tol=1e-12, precond=precond)
        assert jac.converged
        np.testing.assert_allclose(jac.x, [2.0], rtol=1e-10)
        pcg = pcg_solve(a, b, config=CONFIG, tol=1e-12, precond=precond)
        assert pcg.converged
        np.testing.assert_allclose(pcg.x, [2.0], rtol=1e-10)


class TestStridedVector:
    def test_non_contiguous_x_succeeds_identically(self):
        a, b = phi_pair(12, 16, 2, seed=3)
        interleaved = np.ascontiguousarray(b.T).ravel()
        strided = interleaved[::2][:16]
        assert not strided.flags["C_CONTIGUOUS"] or strided.strides[0] != 8
        fast, ref = _routes(a, strided)
        assert fast[0] == ref[0] == "ok"
        np.testing.assert_array_equal(fast[1], ref[1])
        # And both equal the contiguous-copy result — strides are invisible.
        np.testing.assert_array_equal(
            fast[1], prepared_gemv(a, np.ascontiguousarray(strided), config=CONFIG)
        )

    def test_reversed_view_succeeds_identically(self):
        a, b = phi_pair(9, 11, 1, seed=4)
        rev = b[:, 0][::-1]
        fast, ref = _routes(a, rev)
        assert fast[0] == ref[0] == "ok"
        np.testing.assert_array_equal(fast[1], ref[1])

    def test_prepared_matvec_accepts_strided_x(self):
        a, b = phi_pair(10, 10, 1, seed=5)
        prep = prepare_a(a, config=CONFIG)
        rev = b[:, 0][::-1]
        want, _ = oracle.gemm(a, rev[:, None], CONFIG)
        np.testing.assert_array_equal(prepared_matvec(prep, rev, CONFIG), want[:, 0])


class TestNonVectorInputs:
    def test_2d_x_rejected_by_matvec(self):
        a, b = phi_pair(6, 6, 1, seed=6)
        prep = prepare_a(a, config=CONFIG)
        with pytest.raises(ValidationError, match="1-D vector"):
            prepared_matvec(prep, b, CONFIG)

    def test_cg_rejects_mismatched_rhs(self):
        a, b = phi_pair(8, 8, 1, seed=7)
        a = a @ a.T + 8 * np.eye(8)
        with pytest.raises(ValidationError, match="right-hand side"):
            cg_solve(a, np.zeros(5), config=CONFIG)
