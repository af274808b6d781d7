"""Session facade: transparent caching, bit-identity, unified results.

The contract under test is the redesign's core promise: routing a call
through :class:`repro.Session` — cache hit or miss — changes **no bit** of
any result relative to the historical free functions, while the session
ledger observably records the caching.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.apps import preconditioners, solvers
from repro.apps.preconditioners import SSORPreconditioner
from repro.apps.solvers import SolveResult, cg_solve
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import GemvResult, prepared_gemv
from repro.errors import ValidationError
from repro.result import GemmResult, Result
from repro.service import cache as cache_module
from repro.workloads import ill_conditioned_spd_matrix


@pytest.fixture
def cfg():
    return Ozaki2Config.for_dgemm(num_moduli=12)


@pytest.fixture
def system():
    a = ill_conditioned_spd_matrix(24, cond=1e3, seed=3)
    return a, a @ np.linspace(-1.0, 1.0, 24)


@pytest.fixture
def factorizations(monkeypatch):
    """Every ``(kind, omega)`` factorisation requested by name, solver or session."""
    calls = []
    real = preconditioners.make_preconditioner

    def spy(a, kind="none", omega=1.0):
        if isinstance(kind, str) and kind.strip().lower() not in ("none", ""):
            calls.append((kind, omega))
        return real(a, kind, omega=omega)

    for module in (solvers, cache_module):
        monkeypatch.setattr(module, "make_preconditioner", spy)
    return calls


#: Preconditioned solves whose factors a session reuses: (method, options).
PRECONDITIONED_SOLVES = {
    "pcg+ilu0": ("pcg", {"precond": "ilu0"}),
    "pcg+ssor-w1.0": ("pcg", {"precond": "ssor", "omega": 1.0}),
    "pcg+ssor-w1.5": ("pcg", {"precond": "ssor", "omega": 1.5}),
    "jacobi+ilu0": ("jacobi", {"precond": "ilu0"}),
}


@pytest.fixture
def pair(rng):
    a = rng.standard_normal((40, 32))
    b = rng.standard_normal((32, 24))
    return a, b


class TestSessionBitIdentity:
    def test_gemm_matches_free_function(self, cfg, pair):
        a, b = pair
        with repro.Session(cfg) as session:
            cold = session.gemm(a, b)
            warm = session.gemm(a, b)
        direct = ozaki2_gemm(a, b, config=cfg)
        assert np.array_equal(cold.value, direct)
        assert np.array_equal(warm.value, direct)

    def test_gemv_matches_free_function(self, cfg, rng):
        a = rng.standard_normal((48, 36))
        x = rng.standard_normal(36)
        with repro.Session(cfg) as session:
            cold = session.gemv(a, x)
            warm = session.gemv(a, x)
        direct = prepared_gemv(a, x, config=cfg)
        assert np.array_equal(cold.value, direct)
        assert np.array_equal(warm.value, direct)

    def test_gemm_batched_matches_individual(self, cfg, rng):
        shared = rng.standard_normal((24, 20))
        bs = [rng.standard_normal((20, 16)) for _ in range(3)]
        with repro.Session(cfg) as session:
            batch = session.gemm_batched([shared] * 3, bs)
            singles = [session.gemm(shared, b) for b in bs]
        for got, want in zip(batch, singles, strict=True):
            assert np.array_equal(got.value, want.value)

    def test_solve_matches_free_function(self, cfg, rng):
        n = 24
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(np.linspace(1.0, 10.0, n)) @ q.T
        b = rng.standard_normal(n)
        with repro.Session(cfg) as session:
            res = session.solve(a, b, method="cg", tol=1e-10)
        direct = cg_solve(a, b, config=cfg, tol=1e-10)
        assert res.converged and direct.converged
        assert np.array_equal(res.value, direct.value)

    def test_disabled_cache_still_bit_identical(self, cfg, pair):
        a, b = pair
        with repro.Session(cfg, cache_bytes=0) as session:
            res = session.gemm(a, b)
            assert session.ledger.cache_hits == 0
            assert session.ledger.cache_misses == 0
        assert np.array_equal(res.value, ozaki2_gemm(a, b, config=cfg))


class TestSessionCaching:
    def test_gemm_reuse_hits_the_cache(self, cfg, pair):
        a, b = pair
        with repro.Session(cfg) as session:
            session.gemm(a, b)
            assert session.ledger.cache_misses == 2  # A and B converted
            assert session.ledger.cache_hits == 0
            session.gemm(a, b)
            assert session.ledger.cache_hits == 2
            assert session.ledger.cache_misses == 2
            assert len(session.cache) == 2

    def test_equal_content_different_objects_share_entries(self, cfg, pair):
        a, b = pair
        with repro.Session(cfg) as session:
            session.gemm(a, b)
            session.gemm(a.copy(), b.copy())
            assert session.ledger.cache_hits == 2
            assert len(session.cache) == 2

    def test_prepare_warms_gemv(self, cfg, rng):
        a = rng.standard_normal((32, 32))
        with repro.Session(cfg) as session:
            operand = session.prepare(a, side="A")
            assert session.ledger.cache_misses == 1
            result = session.gemv(a, rng.standard_normal(32))
            assert session.ledger.cache_hits == 1
            assert result.phase_times.seconds["convert_A"] == 0.0
            assert operand.fingerprint == repro.matrix_fingerprint(a)

    def test_solve_reuses_prepared_matrix(self, cfg, rng):
        n = 20
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(np.linspace(1.0, 5.0, n)) @ q.T
        b = rng.standard_normal(n)
        with repro.Session(cfg) as session:
            first = session.solve(a, b, method="cg", tol=1e-10)
            second = session.solve(a, b, method="cg", tol=1e-10)
            ledger = session.ledger
        # The cold solve paid the conversion and reports it; the session
        # injected the cached conversion, so the warm solve's preparation is
        # exactly zero, and the answers are identical.
        assert first.prepare_seconds > 0.0
        assert first.seconds >= first.prepare_seconds
        assert second.prepare_seconds == 0.0
        # The session ledger counts both solves' GEMVs.
        both = first.ledger.merge(second.ledger)
        assert ledger.emulated_calls == both.emulated_calls
        assert ledger.matmul_calls == both.matmul_calls > 0
        assert first.iterations == second.iterations
        assert first.residual_history == second.residual_history
        assert np.array_equal(first.value, second.value)

    @pytest.mark.parametrize("case", list(PRECONDITIONED_SOLVES))
    def test_solve_reuses_factored_preconditioner(self, cfg, system, factorizations, case):
        method, options = PRECONDITIONED_SOLVES[case]
        a, b = system
        with repro.Session(cfg) as session:
            cold = session.solve(a, b, method=method, tol=1e-10, **options)
            hits = session.cache.stats()["hits"]
            warm = session.solve(a, b, method=method, tol=1e-10, **options)
            # The warm solve found the operand and the factors resident.
            assert session.cache.stats()["hits"] == hits + 2
        assert len(factorizations) == 1
        assert cold.precond_seconds > 0.0
        assert warm.precond_seconds == 0.0
        assert warm.value.tobytes() == cold.value.tobytes()
        assert warm.iterations == cold.iterations
        assert warm.residual_history == cold.residual_history
        solver = {"pcg": solvers.pcg_solve, "jacobi": solvers.jacobi_solve}[method]
        direct = solver(a, b, config=cfg, tol=1e-10, **options)
        assert direct.value.tobytes() == cold.value.tobytes()
        assert direct.residual_history == cold.residual_history

    def test_ssor_factors_once_per_omega(self, cfg, system, factorizations):
        a, b = system
        with repro.Session(cfg) as session:
            for omega in (1.0, 1.5, 1.0, 1.5):
                session.solve(a, b, method="pcg", precond="ssor", omega=omega)
            # ILU(0) ignores omega, so its key leaves it out.
            for omega in (1.0, 1.5):
                session.solve(a, b, method="pcg", precond="ilu0", omega=omega)
            assert len(session.cache) == 4  # the operand and three factorisations
        assert factorizations == [("ssor", 1.0), ("ssor", 1.5), ("ilu0", 1.0)]

    def test_caller_preconditioner_bypasses_the_cache(self, cfg, system, factorizations):
        a, b = system
        mine = SSORPreconditioner(a, omega=1.2)
        with repro.Session(cfg) as session:
            given = session.solve(a, b, method="pcg", precond=mine)
            assert len(session.cache) == 1  # the operand only
            named = session.solve(a, b, method="pcg", precond="ssor", omega=1.2)
        assert given.precond_seconds == 0.0
        assert factorizations == [("ssor", 1.2)]
        assert given.value.tobytes() == named.value.tobytes()

    def test_disabled_cache_factors_every_solve(self, cfg, system, factorizations):
        a, b = system
        with repro.Session(cfg, cache_bytes=0) as session:
            first = session.solve(a, b, method="pcg", precond="ilu0")
            second = session.solve(a, b, method="pcg", precond="ilu0")
            assert len(session.cache) == 0
        assert len(factorizations) == 2
        assert first.precond_seconds > 0.0 and second.precond_seconds > 0.0
        assert first.value.tobytes() == second.value.tobytes()

    def test_prepared_route_reuses_the_factors(self, cfg, system, factorizations):
        a, b = system
        with repro.Session(cfg) as session:
            operand = session.prepare(a)
            cold = session.solve(operand.source, b, method="pcg", prepared=operand)
            warm = session.solve(a.copy(), b, method="pcg", prepared=operand)
        assert len(factorizations) == 1
        assert warm.precond_seconds == 0.0
        assert warm.value.tobytes() == cold.value.tobytes()

    def test_gemm_then_solve_shares_the_entry(self, cfg, rng):
        n = 20
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(np.linspace(1.0, 5.0, n)) @ q.T
        with repro.Session(cfg) as session:
            session.gemm(a, np.eye(n))
            res = session.solve(a, rng.standard_normal(n), method="cg", tol=1e-10)
        assert res.prepare_seconds == 0.0

    def test_unknown_method_raises(self, cfg, rng):
        with repro.Session(cfg) as session:
            with pytest.raises(ValidationError, match="unknown solve method"):
                session.solve(np.eye(4), np.ones(4), method="gauss")

    def test_closed_session_rejects_calls(self, cfg, pair):
        a, b = pair
        session = repro.Session(cfg)
        session.close()
        with pytest.raises(ValidationError, match="closed"):
            session.gemm(a, b)

    def test_stats_shape(self, cfg, pair):
        a, b = pair
        with repro.Session(cfg) as session:
            session.gemm(a, b)
            stats = session.stats()
        assert stats["requests"] == 1
        assert stats["method"] == cfg.method_name
        assert stats["cache"]["entries"] == 2
        assert stats["ledger"]["cache_misses"] == 2
        assert stats["uptime_seconds"] > 0.0


class TestResultUnification:
    def test_result_hierarchy(self):
        assert issubclass(GemmResult, Result)
        assert issubclass(GemvResult, Result)
        assert issubclass(SolveResult, Result)

    def test_gemm_result_aliases(self, cfg, pair):
        """``value``/``ledger`` are the one spelling: the historical aliases
        (``Ozaki2Result``, ``.c``, ``.int8_counter``) are gone."""
        a, b = pair
        with repro.Session(cfg) as session:
            result = session.gemm(a, b)
        assert result.value.shape == (a.shape[0], b.shape[1])
        assert not hasattr(result, "c") and not hasattr(result, "int8_counter")
        assert not hasattr(repro, "Ozaki2Result")
        assert result.method_name == cfg.method_name
        assert set(result.phase_times.seconds) >= {"convert_A", "convert_B"}

    @pytest.mark.parametrize("op", ["gemm", "gemv"])
    def test_result_ledger_is_its_own_call(self, cfg, pair, op):
        """A result's ledger holds its call's work alone: a later call on
        the same session leaves it unchanged."""
        a, b = pair
        rhs = b if op == "gemm" else b[:, 0]
        with repro.Session(cfg) as session:
            first = getattr(session, op)(a, rhs)
            at_return = first.ledger.as_dict()
            second = getattr(session, op)(a, rhs)
            assert first.ledger is not session.ledger
            assert first.ledger.as_dict() == at_return == second.ledger.as_dict()
        assert at_return["matmul_calls"] == cfg.num_moduli

    def test_solve_result_alias(self, cfg, rng):
        """The solution is ``value``; the historical ``.x`` alias is gone."""
        n = 12
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(np.linspace(1.0, 3.0, n)) @ q.T
        with repro.Session(cfg) as session:
            result = session.solve(a, rng.standard_normal(n), method="jacobi")
        assert result.value.shape == (n,)
        assert not hasattr(result, "x")
