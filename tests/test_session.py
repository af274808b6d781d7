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
from repro.apps.solvers import SolveResult, cg_solve
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import GemvResult, prepared_gemv
from repro.errors import ValidationError
from repro.result import GemmResult, Result


@pytest.fixture
def cfg():
    return Ozaki2Config.for_dgemm(num_moduli=12)


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
        # The session injected the cached conversion: the warm solve's
        # preparation phase is exactly zero, and the answers are identical.
        assert second.prepare_seconds == 0.0
        assert first.iterations == second.iterations
        assert np.array_equal(first.value, second.value)

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

    def test_solve_result_alias(self, cfg, rng):
        """The solution is ``value``; the historical ``.x`` alias is gone."""
        n = 12
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = q @ np.diag(np.linspace(1.0, 3.0, n)) @ q.T
        with repro.Session(cfg) as session:
            result = session.solve(a, rng.standard_normal(n), method="jacobi")
        assert result.value.shape == (n,)
        assert not hasattr(result, "x")
