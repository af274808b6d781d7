"""End-to-end service tests: negotiation, coalescing, errors, observability.

Each test boots a real :class:`repro.service.ReproServer` on a free
loopback port and talks to it with :class:`repro.service.ServiceClient` —
the exact production path including HTTP framing, the operand cache and
the request coalescer.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.apps.solvers import cg_solve, pcg_solve
from repro.service import cache as cache_module
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import matrix_fingerprint, prepare_a
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.protocol import ERROR_BAD_REQUEST
from repro.session import Session
from repro.workloads import spd_matrix


CFG = Ozaki2Config.for_dgemm(num_moduli=10)


@pytest.fixture
def server():
    with ReproServer(config=CFG, port=0).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as cli:
        yield cli


def _spd(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(np.linspace(1.0, 8.0, n)) @ q.T


class TestRoundTrips:
    def test_gemm_cold_then_warm_is_bit_identical(self, server, client, rng):
        a = rng.standard_normal((28, 20))
        b = rng.standard_normal((20, 24))
        reference = ozaki2_gemm(a, b, config=CFG)

        cold = client.gemm(a, b)
        stats = server.stats()
        assert stats["cache"]["misses"] == 2 and stats["cache"]["hits"] == 0

        warm = client.gemm(a, b)
        stats = server.stats()
        assert stats["cache"]["hits"] == 2 and stats["cache"]["misses"] == 2

        assert np.array_equal(cold.value, reference)
        assert np.array_equal(warm.value, reference)
        assert warm.method_name == CFG.method_name

    def test_gemv_round_trip(self, server, client, rng):
        a = rng.standard_normal((32, 26))
        x = rng.standard_normal(26)
        result = client.gemv(a, x)
        assert np.array_equal(result.value, prepared_gemv(a, x, config=CFG))
        # Second call goes fingerprint-only and still matches.
        again = client.gemv(a, x)
        assert np.array_equal(again.value, result.value)
        assert server.stats()["cache"]["hits"] == 1

    def test_solve_round_trip_warm_skips_preparation(self, server, client, rng):
        a = _spd(rng, 20)
        b = rng.standard_normal(20)
        reference = cg_solve(a, b, config=CFG, tol=1e-10)

        cold = client.solve(a, b, method="cg", tol=1e-10)
        warm = client.solve(a, b, method="cg", tol=1e-10)
        assert np.array_equal(cold.value, reference.value)
        assert np.array_equal(warm.value, reference.value)
        assert bool(warm.meta["converged"])
        # The warm request referenced the cached conversion: zero prep.
        assert warm.meta["prepare_seconds"] == 0.0

    def test_cold_solve_reports_the_conversion_it_paid(self):
        a = spd_matrix(32, seed=1)
        b = np.ones(32)
        config = Ozaki2Config.for_dgemm(15)
        with ReproServer(config=config).start() as srv, ServiceClient(port=srv.port) as cli:
            cold = cli.solve(a, b, method="pcg", precond="ilu0")
            warm = cli.solve(a, b, method="pcg", precond="ilu0")
        # The server converted A on the cache miss before the session saw it.
        assert cold.meta["prepare_seconds"] > 0.0
        paid = cold.meta["prepare_seconds"] + cold.meta["precond_seconds"]
        assert cold.meta["seconds"] >= paid
        assert warm.meta["prepare_seconds"] == 0.0
        with Session(config=config) as session:
            local = session.solve(a, b, method="pcg", precond="ilu0")
        assert local.prepare_seconds > 0.0
        assert cold.value.tobytes() == local.value.tobytes()

    def test_pcg_ilu0_solves_factor_once_per_fingerprint(
        self, server, client, rng, monkeypatch
    ):
        factored = []
        real = cache_module.make_preconditioner

        def spy(a, kind, omega=1.0):
            factored.append(kind)
            return real(a, kind, omega=omega)

        monkeypatch.setattr(cache_module, "make_preconditioner", spy)
        a = _spd(rng, 20)
        b = rng.standard_normal(20)
        cold = client.solve(a, b, method="pcg", precond="ilu0", tol=1e-10)
        warm = client.solve(a, b, method="pcg", precond="ilu0", tol=1e-10)
        assert factored == ["ilu0"]
        # The response says which request paid the factorisation.
        assert cold.meta["precond_seconds"] > 0.0
        assert warm.meta["precond_seconds"] == 0.0
        assert warm.value.tobytes() == cold.value.tobytes()
        assert warm.meta["residual_norm"] == cold.meta["residual_norm"]
        reference = pcg_solve(a, b, config=CFG, precond="ilu0", tol=1e-10)
        assert cold.value.tobytes() == reference.value.tobytes()

    def test_prepare_warms_the_cache_for_gemm(self, server, client, rng):
        a = rng.standard_normal((24, 24))
        ack = client.prepare(a, side="A")
        assert ack["fingerprint"] == matrix_fingerprint(
            np.ascontiguousarray(a, dtype=np.float64)
        )
        assert ack["num_moduli"] == CFG.num_moduli
        assert ack["nbytes"] == prepare_a(a, config=CFG).nbytes
        # The follow-up gemm finds A resident (only B misses).
        client.gemm(a, rng.standard_normal((24, 16)))
        stats = server.stats()
        assert stats["cache"]["hits"] == 1

    def test_config_override_changes_moduli(self, server, client, rng):
        a = rng.standard_normal((16, 12))
        b = rng.standard_normal((12, 8))
        result = client.gemm(a, b, config={"num_moduli": 13})
        assert result.meta["num_moduli"] == 13
        assert "13" in result.method_name
        reference = ozaki2_gemm(a, b, config=CFG.replace(num_moduli=13))
        assert np.array_equal(result.value, reference)

    @pytest.mark.parametrize(
        "session_config",
        [
            Ozaki2Config.for_dgemm(num_moduli="auto", selection_model="rigorous"),
            Ozaki2Config.for_dgemm(num_moduli="auto", target_accuracy=1e-6),
        ],
        ids=["rigorous", "target-1e-6"],
    )
    def test_precision_override_keeps_the_session_config(self, session_config, rng):
        """A precision override replaces the precision only: the session's
        selection model and accuracy target still decide N."""
        a = rng.standard_normal((32, 128))
        b = rng.standard_normal((128, 16))
        reference = ozaki2_gemm(a, b, config=session_config, return_details=True)
        with ReproServer(config=session_config, port=0).start() as srv:
            with ServiceClient(port=srv.port) as cli:
                plain = cli.gemm(a, b)
                same = cli.gemm(a, b, config={"precision": "fp64"})
        want = reference.config.num_moduli
        assert plain.meta["num_moduli"] == same.meta["num_moduli"] == want
        assert np.array_equal(same.value, reference.value)

    def test_health_and_stats_documents(self, server, client, rng):
        health = client.health()
        assert health["ok"] is True
        assert health["protocol"] == 1
        client.gemm(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        stats = client.stats()
        assert stats["endpoint_requests"]["gemm"] == 1
        assert stats["method"] == CFG.method_name
        assert set(stats["cache"]) >= {"hits", "misses", "evictions", "entries"}
        assert set(stats["coalescer"]) >= {"batches", "requests"}
        assert stats["ledger"]["matmul_calls"] >= 1


class TestNegotiation:
    def test_eviction_triggers_transparent_inline_retry(self, rng):
        entry = prepare_a(
            np.random.default_rng(0).standard_normal((24, 24)), config=CFG
        ).nbytes
        # Room for a single matrix: each new operand evicts the previous.
        with ReproServer(config=CFG, cache_bytes=int(1.5 * entry)).start() as srv:
            with ServiceClient(port=srv.port) as cli:
                a1 = rng.standard_normal((24, 24))
                a2 = rng.standard_normal((24, 24))
                x = rng.standard_normal(24)
                cli.gemv(a1, x)  # learn a1
                cli.gemv(a2, x)  # evicts a1, learns a2
                assert srv.stats()["cache"]["evictions"] >= 1
                # The client still believes a1 is resident; the server
                # answers operand-missing and the client retries inline.
                result = cli.gemv(a1, x)
                assert np.array_equal(result.value, prepared_gemv(a1, x, config=CFG))

    def test_fresh_transposed_operands_are_fingerprinted_afresh(self, server, client, rng):
        """A freed temporary's ``id()`` never lends its fingerprint to a new one.

        ``A.T`` is not C-contiguous, so the client fingerprints a contiguous
        temporary, which is freed after the request; the next temporary
        often reuses its ``id()``.  Each product must still be this
        request's, bit for bit.
        """
        b = rng.standard_normal((8, 8))
        with Session(CFG) as local:
            for _ in range(50):
                a = rng.standard_normal((8, 8)).T
                remote = client.gemm(a, b)
                assert np.array_equal(remote.value, local.gemm(a, b).value)

    def test_fingerprints_disabled_always_uploads(self, server, rng):
        with ServiceClient(port=server.port, use_fingerprints=False) as cli:
            a = rng.standard_normal((16, 16))
            b = rng.standard_normal((16, 16))
            cli.gemm(a, b)
            cli.gemm(a, b)
        # Both calls hit the transparent server-side cache by content, so
        # the second upload still reuses the conversions.
        stats = server.stats()
        assert stats["cache"]["hits"] == 2
        assert stats["cache"]["misses"] == 2


class TestErrors:
    def test_unknown_endpoint(self, server, client, rng):
        with pytest.raises(ServiceError) as excinfo:
            client._call("/v1/nope", {"op": "nope"}, {})
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_unknown_solve_method(self, server, client, rng):
        with pytest.raises(ServiceError) as excinfo:
            client.solve(_spd(rng, 8), np.ones(8), method="gauss")
        assert excinfo.value.code == ERROR_BAD_REQUEST

    @pytest.mark.parametrize(
        "method, options",
        [
            ("cg", {"foo": 1}),
            ("ir", {"precond": "ilu0"}),
            ("cg", {"max_iter": "many"}),
            ("cg", {"tol": "abc"}),
            ("cg", {"prepared": "mine"}),
            ("pcg", {"precond": "ssor", "omega": "x"}),
            ("cg", {"progressive": "no"}),
        ],
    )
    def test_malformed_solve_options(self, server, client, rng, method, options):
        """Options a solver does not take, or cannot read, are the caller's error."""
        with pytest.raises(ServiceError) as excinfo:
            client.solve(_spd(rng, 8), np.ones(8), method=method, **options)
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_unknown_config_override(self, server, client, rng):
        with pytest.raises(ServiceError) as excinfo:
            client.gemm(
                np.eye(8), np.eye(8), config={"blocking": 4}
            )
        assert excinfo.value.code == ERROR_BAD_REQUEST

    def test_shape_mismatch_is_an_error_not_a_hang(self, server, client, rng):
        with pytest.raises(ServiceError):
            client.gemm(rng.standard_normal((8, 4)), rng.standard_normal((8, 4)))
        # A non-finite operand is the caller's error, not the server's.
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        bad = b.copy()
        bad[3, 5] = np.nan
        with pytest.raises(ServiceError) as excinfo:
            client.gemm(a, bad)
        assert excinfo.value.code == ERROR_BAD_REQUEST
        # A tiny but finite B side (its scales lie beyond float64 as factors)
        # computes, bit-identically to the in-process product.
        got = client.gemm(a, b * 1e-300).value
        np.testing.assert_array_equal(got, ozaki2_gemm(a, b * 1e-300, config=CFG))

    def test_missing_operand_in_frame(self, server, client):
        with pytest.raises(ServiceError) as excinfo:
            client._call("/v1/gemm", {"op": "gemm"}, {})
        assert excinfo.value.code == ERROR_BAD_REQUEST


class TestCoalescing:
    def test_concurrent_gemms_are_batched_and_bit_identical(self, rng):
        a = rng.standard_normal((24, 20))
        bs = [rng.standard_normal((20, 16)) for _ in range(8)]
        references = [ozaki2_gemm(a, b, config=CFG) for b in bs]
        with ReproServer(config=CFG).start() as srv:
            with ServiceClient(port=srv.port) as warmup:
                warmup.prepare(a, side="A")
            results = [None] * len(bs)
            errors = []

            def worker(i: int) -> None:
                try:
                    with ServiceClient(port=srv.port) as cli:
                        results[i] = cli.gemm(a, bs[i]).value
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(bs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = srv.stats()["coalescer"]
        for got, want in zip(results, references, strict=True):
            assert np.array_equal(got, want)
        # The burst arrived concurrently: fewer batches than requests.
        assert stats["requests"] == len(bs)
        assert stats["batches"] <= stats["requests"]
        assert stats["largest_batch"] >= 1
