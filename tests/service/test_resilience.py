"""Targeted resilience regressions: shutdown, backoff, eviction retries.

These pin the failure-handling contracts directly, without fault
injection: the coalescer's collection window can never block forever, a
hung shutdown raises instead of pretending to succeed, the client's
backoff schedule is seeded and capped, and the operand-eviction retry
gives up typed after one inline resend.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import matrix_fingerprint
from repro.service import ReproServer, ServiceClient, ServiceError
from repro.service.coalescer import RequestCoalescer
from repro.service.protocol import (
    ERROR_DEADLINE,
    ERROR_OPERAND_MISSING,
    decode_frame,
    error_frame,
)
from repro.session import Session

CFG = Ozaki2Config.for_dgemm(num_moduli=10)


class TestCoalescerWindow:
    def test_lone_request_with_zero_window_completes_promptly(self, rng):
        """Regression: collecting a batch must poll non-blocking, never
        ``get(timeout=None)`` — a lone request used to hang forever."""
        a = rng.standard_normal((16, 12))
        b = rng.standard_normal((12, 8))
        with Session(config=CFG) as session:
            coalescer = RequestCoalescer(session)
            try:
                future = coalescer.submit(a, b, CFG)
                result = future.result(timeout=10.0)
            finally:
                coalescer.close()
        assert np.array_equal(result.value, ozaki2_gemm(a, b, config=CFG))

    def test_expired_window_still_drains_queued_burst(self, rng):
        """With no window to wait in, whatever is already queued still coalesces."""
        a = rng.standard_normal((16, 12))
        bs = [rng.standard_normal((12, 8)) for _ in range(4)]
        with Session(config=CFG) as session:
            coalescer = RequestCoalescer(session)
            try:
                futures = [coalescer.submit(a, b, CFG) for b in bs]
                results = [f.result(timeout=10.0) for f in futures]
            finally:
                coalescer.close()
        for got, b in zip(results, bs, strict=True):
            assert np.array_equal(got.value, ozaki2_gemm(a, b, config=CFG))


class TestHungShutdown:
    def test_hung_drain_worker_raises_instead_of_vanishing(self, rng, monkeypatch):
        a = rng.standard_normal((12, 10))
        b = rng.standard_normal((10, 8))
        release = threading.Event()
        with Session(config=CFG) as session:
            coalescer = RequestCoalescer(session)
            real_gemm = session.gemm

            def wedged_gemm(*args: object, **kwargs: object) -> object:
                release.wait()
                return real_gemm(*args, **kwargs)

            monkeypatch.setattr(session, "gemm", wedged_gemm)
            future = coalescer.submit(a, b, CFG)
            with pytest.raises(RuntimeError, match="failed to stop"):
                coalescer.close(timeout=0.2)
            # Un-wedge: the request runs, the pending future still
            # resolves, and the worker exits cleanly.
            release.set()
            assert np.array_equal(
                future.result(timeout=10.0).value, ozaki2_gemm(a, b, config=CFG)
            )
            coalescer._worker.join(timeout=10.0)
            assert not coalescer._worker.is_alive()

    def test_hung_server_shutdown_raises_but_still_closes_session(self, monkeypatch):
        srv = ReproServer(config=CFG, port=0).start()
        real_coalescer_close = srv.coalescer.close
        real_session_close = srv.session.close
        session_closed = []

        def wedged_close(timeout: float = 10.0) -> None:
            raise RuntimeError(
                "coalescer drain worker 'repro-coalescer' failed to stop (simulated)"
            )

        monkeypatch.setattr(srv.coalescer, "close", wedged_close)
        monkeypatch.setattr(
            srv.session, "close", lambda: session_closed.append(True)
        )
        try:
            with pytest.raises(RuntimeError, match="shutdown incomplete"):
                srv.close(timeout=0.5)
            # The hang was surfaced *after* the rest of the teardown ran:
            # the session was still closed, nothing is stranded.
            assert session_closed == [True]
        finally:
            real_coalescer_close()
            real_session_close()


class TestClientBackoff:
    def test_schedule_is_seeded_capped_and_jittered(self):
        kwargs = dict(backoff_base=0.05, backoff_cap=0.2)
        one = ServiceClient(retry_seed=7, **kwargs)
        two = ServiceClient(retry_seed=7, **kwargs)
        other = ServiceClient(retry_seed=8, **kwargs)
        schedule = [one._backoff_seconds(i) for i in range(6)]
        assert schedule == [two._backoff_seconds(i) for i in range(6)]
        assert schedule != [other._backoff_seconds(i) for i in range(6)]
        # Jitter keeps each sleep in [base/2, base); the cap bounds growth.
        assert all(0.0 <= s < 0.2 for s in schedule)
        assert 0.1 <= schedule[5] < 0.2  # 0.05 * 2^5 = 1.6, capped at 0.2

    def test_backoff_sleep_refused_when_deadline_is_too_close(self):
        cli = ServiceClient()
        with pytest.raises(ServiceError) as excinfo:
            cli._sleep_before_retry(0, time.monotonic() + 0.001, delay=5.0)
        assert excinfo.value.code == ERROR_DEADLINE


class TestEvictionRetryExhaustion:
    def test_operand_missing_twice_surfaces_typed_after_inline_resend(
        self, rng, monkeypatch
    ):
        """A server that keeps answering operand-missing (cache thrashing)
        gets exactly one inline resend, then a typed error — no loop."""
        cli = ServiceClient(port=1)  # never actually connects
        a = np.ascontiguousarray(rng.standard_normal((8, 8)))
        b = np.ascontiguousarray(rng.standard_normal((8, 8)))
        fp_a, fp_b = matrix_fingerprint(a), matrix_fingerprint(b)
        cli._known.update({("A", fp_a), ("B", fp_b)})  # believe both are resident
        frames = []

        def stubbed_roundtrip(path, body, deadline_at=None):
            header, arrays = decode_frame(body)
            frames.append((header.get("refs") or {}, set(arrays)))
            return error_frame(ERROR_OPERAND_MISSING, "evicted (stub)")

        monkeypatch.setattr(cli, "_roundtrip", stubbed_roundtrip)
        with pytest.raises(ServiceError) as excinfo:
            cli.gemm(a, b)
        assert excinfo.value.code == ERROR_OPERAND_MISSING
        assert len(frames) == 2
        # Attempt 0 sent fingerprint references; attempt 1 resent bytes.
        assert set(frames[0][0]) == {"a", "b"} and frames[0][1] == set()
        assert frames[1][0] == {} and frames[1][1] == {"a", "b"}
        # The acks were un-learned: the next request starts cold.
        assert cli._known == set()
