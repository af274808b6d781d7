"""``repro serve`` — the residue-GEMM service host.

A :class:`ReproServer` is a :class:`~repro.session.Session` behind a
socket: a stdlib :class:`http.server.ThreadingHTTPServer` (one thread per
connection, HTTP/1.1 keep-alive) whose handlers decode the binary frames
of :mod:`repro.service.protocol`, route matrix operands through the
session's transparent operand cache, queue concurrent GEMMs on one drain
worker (:class:`~repro.service.coalescer.RequestCoalescer`, which runs each
through :meth:`Session.gemm <repro.session.Session.gemm>`) and answer with
the framed result.  No dependency beyond the standard library
crosses the wire — no pickling, no third-party RPC stack.

Endpoints (all under ``/v1``):

=================  ====  ====================================================
``/gemm``          POST  emulated ``A @ B`` (queued on the coalescer)
``/gemv``          POST  emulated ``A @ x`` via the residue-GEMV fast path
``/solve``         POST  iterative solve (``cg``/``pcg``/``jacobi``/``ir``)
``/prepare``       POST  warm the operand cache, returns the fingerprint ack
``/stats``         GET   JSON: session ledger, cache and coalescing counters
``/health``        GET   JSON liveness probe (version, protocol, uptime)
=================  ====  ====================================================

Operand caching over the wire: inline uploads are fingerprinted and
prepared into the cache; the response's ``"learned"`` ack tells the client
it may send the fingerprint alone next time.  A fingerprint whose entry was
evicted gets the ``operand-missing`` error and the client retries inline —
the cache stays transparent end to end, and a warm hit is bit-identical to
a cold miss by construction.
"""

from __future__ import annotations

import inspect
import json
import logging
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import __version__, faults
from ..analysis.lockorder import named_lock
from ..apps.solvers import solver_for
from ..config import ComputeMode, Ozaki2Config
from ..core.operand import ResidueOperand
from ..errors import ReproError, ValidationError
from ..result import Result
from ..session import Session
from .cache import DEFAULT_CAPACITY_BYTES, cache_key
from .coalescer import RequestCoalescer
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_DEADLINE,
    ERROR_INTERNAL,
    ERROR_OPERAND_MISSING,
    ERROR_OVERLOADED,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
)

__all__ = ["ReproServer"]

_LOG = logging.getLogger(__name__)

#: Largest accepted request body (1 GiB — a 8192x8192 fp64 pair with room).
_MAX_BODY_BYTES = 1 << 30


class _OperandMissing(ReproError):
    """A fingerprint reference named an evicted/never-seen operand."""


def _apply_config_overrides(config: Ozaki2Config, overrides: Dict) -> Ozaki2Config:
    """Apply the wire request's config overrides (a small, explicit set)."""
    if not overrides:
        return config
    allowed = {"num_moduli", "mode", "target_accuracy", "precision"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ValidationError(
            f"unknown config override(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    overrides = dict(overrides)
    precision = overrides.pop("precision", None)
    if precision is not None:
        # Only the precision changes; every other session field (selection
        # model, target, kernel, runtime knobs) is kept.
        if str(precision).lower() not in ("fp64", "fp32"):
            raise ValidationError(
                f"unknown precision {precision!r}; expected 'fp64' or 'fp32'"
            )
        overrides["precision"] = str(precision).lower()
    if "mode" in overrides:
        overrides["mode"] = ComputeMode(str(overrides["mode"]).lower())
    return config.replace(**overrides)


class ReproServer:
    """The serving facade: owns the session, the coalescer and the socket.

    Parameters
    ----------
    config:
        Session configuration (FP64 fast mode when omitted).
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port` after
        construction — the smoke tests and the benchmark rely on this).
    cache_bytes:
        Operand-cache budget (0 disables transparent caching; fingerprint
        references then always answer ``operand-missing``).
    max_batch:
        The most queued GEMMs the
        :class:`~repro.service.coalescer.RequestCoalescer` drains at once.
    max_queue:
        Load-shedding budget: when the coalescer backlog reaches this many
        queued GEMMs, further ``/v1/gemm`` requests are shed with HTTP 503,
        a ``Retry-After`` header and an :data:`~repro.service.protocol.
        ERROR_OVERLOADED` frame instead of growing the queue without bound.
        ``0`` (default) disables shedding.  CLI: ``repro serve
        --max-queue``.
    retry_after_seconds:
        The backoff hint attached to shed responses (default 0.25 s).
    """

    def __init__(
        self,
        config: Optional[Ozaki2Config] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_bytes: int = DEFAULT_CAPACITY_BYTES,
        max_batch: int = 16,
        max_queue: int = 0,
        retry_after_seconds: float = 0.25,
    ) -> None:
        self.max_queue = max(0, int(max_queue))
        self.retry_after_seconds = max(0.0, float(retry_after_seconds))
        self.session = Session(config=config, cache_bytes=cache_bytes)
        self.coalescer = RequestCoalescer(self.session, max_batch=max_batch)
        self._started = time.perf_counter()
        self._requests: Dict[str, int] = {}
        self._requests_lock = named_lock("service.server._requests_lock")
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "ReproServer":
        """Serve in a background thread (for tests/embedding); returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's blocking mode)."""
        self._httpd.serve_forever(poll_interval=0.2)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting, drain the coalescer, shut the session down.

        Threads that fail to stop within ``timeout`` are detected, logged
        and surfaced as a :class:`RuntimeError` *after* the remaining
        teardown has run — a hung shutdown must never look like a clean
        one, and must not strand the session's shared-memory segments
        either.
        """
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        hung: List[str] = []
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                hung.append(f"server thread {self._thread.name!r}")
        try:
            self.coalescer.close(timeout=timeout)
        except RuntimeError as exc:
            hung.append(str(exc))
        self.session.close()
        if hung:
            _LOG.error(
                "server shutdown incomplete; still running: %s", "; ".join(hung)
            )
            raise RuntimeError(
                f"server shutdown incomplete; still running: {'; '.join(hung)}"
            )

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- request accounting --------------------------------------------------
    def _count(self, endpoint: str) -> None:
        with self._requests_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def stats(self) -> Dict[str, object]:
        """The ``/v1/stats`` document: one ledger for compute and caching."""
        stats = self.session.stats()
        with self._requests_lock:
            per_endpoint = dict(self._requests)
        stats.update(
            {
                "server_uptime_seconds": time.perf_counter() - self._started,
                "endpoint_requests": per_endpoint,
                "coalescer": self.coalescer.stats(),
                "max_queue": self.max_queue,
                "backlog": self.coalescer.backlog(),
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
            }
        )
        return stats

    # -- operand resolution --------------------------------------------------
    def _resolve_operand(
        self,
        name: str,
        side: str,
        header: Dict,
        arrays: Dict[str, np.ndarray],
        config: Ozaki2Config,
        learned: Dict[str, str],
        converted: Optional[Dict[str, float]] = None,
    ) -> "np.ndarray | ResidueOperand":
        """Resolve one request operand: inline bytes or fingerprint reference.

        Inline matrices are pushed through the session cache (when eligible)
        and acked in ``learned``; a cache miss converts here, and records the
        seconds it took in ``converted`` under the operand's name.
        Fingerprint references are looked up and answer
        :class:`_OperandMissing` when evicted.  Vectors and accurate-mode
        operands pass through uncached.
        """
        ref = (header.get("refs") or {}).get(name)
        if ref is not None:
            fingerprint = str(ref.get("fingerprint", ""))
            # get() counts the hit/miss in the cache and session ledgers and
            # refreshes LRU recency — a fingerprint lookup is a real lookup.
            operand = self.session.cache.get(cache_key(side, fingerprint, config))
            if operand is None:
                raise _OperandMissing(
                    f"operand {name!r} (fingerprint {fingerprint[:16]}…) is not "
                    "cached on this server; resend it inline"
                )
            return operand
        if name not in arrays:
            raise ValidationError(f"request is missing operand {name!r}")
        array = arrays[name]
        if (
            array.ndim == 2
            and min(array.shape) >= 2
            and config.mode is ComputeMode.FAST
            and self.session.cache.capacity_bytes > 0
        ):
            operand, converted_here = self.session.cache.get_or_prepare(array, side, config)
            learned[name] = operand.fingerprint
            if converted_here and converted is not None:
                converted[name] = operand.convert_seconds
            return operand
        return array

    # -- endpoint handlers ---------------------------------------------------
    def handle_request(
        self, path: str, body: bytes
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Dispatch one POST body; never raises.

        Returns ``(http_status, response_frame, extra_headers)``.  The
        pre-existing protocol errors stay on HTTP 200 (clients dispatch on
        the frame's error code); the resilience layer adds genuinely
        HTTP-level conditions: 503 + ``Retry-After`` when the coalescer
        backlog exceeds ``max_queue``, 504 when the request's propagated
        ``deadline_ms`` expires before the result is ready.
        """
        try:
            header, arrays = decode_frame(body)
        except ValidationError as exc:
            return 200, error_frame(ERROR_BAD_REQUEST, str(exc)), {}
        deadline_at: Optional[float] = None
        if header.get("deadline_ms") is not None:
            try:
                deadline_at = time.monotonic() + float(header["deadline_ms"]) / 1e3
            except (TypeError, ValueError):
                return (
                    200,
                    error_frame(
                        ERROR_BAD_REQUEST,
                        f"bad deadline_ms {header['deadline_ms']!r}",
                    ),
                    {},
                )
        try:
            if path == "/v1/gemm":
                if self.max_queue > 0 and self.coalescer.backlog() >= self.max_queue:
                    self._count("shed")
                    retry_after = self.retry_after_seconds
                    return (
                        503,
                        error_frame(
                            ERROR_OVERLOADED,
                            f"coalescer backlog >= max_queue={self.max_queue}; "
                            "retry after backoff",
                            retry_after=retry_after,
                        ),
                        {"Retry-After": f"{retry_after:.3f}"},
                    )
                return 200, self._handle_gemm(header, arrays, deadline_at), {}
            self._check_deadline(deadline_at)
            if path == "/v1/gemv":
                return 200, self._handle_gemv(header, arrays), {}
            if path == "/v1/solve":
                return 200, self._handle_solve(header, arrays), {}
            if path == "/v1/prepare":
                return 200, self._handle_prepare(header, arrays), {}
            return 200, error_frame(ERROR_BAD_REQUEST, f"unknown endpoint {path!r}"), {}
        except (TimeoutError, FuturesTimeout):
            self._count("deadline")
            return (
                504,
                error_frame(ERROR_DEADLINE, "request deadline expired"),
                {},
            )
        except _OperandMissing as exc:
            return 200, error_frame(ERROR_OPERAND_MISSING, str(exc)), {}
        except (ValidationError, ReproError) as exc:
            return 200, error_frame(ERROR_BAD_REQUEST, str(exc)), {}
        except Exception as exc:  # the server must answer, never raise
            return 200, error_frame(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}"), {}

    @staticmethod
    def _check_deadline(deadline_at: Optional[float]) -> None:
        """Raise :class:`TimeoutError` when a propagated deadline expired."""
        if deadline_at is not None and time.monotonic() >= deadline_at:
            raise TimeoutError("request deadline expired before execution")

    def _request_config(self, header: Dict) -> Ozaki2Config:
        return _apply_config_overrides(self.session.config, header.get("config") or {})

    @staticmethod
    def _result_meta(result: Result) -> Dict[str, object]:
        """The JSON-safe result metadata shared by gemm/gemv responses."""
        meta: Dict[str, object] = {
            "method": result.config.method_name,
            "num_moduli": int(result.config.num_moduli),
            "moduli_history": [int(n) for n in result.moduli_history],
        }
        if result.phase_times is not None:
            meta["phase_seconds"] = {
                key: float(val) for key, val in result.phase_times.seconds.items()
            }
        return meta

    def _handle_gemm(
        self,
        header: Dict,
        arrays: Dict[str, np.ndarray],
        deadline_at: Optional[float] = None,
    ) -> bytes:
        self._count("gemm")
        self._check_deadline(deadline_at)
        config = self._request_config(header)
        learned: Dict[str, str] = {}
        a = self._resolve_operand("a", "A", header, arrays, config, learned)
        b = self._resolve_operand("b", "B", header, arrays, config, learned)
        future = self.coalescer.submit(a, b, config)
        if deadline_at is None:
            result = future.result()
        else:
            # Block only for the propagated budget; an expired wait maps to
            # the 504 deadline response (the batch still completes server-
            # side — its work is simply no longer claimable by this caller).
            result = future.result(timeout=max(0.0, deadline_at - time.monotonic()))
        return encode_frame(
            {"ok": True, "learned": learned, "result": self._result_meta(result)},
            {"value": result.value},
        )

    def _handle_gemv(self, header: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
        self._count("gemv")
        config = self._request_config(header)
        learned: Dict[str, str] = {}
        a = self._resolve_operand("a", "A", header, arrays, config, learned)
        if "x" not in arrays:
            raise ValidationError("gemv request is missing the vector 'x'")
        result = self.session.gemv(a, arrays["x"], config=config)
        return encode_frame(
            {"ok": True, "learned": learned, "result": self._result_meta(result)},
            {"value": result.value},
        )

    def _handle_solve(self, header: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
        self._count("solve")
        config = self._request_config(header)
        method = str(header.get("method", "cg"))
        solver = solver_for(method)
        options = header.get("options") or {}
        if not isinstance(options, dict):
            raise ValidationError(f"solve options must be an object, got {options!r}")
        # The options become the solver's keyword arguments: only its own
        # parameters, less the system and what the server supplies itself.
        accepted = set(inspect.signature(solver).parameters) - {"a", "b", "config", "prepared"}
        unknown = sorted(set(options) - accepted)
        if unknown:
            raise ValidationError(
                f"unknown {method} solve options {unknown}; expected some of {sorted(accepted)}"
            )
        learned: Dict[str, str] = {}
        converted: Dict[str, float] = {}
        a = self._resolve_operand("a", "A", header, arrays, config, learned, converted)
        if "b" not in arrays:
            raise ValidationError("solve request is missing the right-hand side 'b'")
        if isinstance(a, np.ndarray):
            result = self.session.solve(a, arrays["b"], method=method,
                                        config=config, **options)
        else:
            # Fingerprint path: the cache held the prepared system matrix;
            # the solver needs the raw matrix for diagonals/preconditioning,
            # which the operand retains as its source.
            result = self.session.solve(
                np.asarray(a.source), arrays["b"], method=method, config=config,
                prepared=a, **options,
            )
        if "a" in converted:
            # The conversion above ran before the session saw the matrix, so
            # the session reported reuse; this request paid for it.
            result.prepare_seconds = converted["a"]
            result.seconds += converted["a"]
        meta = {
            "method": result.method,
            "converged": bool(result.converged),
            "iterations": int(result.iterations),
            "residual_norm": float(result.residual_norm),
            "prepare_seconds": float(result.prepare_seconds),
            "seconds": float(result.seconds),
            "precond": result.precond,
            "precond_seconds": float(result.precond_seconds),
            "moduli_history": [int(n) for n in result.moduli_history],
        }
        return encode_frame(
            {"ok": True, "learned": learned, "result": meta}, {"value": result.value}
        )

    def _handle_prepare(self, header: Dict, arrays: Dict[str, np.ndarray]) -> bytes:
        self._count("prepare")
        config = self._request_config(header)
        side = str(header.get("side", "A")).upper()
        if "x" not in arrays:
            raise ValidationError("prepare request is missing the matrix 'x'")
        operand = self.session.prepare(arrays["x"], side=side, config=config)
        return encode_frame(
            {
                "ok": True,
                "learned": {"x": operand.fingerprint},
                "result": {
                    "fingerprint": operand.fingerprint,
                    "side": operand.side,
                    "num_moduli": operand.num_moduli,
                    "nbytes": operand.nbytes,
                    "convert_seconds": float(operand.convert_seconds),
                },
            }
        )


def _make_handler(server: ReproServer) -> "type[BaseHTTPRequestHandler]":
    """Build the request-handler class bound to one :class:`ReproServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive: one connection, many calls
        server_version = f"repro-serve/{__version__}"
        # Responses are written header-then-body; without TCP_NODELAY the
        # Nagle/delayed-ACK interaction adds ~40ms to every round trip.
        disable_nagle_algorithm = True

        # The default handler logs every request to stderr; the serve loop
        # is long-lived, so stay quiet unless something goes wrong.
        def log_message(self, fmt: str, *args: object) -> None:
            pass

        def _send(
            self,
            status: int,
            body: bytes,
            content_type: str,
            extra_headers: Optional[Dict[str, str]] = None,
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra_headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # http.server spells handlers do_VERB
            if self.path == "/v1/health":
                server._count("health")
                doc = {
                    "ok": True,
                    "version": __version__,
                    "protocol": PROTOCOL_VERSION,
                    "uptime_seconds": time.perf_counter() - server._started,
                }
            elif self.path == "/v1/stats":
                server._count("stats")
                doc = server.stats()
            else:
                self._send(404, b'{"ok": false, "error": "not found"}',
                           "application/json")
                return
            self._send(200, json.dumps(doc).encode("utf-8"), "application/json")

        def do_POST(self) -> None:  # http.server spells handlers do_VERB
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0 or length > _MAX_BODY_BYTES:
                self._send(
                    400,
                    error_frame(ERROR_BAD_REQUEST, f"bad Content-Length {length}"),
                    "application/octet-stream",
                )
                return
            body = self.rfile.read(length)
            status, response, extra_headers = server.handle_request(self.path, body)
            if faults.should_fire("service.drop_frame"):
                # Chaos: the response is computed but never written — the
                # client sees the connection die mid-exchange, exactly like
                # a crashed/partitioned server, and must reconnect + retry.
                self.close_connection = True
                return
            # Chaos: a stalled response frame (slow disk, GC pause, packet
            # loss recovery) — exercises the client's timeout/retry budget.
            faults.sleep_if("service.slow_frame")
            self._send(status, response, "application/octet-stream", extra_headers)

    return Handler
