"""Client of the residue-GEMM service: fingerprint-negotiated uploads.

:class:`ServiceClient` mirrors the :class:`~repro.session.Session` surface
(``gemm`` / ``gemv`` / ``solve`` / ``prepare`` / ``stats``) over the wire
protocol of :mod:`repro.service.protocol`, on a persistent HTTP/1.1
connection (stdlib :mod:`http.client` — nothing to install).

The interesting part is the operand negotiation.  The first time a matrix
is used, the client uploads its bytes; the server prepares it into its
cache and **acks** the content fingerprint in the response's ``"learned"``
object.  From then on the client sends the 32-hex-digit fingerprint in
place of the payload — megabytes per request become bytes — until the
server answers ``operand-missing`` (the entry was evicted), at which point
the client *un-learns* the fingerprint and transparently retries the same
request with the full bytes.  The negotiation is invisible to the caller
and never changes results: a warm fingerprint hit is served from the very
operand a cold upload would have produced.

Resilience
----------
Every request runs under a retry loop with capped exponential backoff and
seeded jitter: transport faults (dropped connections, server restarts,
reaped keep-alive sockets) reconnect and resend; ``503`` load-shed
responses honour the server's ``Retry-After`` hint before retrying; when
the retries are exhausted the *last* transport error is re-raised
unchanged, so callers (and start-up polling loops) still see the plain
``OSError``/``ConnectionError`` they would get without the loop.  An
optional **deadline** (client default or per-call) is propagated to the
server in the frame header as the remaining budget — the server sheds the
request with ``504`` once it expires, and the client refuses to begin a
backoff sleep it cannot finish in time.

>>> from repro.service import ServiceClient
>>> client = ServiceClient(port=7723)                        # doctest: +SKIP
>>> r = client.gemm(a, b)                                    # doctest: +SKIP
>>> r.value                                                  # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import weakref
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..analysis.lockorder import named_lock
from ..errors import ReproError, ValidationError
from ..result import Result
from .protocol import (
    ERROR_DEADLINE,
    ERROR_OPERAND_MISSING,
    decode_frame,
    encode_frame,
)

#: Transport-level failures the retry loop reconnects through.  Everything
#: here means "the bytes never made a well-formed HTTP round trip" — the
#: request is safe to resend (the service's operations are idempotent).
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError, OSError)

__all__ = ["ServiceClient", "RemoteResult", "ServiceError"]


class ServiceError(ReproError):
    """The server answered with an error frame (carries its ``code``)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class RemoteResult(Result):
    """A service response: the value array plus the server's metadata.

    ``value`` holds the computed array; :attr:`meta` the JSON result
    document (method name, moduli history, phase seconds, solver
    diagnostics — whatever the endpoint reports).
    """

    def __init__(self, value: np.ndarray, meta: Dict[str, object]) -> None:
        super().__init__(value=value, moduli_history=[
            int(n) for n in meta.get("moduli_history", [])
        ])
        self.meta = meta

    @property
    def method_name(self) -> str:
        """Server-reported method label (overrides the config-based one)."""
        return str(self.meta.get("method", ""))


class ServiceClient:
    """Talk to a ``repro serve`` instance (see module docstring).

    Parameters
    ----------
    host / port:
        The server's bind address.
    timeout:
        Socket timeout in seconds for each request.
    use_fingerprints:
        Turn the operand negotiation off to always upload bytes (the
        cold-path comparator the throughput benchmark measures against).
    max_retries:
        Transport/load-shed retries *after* the first attempt of each
        request.  ``0`` restores fail-fast behaviour.
    backoff_base / backoff_cap:
        Exponential backoff schedule in seconds: attempt ``i`` sleeps
        ``min(cap, base · 2^i)`` scaled by a jitter factor in ``[0.5, 1)``.
    retry_seed:
        Seed of the jitter RNG — retries are as deterministic as the rest
        of the library.
    deadline:
        Default per-request deadline in seconds (``None`` = none).  The
        remaining budget is sent to the server with every attempt; each
        ``gemm``/``gemv``/``solve``/``prepare`` call can override it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7723,
        timeout: float = 120.0,
        use_fingerprints: bool = True,
        max_retries: int = 4,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        retry_seed: int = 0,
        deadline: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.use_fingerprints = bool(use_fingerprints)
        self.max_retries = max(0, int(max_retries))
        self.backoff_base = max(0.0, float(backoff_base))
        self.backoff_cap = max(0.0, float(backoff_cap))
        self.deadline = None if deadline is None else float(deadline)
        self._retry_rng = random.Random(int(retry_seed))
        self._known: Set[Tuple[str, str]] = set()
        #: Fingerprint memo keyed by ``id(array)``, each entry holding a
        #: weak reference that proves the id still names the same object.
        self._fingerprints: Dict[int, Tuple[weakref.ref, str]] = {}
        self._lock = named_lock("service.client._lock")
        self._local = threading.local()

    # -- connection management ----------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """One persistent keep-alive connection per calling thread."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        if conn.sock is None:
            conn.connect()
            # Nagle + delayed ACK stalls each framed request ~40ms on
            # loopback; small header writes must not wait for the body ACK.
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def close(self) -> None:
        """Close this thread's connection (idle server threads time out)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- retry machinery -----------------------------------------------------
    def _backoff_seconds(self, attempt: int) -> float:
        """Capped exponential backoff with seeded jitter in ``[0.5, 1)``."""
        base = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        with self._lock:
            factor = 0.5 + 0.5 * self._retry_rng.random()
        return base * factor

    def _sleep_before_retry(
        self,
        attempt: int,
        deadline_at: Optional[float],
        delay: Optional[float] = None,
    ) -> None:
        """Back off before retry ``attempt + 1`` — unless the deadline forbids it.

        ``delay`` overrides the exponential schedule (the server's
        ``Retry-After`` hint).  A sleep that would outlive the request
        deadline is refused: the deadline error surfaces immediately
        instead of after a doomed wait.
        """
        seconds = self._backoff_seconds(attempt) if delay is None else max(0.0, delay)
        if deadline_at is not None and time.monotonic() + seconds >= deadline_at:
            raise ServiceError(
                ERROR_DEADLINE,
                f"deadline expires during the {seconds:.3f}s retry backoff",
            )
        if seconds > 0.0:
            time.sleep(seconds)

    def _roundtrip(
        self, path: str, body: bytes, deadline_at: Optional[float] = None
    ) -> bytes:
        """POST one frame, retrying transport faults and 503 load sheds.

        Keep-alive connections die when the server restarts or the OS
        reaps an idle socket; each transport failure reconnects and
        resends after a capped, jittered backoff.  ``503`` answers sleep
        the server's ``Retry-After`` hint instead.  On exhaustion the last
        transport error is re-raised *unchanged* (callers polling for
        server start-up depend on the plain ``OSError``); an exhausted
        load shed returns the ``overloaded`` error frame for the caller's
        decode path to raise as :class:`ServiceError`.
        """
        for attempt in range(self.max_retries + 1):
            try:
                conn = self._connection()
                conn.request(
                    "POST", path, body=body,
                    headers={"Content-Type": "application/octet-stream"},
                )
                response = conn.getresponse()
                payload = response.read()
            except _TRANSPORT_ERRORS:
                self.close()
                if attempt >= self.max_retries:
                    raise
                self._sleep_before_retry(attempt, deadline_at)
                continue
            if response.status == 503 and attempt < self.max_retries:
                hint = response.getheader("Retry-After")
                try:
                    delay = None if hint is None else float(hint)
                except ValueError:
                    delay = None
                self._sleep_before_retry(attempt, deadline_at, delay)
                continue
            return payload
        raise AssertionError("unreachable: retry loop neither returned nor raised")

    # -- operand negotiation -------------------------------------------------
    def _fingerprint(self, array: np.ndarray) -> str:
        """Content fingerprint, memoised per live array object.

        The memo skips re-hashing only while the *same object* is alive and
        reused (the service workload's common case): an entry whose object
        has been freed — a temporary such as the contiguous copy of
        ``A.T`` — never answers for a new object that inherits its
        ``id()``.  The memo does not see in-place writes: an array mutated
        after its first request keeps its first fingerprint, so pass a new
        array (or a copy) for changed contents.
        """
        from ..core.operand import matrix_fingerprint

        with self._lock:
            cached = self._memo_lookup(array)
        if cached is not None:
            return cached
        fingerprint = matrix_fingerprint(array)
        with self._lock:
            self._memo_store(array, fingerprint)
        return fingerprint

    def _memo_lookup(self, array: object) -> Optional[str]:
        """The memoised fingerprint of this very object, if any (lock held)."""
        entry = self._fingerprints.get(id(array))
        if entry is None or entry[0]() is not array:
            return None
        return entry[1]

    def _memo_store(self, array: object, fingerprint: str) -> None:
        """Memoise ``fingerprint`` for this object (lock held)."""
        try:
            ref = weakref.ref(array)
        except TypeError:  # not weak-referenceable: never memoised
            return
        if len(self._fingerprints) > 4096:
            self._fingerprints.clear()
        self._fingerprints[id(array)] = (ref, fingerprint)

    def _encode_operand(
        self,
        name: str,
        side: str,
        array: np.ndarray,
        header: Dict,
        arrays: Dict[str, np.ndarray],
        force_inline: bool,
    ) -> None:
        """Reference the operand by fingerprint when acked, else inline it."""
        array = np.ascontiguousarray(array, dtype=np.float64)
        eligible = (
            self.use_fingerprints
            and not force_inline
            and array.ndim == 2
            and min(array.shape) >= 2
        )
        if eligible:
            fingerprint = self._fingerprint(array)
            with self._lock:
                known = (side, fingerprint) in self._known
            if known:
                header.setdefault("refs", {})[name] = {
                    "fingerprint": fingerprint, "side": side
                }
                return
        arrays[name] = array

    def _learn(self, header: Dict, sides: Dict[str, str]) -> None:
        with self._lock:
            for name, fingerprint in (header.get("learned") or {}).items():
                side = sides.get(name)
                if side is not None:
                    self._known.add((side, str(fingerprint)))

    def _unlearn(self, sides: Dict[str, str], operands: Dict[str, np.ndarray]) -> None:
        for name, side in sides.items():
            array = operands.get(name)
            if array is None or array.ndim != 2:
                continue
            fingerprint = self._fingerprint(
                np.ascontiguousarray(array, dtype=np.float64)
            )
            with self._lock:
                self._known.discard((side, fingerprint))

    def _deadline_at(self, deadline: Optional[float]) -> Optional[float]:
        """Absolute monotonic deadline for one request (call overrides client)."""
        budget = self.deadline if deadline is None else float(deadline)
        if budget is None:
            return None
        return time.monotonic() + budget

    @staticmethod
    def _stamp_deadline(header: Dict, deadline_at: Optional[float]) -> None:
        """Attach the *remaining* budget (clock-skew safe, relative ms)."""
        if deadline_at is not None:
            header["deadline_ms"] = max(
                0.0, (deadline_at - time.monotonic()) * 1e3
            )

    def _call(
        self,
        path: str,
        header: Dict,
        operands: Dict[str, Tuple[str, np.ndarray]],
        extra_arrays: Optional[Dict[str, np.ndarray]] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[Dict, Dict[str, np.ndarray]]:
        """One negotiated request: fingerprint first, inline retry on miss."""
        sides = {name: side for name, (side, _) in operands.items()}
        raw = {name: array for name, (_, array) in operands.items()}
        deadline_at = self._deadline_at(deadline)
        for attempt in (0, 1):
            request_header = {key: val for key, val in header.items()}
            self._stamp_deadline(request_header, deadline_at)
            arrays: Dict[str, np.ndarray] = {}
            for name, (side, array) in operands.items():
                self._encode_operand(
                    name, side, array, request_header, arrays, force_inline=attempt > 0
                )
            arrays.update(extra_arrays or {})
            response = self._roundtrip(
                path, encode_frame(request_header, arrays), deadline_at
            )
            resp_header, resp_arrays = decode_frame(response)
            if resp_header.get("ok"):
                self._learn(resp_header, sides)
                return resp_header, resp_arrays
            error = resp_header.get("error") or {}
            code = str(error.get("code", "unknown"))
            if code == ERROR_OPERAND_MISSING and attempt == 0:
                # The server evicted an operand we thought it held: forget
                # the ack and resend the bytes.
                self._unlearn(sides, raw)
                continue
            raise ServiceError(code, str(error.get("message", "")))
        raise ServiceError("retry-exhausted", "inline retry also failed")

    # -- public surface ------------------------------------------------------
    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        config: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> RemoteResult:
        """Emulated ``A @ B`` on the server; returns value + metadata."""
        header: Dict = {"op": "gemm"}
        if config:
            header["config"] = dict(config)
        resp, arrays = self._call(
            "/v1/gemm",
            header,
            {"a": ("A", np.asarray(a)), "b": ("B", np.asarray(b))},
            deadline=deadline,
        )
        return RemoteResult(arrays["value"], resp.get("result", {}))

    def gemv(
        self,
        a: np.ndarray,
        x: np.ndarray,
        config: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> RemoteResult:
        """Emulated ``A @ x`` on the server (residue-GEMV fast path)."""
        header: Dict = {"op": "gemv"}
        if config:
            header["config"] = dict(config)
        resp, arrays = self._call(
            "/v1/gemv",
            header,
            {"a": ("A", np.asarray(a))},
            extra_arrays={"x": np.ascontiguousarray(x, dtype=np.float64)},
            deadline=deadline,
        )
        return RemoteResult(arrays["value"], resp.get("result", {}))

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        method: str = "cg",
        config: Optional[Dict] = None,
        deadline: Optional[float] = None,
        **options: object,
    ) -> RemoteResult:
        """Iteratively solve ``A x = b`` on the server."""
        header: Dict = {"op": "solve", "method": method}
        if config:
            header["config"] = dict(config)
        if options:
            header["options"] = options
        resp, arrays = self._call(
            "/v1/solve",
            header,
            {"a": ("A", np.asarray(a))},
            extra_arrays={"b": np.ascontiguousarray(b, dtype=np.float64).ravel()},
            deadline=deadline,
        )
        return RemoteResult(arrays["value"], resp.get("result", {}))

    def prepare(
        self,
        x: np.ndarray,
        side: str = "A",
        config: Optional[Dict] = None,
        deadline: Optional[float] = None,
    ) -> Dict[str, object]:
        """Warm the server's operand cache; returns the fingerprint ack."""
        header: Dict = {"op": "prepare", "side": side}
        if config:
            header["config"] = dict(config)
        deadline_at = self._deadline_at(deadline)
        self._stamp_deadline(header, deadline_at)
        array = np.ascontiguousarray(x, dtype=np.float64)
        response = self._roundtrip(
            "/v1/prepare", encode_frame(header, {"x": array}), deadline_at
        )
        resp_header, _ = decode_frame(response)
        if not resp_header.get("ok"):
            error = resp_header.get("error") or {}
            raise ServiceError(
                str(error.get("code", "unknown")), str(error.get("message", ""))
            )
        self._learn(resp_header, {"x": side.upper()})
        with self._lock:
            self._memo_store(
                x, str((resp_header.get("learned") or {}).get("x", ""))
            )
        return dict(resp_header.get("result", {}))

    def _get_json(self, path: str) -> Dict[str, object]:
        conn = self._connection()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            conn = self._connection()
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"server answered non-JSON on {path}: {exc}") from exc

    def stats(self) -> Dict[str, object]:
        """The server's ``/v1/stats`` document."""
        return self._get_json("/v1/stats")

    def health(self) -> Dict[str, object]:
        """The server's ``/v1/health`` document."""
        return self._get_json("/v1/health")
