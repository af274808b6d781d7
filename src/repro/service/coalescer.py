"""Request coalescing: drain concurrent GEMMs on one worker thread.

A server receiving concurrent single-GEMM requests hands each to
:class:`RequestCoalescer`, which queues them and drains them in small
batches on one worker thread:

* the drain worker blocks for the first pending request, then takes
  whatever is already queued behind it, up to ``max_batch`` items, without
  waiting — a lone request pays no added latency,
* each drained request runs as its own :meth:`Session.gemm
  <repro.session.Session.gemm>` call on the shared
  :class:`~repro.session.Session`, so the transparent operand cache and the
  warm scheduler pool apply as usual (a batched call would share nothing
  more: the batched runtime is a loop of the same GEMM on the same
  scheduler),
* each request gets its own result or exception, so one poisoned request
  (say, a shape mismatch) fails alone.

The queue depth is the server's load-shedding signal (:meth:`backlog`) and
the drained batch sizes feed the ``/v1/stats`` coalescer counters.  Results
are delivered through per-request :class:`concurrent.futures.Future`
objects — the HTTP handler threads submit and block on their own future.
"""

from __future__ import annotations

import logging
import queue
import threading
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..analysis.lockorder import named_lock
from ..config import Ozaki2Config

if TYPE_CHECKING:  # session imports service.cache; keep the cycle type-only
    from ..session import Session

__all__ = ["RequestCoalescer"]

_LOG = logging.getLogger(__name__)


class _Item:
    __slots__ = ("a", "b", "config", "future")

    def __init__(
        self, a: np.ndarray, b: np.ndarray, config: Ozaki2Config, future: Future
    ) -> None:
        self.a = a
        self.b = b
        self.config = config
        self.future = future


class RequestCoalescer:
    """Queue + drain worker running concurrent GEMMs on one session.

    Parameters
    ----------
    session:
        The shared :class:`~repro.session.Session` the requests execute on.
    max_batch:
        Largest number of requests taken from the queue in one drain.
    """

    def __init__(self, session: "Session", max_batch: int = 16) -> None:
        self._session = session
        self.max_batch = max(1, int(max_batch))
        self._queue: "queue.Queue[Optional[_Item]]" = queue.Queue()
        self._lock = named_lock("service.coalescer._lock")
        self.coalesced_batches = 0
        self.coalesced_requests = 0
        self.largest_batch = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain_loop, name="repro-coalescer", daemon=True
        )
        self._worker.start()

    # -- submission ----------------------------------------------------------
    def submit(self, a: np.ndarray, b: np.ndarray, config: Ozaki2Config) -> Future:
        """Enqueue one GEMM; the returned future resolves to its GemmResult."""
        future: Future = Future()
        if self._closed:
            future.set_exception(RuntimeError("coalescer is closed"))
            return future
        self._queue.put(_Item(a, b, config, future))
        return future

    def backlog(self) -> int:
        """Requests currently queued (the server's load-shedding signal)."""
        return self._queue.qsize()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the drain worker (pending requests still complete).

        A drain worker that fails to stop within ``timeout`` — wedged in a
        batch, or deadlocked — is *surfaced*, not ignored: the failure is
        logged and raised as :class:`RuntimeError`, so a hung shutdown can
        never masquerade as a clean one.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():
            _LOG.error(
                "coalescer drain worker %r failed to stop within %.1fs",
                self._worker.name,
                timeout,
            )
            raise RuntimeError(
                f"coalescer drain worker {self._worker.name!r} failed to "
                f"stop within {timeout:.1f}s"
            )

    # -- drain worker --------------------------------------------------------
    def _collect(self) -> List[_Item]:
        """Block for one item, then drain what is already queued, up to max_batch."""
        first = self._queue.get()
        if first is None:
            return []
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                self._queue.put(None)  # keep the sentinel for the outer loop
                break
            batch.append(item)
        return batch

    def _drain_loop(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._execute(batch)

    def _execute(self, batch: List[_Item]) -> None:
        with self._lock:
            self.coalesced_batches += 1
            self.coalesced_requests += len(batch)
            self.largest_batch = max(self.largest_batch, len(batch))
        for item in batch:
            try:
                item.future.set_result(
                    self._session.gemm(item.a, item.b, config=item.config)
                )
            except Exception as exc:  # delivered to the caller via the future
                item.future.set_exception(exc)

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Coalescing counters for the ``/v1/stats`` endpoint."""
        with self._lock:
            requests = self.coalesced_requests
            batches = self.coalesced_batches
            return {
                "batches": batches,
                "requests": requests,
                "largest_batch": self.largest_batch,
                "mean_batch": (requests / batches) if batches else 0.0,
            }
