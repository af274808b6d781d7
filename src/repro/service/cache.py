"""Bounded LRU cache of prepared residue operands, keyed by content.

The convert-once/multiply-many machinery of :mod:`repro.core.operand` asks
the *caller* to hold on to the :class:`~repro.core.operand.ResidueOperand`.
That works inside one solver loop, but a long-lived session — and above it
the :mod:`repro.service` server, whose clients are separate processes that
cannot hold Python references at all — needs the library to recognise a
returning operand by *value*.  :class:`OperandCache` provides that:

* keys are content fingerprints (:func:`~repro.core.operand.
  matrix_fingerprint`) plus everything the residues are a function of —
  side, precision, residue kernel and the moduli request — so a hit is
  **bit-identical** to a cold conversion by construction (the cached
  operand *is* what the conversion would have produced; reuse reorders no
  floating-point operation),
* eviction is least-recently-used under a byte budget
  (``capacity_bytes``), accounting each entry at its
  :attr:`~repro.core.operand.ResidueOperand.nbytes` (residues + scales +
  retained source),
* every event is counted — hits, misses, evictions, byte traffic — and,
  when the cache is given a session ledger, folded into the same
  :class:`~repro.engines.base.OpCounter` that records the engine's GEMM
  work, so ``repro serve --stats`` reads one ledger for compute *and*
  caching.

Thread safety: lookups, insertions and evictions hold one internal lock;
conversions (the expensive part) run outside it.  Concurrent misses on the
*same* key are collapsed — the first requester converts, the others wait on
a per-key in-flight latch and then take the hit path — so a burst of
identical requests against a cold cache pays exactly one conversion.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from .. import faults
from ..analysis.lockorder import named_lock
from ..config import Ozaki2Config
from ..core.operand import PreparedOperand, matrix_fingerprint, prepare_a, prepare_b
from ..engines.base import OpCounter
from ..errors import ValidationError

__all__ = ["OperandCache", "DEFAULT_CAPACITY_BYTES", "cache_key"]

#: Default byte budget (256 MiB) — roughly thirty prepared 2048x2048 fp64
#: operands at the default moduli count.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


def cache_key(side: str, fingerprint: str, config: Ozaki2Config) -> Tuple:
    """Cache key of one prepared operand: content identity + residue recipe.

    The cached state is a function of the matrix contents (the
    fingerprint), the side (row vs. column scales), the compute mode (fast
    operands cache residues, accurate operands cache pre-scales — different
    objects entirely), the precision (constant-table bit width), the
    residue kernel, and the moduli request — a fixed count, or the auto
    marker with its accuracy target *and selection model* (auto resolves
    the count from the operand's own magnitudes, so equal-content operands
    under the same target and model always resolve alike and may share an
    entry; the calibrated and rigorous models can resolve different counts
    from identical inputs, so they must not).  Runtime knobs (parallelism,
    executor, memory budget) do not affect the cached state and are
    deliberately absent: sessions differing only in those share entries.
    """
    moduli: object
    if config.moduli_is_auto:
        moduli = ("auto", config.target_accuracy, config.selection_model)
    else:
        moduli = int(config.num_moduli)
    return (
        side,
        fingerprint,
        config.mode.value,
        config.precision.name,
        config.residue_kernel.value,
        moduli,
    )


class OperandCache:
    """Thread-safe bounded LRU of prepared operands (see module docstring).

    Parameters
    ----------
    capacity_bytes:
        Byte budget.  Entries are accounted at ``operand.nbytes``; inserting
        past the budget evicts least-recently-used entries first.  An
        operand larger than the whole budget is returned to the caller but
        never stored (storing it would evict everything for a single-use
        entry).  ``0`` disables caching entirely — every lookup converts and
        counts as a miss.
    ledger:
        Optional :class:`~repro.engines.base.OpCounter` to fold cache events
        into (the session's engine ledger); the cache also keeps its own
        internal ledger either way, so :meth:`stats` works standalone.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        ledger: Optional[OpCounter] = None,
    ) -> None:
        capacity_bytes = int(capacity_bytes)
        if capacity_bytes < 0:
            raise ValidationError(
                f"capacity_bytes must be non-negative, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Tuple, PreparedOperand]" = OrderedDict()
        self._sizes: Dict[Tuple, int] = {}
        self._current_bytes = 0
        self._lock = named_lock("service.cache._lock")
        self._pending: Dict[Tuple, threading.Event] = {}
        self._counter = OpCounter()
        self._ledgers = [self._counter, *([ledger] if ledger is not None else [])]

    # -- events --------------------------------------------------------------
    def _hit(self) -> None:
        for ledger in self._ledgers:
            ledger.record_cache_hit()

    def _miss(self) -> None:
        for ledger in self._ledgers:
            ledger.record_cache_miss()

    def _inserted(self, nbytes: int) -> None:
        for ledger in self._ledgers:
            ledger.record_cache_insert(nbytes)

    def _evicted(self, nbytes: int) -> None:
        for ledger in self._ledgers:
            ledger.record_cache_eviction(nbytes)

    # -- core lookup ---------------------------------------------------------
    def get(self, key: Tuple) -> Optional[PreparedOperand]:
        """Return the cached operand for ``key`` (refreshing recency), or None.

        Counts a hit or a miss; callers that convert on a miss should insert
        the result with :meth:`put` (which does *not* recount).
        """
        # Fault site ``cache.evict_storm``: a whole-cache eviction right
        # before the lookup — the worst-case cold burst the negotiation
        # protocol must renegotiate through (clear() takes the lock itself).
        if faults.should_fire("cache.evict_storm"):
            self.clear()
        with self._lock:
            operand = self._entries.get(key)
            if operand is not None:
                self._entries.move_to_end(key)
                self._hit()
                return operand
            self._miss()
            return None

    def peek(self, key: Tuple) -> Optional[PreparedOperand]:
        """Like :meth:`get` but counts nothing and keeps recency untouched."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Tuple, operand: PreparedOperand) -> None:
        """Insert ``operand`` under ``key``, evicting LRU entries past budget."""
        nbytes = operand.nbytes
        if nbytes > self.capacity_bytes:
            return  # would evict the whole cache for a single-use entry
        with self._lock:
            if key in self._entries:
                # Lost a benign race: another thread inserted the identical
                # conversion first.  Keep the incumbent (same bits).
                self._entries.move_to_end(key)
                return
            self._entries[key] = operand
            self._sizes[key] = nbytes
            self._current_bytes += nbytes
            self._inserted(nbytes)
            while self._current_bytes > self.capacity_bytes:
                old_key, _ = self._entries.popitem(last=False)
                freed = self._sizes.pop(old_key)
                self._current_bytes -= freed
                self._evicted(freed)

    def get_or_prepare(
        self, x: np.ndarray, side: str, config: Ozaki2Config
    ) -> PreparedOperand:
        """The cache's main entry: return a prepared ``side`` operand for ``x``.

        A hit returns the cached operand — a fast-mode
        :class:`~repro.core.operand.ResidueOperand` or an accurate-mode
        :class:`~repro.core.operand.AccurateOperand`, per ``config.mode``
        (bit-identical to converting ``x`` afresh); a miss converts via
        :func:`~repro.core.operand.prepare_a` / ``prepare_b`` and inserts.
        Concurrent misses on the same key wait for the first conversion
        instead of duplicating it.
        """
        if faults.should_fire("cache.evict_storm"):
            self.clear()
        key = cache_key(side, matrix_fingerprint(x), config)
        while True:
            with self._lock:
                operand = self._entries.get(key)
                if operand is not None:
                    self._entries.move_to_end(key)
                    self._hit()
                    return operand
                latch = self._pending.get(key)
                if latch is None:
                    self._pending[key] = threading.Event()
                    self._miss()
                    break  # this thread converts
            # Another thread is converting this very key: wait, then retry
            # the lookup (a hit unless the entry was instantly evicted).
            latch.wait()
        try:
            prepare = prepare_a if side == "A" else prepare_b
            operand = prepare(np.ascontiguousarray(x, dtype=np.float64), config=config)
            self.put(key, operand)
            return operand
        finally:
            with self._lock:
                self._pending.pop(key).set()

    # -- introspection -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def current_bytes(self) -> int:
        """Bytes currently resident (always ≤ ``capacity_bytes``)."""
        with self._lock:
            return self._current_bytes

    @property
    def counter(self) -> OpCounter:
        """The cache's own event ledger (hits/misses/evictions/bytes)."""
        return self._counter

    def stats(self) -> Dict[str, object]:
        """Snapshot of the cache state and event counters (for ``--stats``)."""
        with self._lock:
            resident = self._current_bytes
            entries = len(self._entries)
        counts = self._counter
        lookups = counts.cache_hits + counts.cache_misses
        return {
            "entries": entries,
            "capacity_bytes": self.capacity_bytes,
            "current_bytes": resident,
            "hits": counts.cache_hits,
            "misses": counts.cache_misses,
            "evictions": counts.cache_evictions,
            "bytes_inserted": counts.cache_bytes_inserted,
            "bytes_evicted": counts.cache_bytes_evicted,
            "hit_rate": (counts.cache_hits / lookups) if lookups else 0.0,
        }

    def clear(self) -> None:
        """Drop every entry (counts each as an eviction)."""
        with self._lock:
            for key in list(self._entries):
                del self._entries[key]
                self._evicted(self._sizes.pop(key))
            self._current_bytes = 0
