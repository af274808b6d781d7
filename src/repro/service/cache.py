"""Bounded LRU cache of prepared operands and factored preconditioners.

The convert-once/multiply-many machinery of :mod:`repro.core.operand` asks
the *caller* to hold on to the :class:`~repro.core.operand.ResidueOperand`.
That works inside one solver loop, but a long-lived session — and above it
the :mod:`repro.service` server, whose clients are separate processes that
cannot hold Python references at all — needs the library to recognise a
returning operand by *value*.  :class:`OperandCache` provides that:

* keys are content fingerprints (:func:`~repro.core.operand.
  matrix_fingerprint`) plus everything the residues are a function of —
  side, mode, precision and the moduli request — so a hit is
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

The same store holds the factored preconditioners of
:mod:`repro.apps.preconditioners` (:meth:`OperandCache.get_or_factor`),
keyed by :func:`precond_key` — the matrix fingerprint, the kind, and ``ω``
for SSOR — and accounted at
:attr:`~repro.apps.preconditioners.Preconditioner.nbytes`.  They share the
budget, the LRU order, the in-flight latch and the counters with the
operands: a preconditioner lookup is a cache hit or miss like any other.

Thread safety: lookups, insertions and evictions hold one internal lock;
conversions (the expensive part) run outside it.  Concurrent misses on the
*same* key are collapsed — the first requester converts, the others wait on
a per-key in-flight latch and then take the hit path — so a burst of
identical requests against a cold cache pays exactly one conversion (or
factorisation).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union, cast

import numpy as np

from .. import faults
from ..analysis.lockorder import named_lock
from ..apps.preconditioners import Preconditioner, make_preconditioner
from ..config import Ozaki2Config
from ..core.operand import PreparedOperand, matrix_fingerprint, prepare_a, prepare_b
from ..engines.base import OpCounter
from ..errors import ValidationError
from ..utils.validation import as_number

__all__ = ["OperandCache", "DEFAULT_CAPACITY_BYTES", "cache_key", "precond_key"]

#: What the cache stores: anything accounted by an ``nbytes``.
Entry = Union[PreparedOperand, Preconditioner]
_E = TypeVar("_E", bound=Entry)

#: Default byte budget (256 MiB) — roughly thirty prepared 2048x2048 fp64
#: operands at the default moduli count.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


def cache_key(side: str, fingerprint: str, config: Ozaki2Config) -> Tuple:
    """Cache key of one prepared operand: content identity + residue recipe.

    The cached state is a function of the matrix contents (the
    fingerprint), the side (row vs. column scales), the compute mode (fast
    operands cache residues, accurate operands cache pre-scales — different
    objects entirely), the precision (constant-table bit width) and the
    moduli request — a fixed count, or the auto
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
        moduli,
    )


def precond_key(fingerprint: str, kind: str, omega: float = 1.0) -> Tuple:
    """Cache key of one factored preconditioner of the matrix ``fingerprint``.

    Factoring is exact float64 work on the matrix alone, so no emulation
    setting (moduli count, precision, mode) takes part; ``omega`` shapes
    SSOR only and is left out of the other kinds' keys.  The leading kind
    keeps these keys apart from the operand keys of :func:`cache_key`.
    """
    if kind == "ssor":
        return (kind, fingerprint, as_number(omega, "omega", float))
    return (kind, fingerprint)


class OperandCache:
    """Thread-safe bounded LRU of prepared operands (see module docstring).

    Parameters
    ----------
    capacity_bytes:
        Byte budget.  Entries are accounted at their ``nbytes``; inserting
        past the budget evicts least-recently-used entries first.  An
        entry larger than the whole budget is returned to the caller but
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
        self._entries: "OrderedDict[Tuple, Entry]" = OrderedDict()
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
    def get(self, key: Tuple) -> Optional[Entry]:
        """Return the cached entry for ``key`` (refreshing recency), or None.

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

    def peek(self, key: Tuple) -> Optional[Entry]:
        """Like :meth:`get` but counts nothing and keeps recency untouched."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Tuple, operand: Entry) -> None:
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

    def _get_or_build(self, key: Tuple, build: Callable[[], _E]) -> Tuple[_E, bool]:
        """``(entry, built_here)``: the entry under ``key``, built on a miss.

        Concurrent misses on the same key wait for the first build instead
        of duplicating it, then take the hit path.  A key names one kind of
        entry (operand or preconditioner), so a hit is what ``build`` makes.
        """
        while True:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self._hit()
                    return cast(_E, cached), False
                latch = self._pending.get(key)
                if latch is None:
                    self._pending[key] = threading.Event()
                    self._miss()
                    break  # this thread builds
            # Another thread is building this very key: wait, then retry
            # the lookup (a hit unless the entry was instantly evicted).
            latch.wait()
        try:
            entry = build()
            self.put(key, entry)
            return entry, True
        finally:
            with self._lock:
                self._pending.pop(key).set()

    def get_or_prepare(
        self, x: np.ndarray, side: str, config: Ozaki2Config
    ) -> Tuple[PreparedOperand, bool]:
        """``(operand, converted_here)``: the prepared ``side`` operand for ``x``.

        The cache's main entry.  A hit returns the cached operand — a
        fast-mode :class:`~repro.core.operand.ResidueOperand` or an
        accurate-mode :class:`~repro.core.operand.AccurateOperand`, per
        ``config.mode`` (bit-identical to converting ``x`` afresh); a miss
        converts via :func:`~repro.core.operand.prepare_a` / ``prepare_b``
        and inserts, and ``converted_here`` tells the caller that this
        lookup paid the operand's ``convert_seconds``.  Concurrent misses on
        the same key wait for the first conversion instead of duplicating
        it.  The operand keeps the fingerprint hashed for the key, so its
        ``fingerprint`` costs no second pass.
        """
        if faults.should_fire("cache.evict_storm"):
            self.clear()
        fingerprint = matrix_fingerprint(x)

        def prepare() -> PreparedOperand:
            source = np.ascontiguousarray(x, dtype=np.float64)
            operand = (prepare_a if side == "A" else prepare_b)(source, config=config)
            if np.asarray(x).dtype == source.dtype:  # the key hashed the source
                object.__setattr__(operand, "_fingerprint", fingerprint)
            return operand

        return self._get_or_build(cache_key(side, fingerprint, config), prepare)

    def get_or_factor(
        self, fingerprint: str, a: np.ndarray, kind: str, omega: float = 1.0
    ) -> Tuple[Preconditioner, bool]:
        """``(preconditioner, factored_here)`` of kind ``kind`` for matrix ``a``.

        ``fingerprint`` is ``a``'s content fingerprint (the caller usually
        holds it already, memoised on the prepared operand).  A hit returns
        the very object a miss factored
        (:func:`~repro.apps.preconditioners.make_preconditioner`), so its
        applications are bit-identical; ``factored_here`` tells the caller
        whether this lookup paid the factorisation.
        """
        return self._get_or_build(
            precond_key(fingerprint, kind, omega),
            lambda: make_preconditioner(a, kind, omega=omega),
        )

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
