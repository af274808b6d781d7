"""Runtime lock-order tracking: the race detector of the concurrency stack.

The static lock rules (RPR030/031/032) see lexical structure; what they
cannot see is the *acquisition order* across objects at runtime — the
property that actually prevents deadlock when the serve/Session layer,
the scheduler and the shared-memory registry nest their locks.  This
module closes that gap:

* every lock in the library is created through :func:`named_lock`, a
  :class:`TrackedLock` wrapping a plain ``threading.Lock`` under a stable
  dotted name (``service.cache._lock``, ``runtime.scheduler._clones_lock``,
  ...).  Untracked cost is one module-global load per acquire — noise
  next to the work any of these locks guards.
* under :func:`track_lock_order`, every acquisition records the set of
  locks the acquiring thread already holds, adding *order edges*
  ``held -> acquired`` to a process-wide graph, and re-acquiring a lock
  the same thread holds raises :class:`LockOrderError` immediately
  (a plain ``threading.Lock`` would deadlock silently).
* :meth:`LockOrderTracker.cycles` searches that graph: an acyclic graph
  proves every *observed* nesting is consistent with one global order —
  no execution of the exercised paths can deadlock on these locks.  A
  cycle is a witnessed inversion: two code paths that acquire the same
  pair of locks in opposite orders.

This tracker is the gate for the process-parallel scheduler refactor
(ROADMAP item 2): any new nesting it introduces must keep the graph
acyclic under the service/session test suite.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "LockOrderError",
    "LockOrderTracker",
    "TrackedLock",
    "named_lock",
    "track_lock_order",
    "current_tracker",
]


class LockOrderError(RuntimeError):
    """A lock-order violation: re-entry on a held lock, or an order cycle."""


class LockOrderTracker:
    """Acquisition-order recorder shared by every :class:`TrackedLock`.

    Thread-safe: the graph and counters are guarded by one internal lock
    (a plain ``threading.Lock`` — the tracker must not track itself), and
    per-thread held stacks live in a ``threading.local``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._edges: Dict[Tuple[str, str], int] = {}
        self._acquired: Dict[str, int] = {}
        self._contended = 0

    # -- per-thread held stack ----------------------------------------------
    def _held(self) -> List[str]:
        stack = getattr(self._local, "held", None)
        if stack is None:
            stack = []
            self._local.held = stack
        return stack

    # -- TrackedLock hooks ---------------------------------------------------
    def before_acquire(self, name: str) -> None:
        """Record order edges; raise on same-thread re-entry (deadlock)."""
        held = self._held()
        if name in held:
            raise LockOrderError(
                f"thread {threading.current_thread().name!r} re-acquired "
                f"{name!r} while already holding it (held: {held}); "
                "threading.Lock is not reentrant — this deadlocks outside "
                "tracking mode"
            )
        if held:
            with self._lock:
                for prior in held:
                    edge = (prior, name)
                    self._edges[edge] = self._edges.get(edge, 0) + 1

    def acquired(self, name: str) -> None:
        self._held().append(name)
        with self._lock:
            self._acquired[name] = self._acquired.get(name, 0) + 1

    def released(self, name: str) -> None:
        held = self._held()
        if name in held:
            held.remove(name)

    # -- the order graph -----------------------------------------------------
    @property
    def observed_locks(self) -> Set[str]:
        """Names of every lock acquired at least once under tracking."""
        with self._lock:
            return set(self._acquired)

    @property
    def acquisition_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._acquired)

    @property
    def edges(self) -> Dict[Tuple[str, str], int]:
        """Order edges ``(held, then_acquired) -> observation count``."""
        with self._lock:
            return dict(self._edges)

    def cycles(self) -> List[List[str]]:
        """Every elementary inversion cycle in the observed order graph.

        Iterative DFS over the directed edge set; a back edge to a node on
        the current path is a cycle.  Nodes and successors are visited in
        sorted order so the report is deterministic (the analyser honours
        the determinism discipline it enforces).
        """
        with self._lock:
            adjacency: Dict[str, List[str]] = {}
            for before, after in self._edges:
                adjacency.setdefault(before, []).append(after)
        for successors in adjacency.values():
            successors.sort()
        found: List[List[str]] = []
        seen_cycles: Set[Tuple[str, ...]] = set()
        for start in sorted(adjacency):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for successor in adjacency.get(node, ()):
                    if successor == start and len(path) > 0:
                        # Canonicalise rotation so each cycle reports once.
                        cycle = path + [start]
                        pivot = min(range(len(path)), key=path.__getitem__)
                        canon = tuple(path[pivot:] + path[:pivot])
                        if canon not in seen_cycles:
                            seen_cycles.add(canon)
                            found.append(cycle)
                    elif successor not in path and successor > start:
                        # Only explore nodes after `start` in sort order:
                        # every cycle is found from its smallest node.
                        stack.append((successor, path + [successor]))
        return found

    def assert_acyclic(self) -> None:
        """Raise :class:`LockOrderError` describing the first inversion."""
        cycles = self.cycles()
        if cycles:
            rendered = "; ".join(" -> ".join(cycle) for cycle in cycles)
            raise LockOrderError(
                f"lock acquisition order has {len(cycles)} cycle(s): {rendered} "
                "— two paths acquire these locks in opposite orders and can "
                "deadlock under concurrency"
            )

    def report(self) -> Dict[str, object]:
        """JSON-safe summary (test diagnostics and ``--stats`` style dumps)."""
        cycles = self.cycles()
        return {
            "locks": sorted(self.observed_locks),
            "acquisitions": self.acquisition_counts,
            "edges": {
                f"{before} -> {after}": count
                for (before, after), count in sorted(self.edges.items())
            },
            "acyclic": not cycles,
            "cycles": [" -> ".join(cycle) for cycle in cycles],
        }


#: The active tracker; None outside :func:`track_lock_order` (the common
#: case — every TrackedLock acquire then costs one global load and branch).
_ACTIVE: Optional[LockOrderTracker] = None
_ACTIVE_GUARD = threading.Lock()


def current_tracker() -> Optional[LockOrderTracker]:
    """The tracker installed by :func:`track_lock_order`, if any."""
    return _ACTIVE


class TrackedLock:
    """A ``threading.Lock`` with a stable name and tracking hooks.

    Mirrors the subset of the Lock API this codebase uses (``with``,
    ``acquire``/``release``, ``locked``).  Outside tracking mode the
    wrapper adds one global read per operation; inside, every transition
    is reported to the active :class:`LockOrderTracker`.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracker = _ACTIVE
        if tracker is not None:
            tracker.before_acquire(self.name)
        ok = self._lock.acquire(blocking, timeout)
        if ok and tracker is not None:
            tracker.acquired(self.name)
        return ok

    def release(self) -> None:
        tracker = _ACTIVE
        self._lock.release()
        if tracker is not None:
            tracker.released(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<TrackedLock {self.name!r} {state}>"


def named_lock(name: str) -> TrackedLock:
    """Create the library's standard lock: tracked, under a stable name.

    Every ``threading.Lock`` site in the library routes through this
    factory so :func:`track_lock_order` observes the whole concurrency
    surface without monkeypatching.
    """
    return TrackedLock(name)


@contextmanager
def track_lock_order() -> Iterator[LockOrderTracker]:
    """Install a fresh process-wide tracker for the duration of the block.

    Nested installation is refused (two trackers would each see a partial
    graph); the service/session test suites therefore serialise on this.
    """
    global _ACTIVE
    tracker = LockOrderTracker()
    with _ACTIVE_GUARD:
        if _ACTIVE is not None:
            raise LockOrderError("lock-order tracking is already active")
        _ACTIVE = tracker
    try:
        yield tracker
    finally:
        with _ACTIVE_GUARD:
            _ACTIVE = None
