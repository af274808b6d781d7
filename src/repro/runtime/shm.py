"""Shared-memory arrays for the process-parallel runtime.

The process backend of :mod:`repro.runtime.scheduler` moves residue stacks
between the parent and its worker processes through POSIX shared memory
(`multiprocessing.shared_memory`) instead of pickling them over pipes: the
parent places the INT8 operand stacks (and the integer/float output
buffers) in named segments, workers attach by name, compute on zero-copy
NumPy views and write their partial results straight into the shared
output.  Matrices therefore cross the process boundary exactly zero times
in either direction — only the small task descriptors travel.

Lifecycle guarantees (the part that is easy to get wrong):

* every segment created through :class:`SharedArray` is recorded in a
  module-global registry (guarded by a ``named_lock``) and unlinked by an
  ``atexit`` sweep, so an interrupted run never leaks ``/dev/shm`` space
  and tests never see ``resource_tracker`` "leaked shared_memory"
  warnings;
* :func:`attach_view` — the worker-side attach — immediately *unregisters*
  the segment from the attaching process's ``resource_tracker``: on this
  Python version the tracker registers attachments exactly like creations
  (the well-known bpo-38119 behaviour), and without the unregister every
  worker exit would warn about (and attempt to destroy) segments the
  parent still owns.  Ownership stays with the creating process only, so
  a process attaching a segment it created itself (the scheduler's
  degraded inline path) keeps its registration: dropping it would make
  the later unlink's own unregister fail inside the tracker.
"""

from __future__ import annotations

import atexit
import secrets
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Dict, Iterator, Tuple

import numpy as np

from ..analysis.lockorder import named_lock
from ..faults import raise_if as _fault_raise_if

__all__ = ["SharedArray", "ShmDescriptor", "attach_view", "live_segment_names"]

#: Wire-format descriptor of one shared array: ``(name, shape, dtype_str)``.
#: Plain tuples of builtins so task messages stay tiny and version-stable.
ShmDescriptor = Tuple[str, Tuple[int, ...], str]

#: Every live segment created by this process, keyed by segment name.  The
#: atexit sweep (and Scheduler.close) unlinks whatever is still here, so a
#: crashed or interrupted run cannot leak /dev/shm space.
_LIVE: Dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = named_lock("runtime.shm._live_lock")

#: Whether :func:`attach_view` drops its attach-time resource_tracker
#: registration.  True for ``spawn`` workers (each child runs its *own*
#: tracker, whose exit would otherwise warn about — and destroy — segments
#: the parent owns).  ``fork`` workers share the parent's tracker process:
#: there the attach-time REGISTER is an idempotent duplicate, and an
#: UNREGISTER would strip the *parent's* registration out of the shared
#: cache (the parent's later unlink then KeyErrors inside the tracker).
#: Configured per worker by :func:`configure_worker`.
_ATTACH_UNREGISTERS = True


def _tracker_unregister(name: str) -> None:
    """Drop one segment from this process's resource_tracker, if present.

    Best-effort by design: the tracker is an implementation detail whose
    module layout has moved between Python versions, and a failure to
    unregister only costs a spurious warning at interpreter exit.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


def start_tracker() -> None:
    """Start this process's resource_tracker before any worker is forked.

    ``fork`` workers share the tracker only if it already runs when they
    are forked (:data:`_ATTACH_UNREGISTERS` relies on that).  A pool
    started before the parent's first segment would otherwise leave each
    worker to start its own tracker at its first attach, whose exit warns
    about — and unlinks — segments the parent owns.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass


class SharedArray:
    """One NumPy array backed by a named shared-memory segment.

    Created by the parent (:meth:`create`), attached by workers via
    :func:`attach_view`.  The parent-side object owns the segment: it is
    unlinked by :meth:`close` (idempotent), by :meth:`Scheduler.close
    <repro.runtime.scheduler.Scheduler.close>` via the scheduler's registry,
    or — as the last line of defence — by the module's ``atexit`` sweep.
    """

    __slots__ = ("_shm", "array", "name", "shape", "dtype")

    def __init__(
        self, shm: shared_memory.SharedMemory, shape: Tuple[int, ...], dtype: np.dtype
    ) -> None:
        self._shm = shm
        self.name = shm.name
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=shm.buf)

    @classmethod
    def create(cls, shape: Tuple[int, ...], dtype) -> "SharedArray":
        """Allocate a zero-initialised segment sized for ``shape``/``dtype``.

        The ``shm.alloc`` injection site fires here — before the kernel is
        asked for a segment — so chaos runs exercise the same recovery the
        runtime performs when ``/dev/shm`` is genuinely exhausted
        (:class:`MemoryError`/:class:`OSError` from ``SharedMemory``).
        """
        _fault_raise_if("shm.alloc")
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dt.itemsize)
        # Explicit names keep descriptors readable in tracebacks/registries.
        name = f"repro_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        handle = cls(shm, tuple(shape), dt)
        with _LIVE_LOCK:
            _LIVE[handle.name] = shm
        return handle

    @classmethod
    def copy_from(cls, source: np.ndarray) -> "SharedArray":
        """Allocate a segment and memcpy ``source`` into it (one pass)."""
        handle = cls.create(source.shape, source.dtype)
        handle.array[...] = source
        return handle

    @property
    def descriptor(self) -> ShmDescriptor:
        """The ``(name, shape, dtype_str)`` tuple workers attach with."""
        return (self.name, self.shape, self.dtype.str)

    def close(self) -> None:
        """Release the view and unlink the segment (idempotent).

        Unlinking is decoupled from unmapping on purpose: callers may still
        hold NumPy views into the segment (``shm.close`` would then raise
        ``BufferError``), but ``unlink`` only removes the *name* — the
        memory itself is freed by the kernel when the last mapping goes
        away, so an early close can never invalidate a live view.
        """
        with _LIVE_LOCK:
            _LIVE.pop(self.name, None)
        self.array = None  # type: ignore[assignment]
        _close_and_unlink(self._shm)


def _close_and_unlink(shm: shared_memory.SharedMemory) -> None:
    """Unmap (tolerating exported views) and remove the segment's name."""
    try:
        shm.close()
    except BufferError:
        # A NumPy view still exports the buffer; the mapping is released
        # when the view dies (GC), and unlink below frees the name now.
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


@contextmanager
def attach_view(descriptor: ShmDescriptor) -> Iterator[np.ndarray]:
    """Worker-side attach: yield a zero-copy view, detach on exit.

    Attaching registers the segment with *this* process's resource tracker
    (see the module docstring); the registration is dropped immediately so
    the owning parent keeps sole responsibility for the unlink and worker
    exits stay warning-free.  A segment this process created keeps its
    registration: that one belongs to the owner's unlink.
    """
    name, shape, dtype_str = descriptor
    shm = shared_memory.SharedMemory(name=name)
    if _ATTACH_UNREGISTERS:
        with _LIVE_LOCK:
            created_here = name in _LIVE
        if not created_here:
            _tracker_unregister(name)
    try:
        yield np.ndarray(tuple(shape), dtype=np.dtype(dtype_str), buffer=shm.buf)
    finally:
        try:
            shm.close()
        except BufferError:  # the caller's view outlives the block; GC unmaps
            pass


def live_segment_names() -> Tuple[str, ...]:
    """Names of segments this process created and has not yet unlinked."""
    with _LIVE_LOCK:
        return tuple(sorted(_LIVE))


def configure_worker(start_method: str) -> None:
    """Initialise shared-memory state inside a runtime worker process.

    Forgets any registry entries inherited across ``fork`` (keeping those
    would make the worker's exit sweep unlink segments the parent still
    owns) and sets the attach-time tracker policy for the start method —
    see :data:`_ATTACH_UNREGISTERS`.  Workers call this first thing.
    """
    global _ATTACH_UNREGISTERS
    with _LIVE_LOCK:
        _LIVE.clear()
    _ATTACH_UNREGISTERS = start_method != "fork"


def _unlink_all() -> None:
    """The atexit sweep: unlink anything a caller forgot (or crashed past)."""
    with _LIVE_LOCK:
        leftovers = list(_LIVE.values())
        _LIVE.clear()
    for shm in leftovers:
        _close_and_unlink(shm)


atexit.register(_unlink_all)
