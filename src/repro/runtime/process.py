"""Process-parallel execution backend (the "break the GIL" path).

The thread scheduler only scales the BLAS call itself: residue conversion,
CRT accumulation and reconstruction are NumPy ufunc chains that hold the
GIL, so ``runtime_scaling.txt`` historically showed 2 workers ≈ 1.0x.  This
module runs the scheduler's tasks on a persistent pool of *worker
processes* instead.  It knows nothing of Algorithm 1: the task list and its
three handlers live in :mod:`repro.runtime.scheduler`, and the pool runs
whatever handler table it was started with.

* A task is ``(kind, payload)``, the payload being the handler's keyword
  arguments with every array replaced by its :class:`Descriptor`: a named
  shared-memory segment (:mod:`repro.runtime.shm`) or a read-only
  ``mmap``-ed file.  Matrices are never pickled in either direction, only
  small task dicts cross the pipe.  :func:`run_task` opens the descriptors
  and calls the handler, in a worker or in the parent (the scheduler's
  degraded inline path).
* Handlers write their output slices straight into shared buffers.
* Every task ships its per-task :class:`~repro.engines.base.OpCounter`
  delta back to the parent, which absorbs them into the primary engine so
  the merged ledger is indistinguishable from a serial run.

Failure semantics: a task that raises inside a worker reports its traceback
and leaves the pool alive (:class:`WorkerTaskError`), except that a
:class:`~repro.errors.ReproError` (the caller's error, e.g. an operand
outside the conversion's exact range) is shipped and re-raised as itself;
a worker *process*
dying (OOM kill, segfault) tears the pool down (:class:`WorkerError`) and
the owning :class:`~repro.runtime.scheduler.Scheduler` lazily restarts it
on the next dispatch.
"""

from __future__ import annotations

import mmap
import os
import pickle
import traceback
from contextlib import ExitStack
from queue import Empty
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from .. import faults
from ..engines.base import MatrixEngine, OpCounter
from ..errors import ReproError
from .shm import attach_view, start_tracker

__all__ = [
    "Descriptor",
    "ProcessPool",
    "WorkerError",
    "WorkerTaskError",
    "file_descriptor",
    "run_task",
]

#: Task handlers by kind: ``handler(engine, **payload)``.
Handlers = Dict[str, Callable[..., Any]]


class Descriptor(NamedTuple):
    """Where a task finds one array: a shared-memory segment (``kind``
    ``"shm"``, ``location`` its name) or an on-disk array opened read-only
    (``"mmap"``, ``location`` its path, at byte ``offset``)."""

    kind: str
    location: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int = 0


class WorkerError(RuntimeError):
    """A worker *process* died; the pool had to be torn down."""


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; the pool itself is still usable."""


def preferred_start_method() -> str:
    """The start method for runtime workers: ``fork`` when the platform has
    it (no re-import cost, workers inherit warmed NumPy), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def file_descriptor(arr: np.ndarray) -> Optional[Descriptor]:
    """The ``"mmap"`` descriptor of a root memory-map, else None.

    The out-of-core residue stacks are described by filename/offset, so
    each worker pages only the tiles it touches; any other array must be
    placed in shared memory to reach a worker.
    """
    if (
        isinstance(arr, np.memmap)
        and isinstance(arr.base, mmap.mmap)
        and arr.flags["C_CONTIGUOUS"]
        and arr.filename is not None
    ):
        return Descriptor(
            "mmap", str(arr.filename), arr.shape, arr.dtype.str, int(arr.offset)
        )
    return None


def _open(value: Any, stack: ExitStack) -> Any:
    """A descriptor's array as a NumPy view; any other value as is."""
    if not isinstance(value, Descriptor):
        return value
    if value.kind == "shm":
        return stack.enter_context(attach_view(value[1:4]))
    # The ``tile.read`` injection site models an out-of-core tile whose
    # backing file fails to page in (disk error, truncated stage file).
    faults.raise_if("tile.read")
    return np.memmap(
        value.location,
        dtype=np.dtype(value.dtype),
        mode="r",
        offset=value.offset,
        shape=tuple(value.shape),
        order="C",
    )


def run_task(
    handlers: Handlers, engine: MatrixEngine, kind: str, payload: Dict[str, Any]
) -> Any:
    """Call ``handlers[kind](engine, **payload)`` with every descriptor in
    ``payload`` opened as a view (detached when the handler returns)."""
    handler = handlers[kind]
    with ExitStack() as stack:
        opened = {key: _open(value, stack) for key, value in payload.items()}
        return handler(engine, **opened)


def _worker_main(
    task_queue: "multiprocessing.queues.Queue",
    result_queue: "multiprocessing.queues.Queue",
    engine_bytes: bytes,
    handlers: Handlers,
    start_method: str,
    fault_spec: Optional[Tuple[str, int]] = None,
) -> None:
    """Worker loop: pull tasks until the ``None`` sentinel, report results.

    Every result carries the task's :class:`OpCounter` delta (the engine
    counter is reset before each task) — including failed tasks, so partial
    work stays accounted for in the merged ledger.

    ``fault_spec`` is the parent's armed ``(spec_string, seed)`` fault plan,
    if any: the worker installs its own freshly-counted copy (counters are
    per process), and explicitly disarms otherwise so ``fork`` workers do
    not inherit the parent's live plan object.
    """
    from .shm import configure_worker

    configure_worker(start_method)
    if fault_spec is not None:
        faults.install(faults.FaultPlan.parse(fault_spec[0], seed=fault_spec[1]))
    else:
        faults.uninstall()
    engine: MatrixEngine = pickle.loads(engine_bytes)
    while True:
        task = task_queue.get()
        if task is None:
            return
        if faults.should_fire("worker.crash"):
            # Simulate an OOM kill / segfault: die without reporting.  The
            # parent's collection loop notices the dead process and raises
            # WorkerError, exactly as for the real thing.
            os._exit(3)
        task_id, kind, payload = task
        engine.counter.reset()
        try:
            faults.raise_if("worker.task_error")
            value = run_task(handlers, engine, kind, payload)
            ok, report = True, value
        except ReproError as exc:
            ok, report = False, exc
        except Exception:
            ok, report = False, traceback.format_exc()
        # Snapshot the counter: Queue.put serialises on a feeder thread,
        # which may run *after* the next task's reset() — shipping the live
        # counter object would race away most of the ledger.
        result_queue.put((task_id, ok, report, engine.counter.copy()))


class ProcessPool:
    """A persistent pool of runtime worker processes.

    Workers are started once (daemonic, so an aborted parent never strands
    them) with a pickled clone of the scheduler's engine and its task
    ``handlers``; tasks and results travel over a pair of queues.
    :meth:`run` is strictly synchronous — one dispatch wave at a time —
    which is all the tile-at-a-time executor needs.
    """

    def __init__(
        self,
        workers: int,
        engine: MatrixEngine,
        handlers: Handlers,
        fault_spec: Optional[Tuple[str, int]] = None,
    ) -> None:
        # The ``pool.spawn`` injection site models process creation failing
        # outright (fork EAGAIN, pid exhaustion) — before any worker starts.
        faults.raise_if("pool.spawn")
        self.workers = int(workers)
        self.start_method = preferred_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._tasks: "multiprocessing.queues.Queue" = self._ctx.Queue()
        self._results: "multiprocessing.queues.Queue" = self._ctx.Queue()
        self._next_id = 0
        self._closed = False
        engine_bytes = pickle.dumps(engine.clone())
        start_tracker()
        self._procs = [
            self._ctx.Process(
                target=_worker_main,
                args=(
                    self._tasks,
                    self._results,
                    engine_bytes,
                    handlers,
                    self.start_method,
                    fault_spec,
                ),
                name=f"repro-runtime-{i}",
                daemon=True,
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()

    def run(
        self, tasks: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Tuple[bool, Any, OpCounter]]:
        """Dispatch one wave of ``(kind, payload)`` tasks; collect in order.

        Task-level exceptions are *returned* (``ok=False`` with the worker
        traceback, or the :class:`~repro.errors.ReproError` itself, as the
        value) so the caller can absorb the counters of the tasks that did
        succeed before raising.  A worker process dying
        mid-wave raises :class:`WorkerError` — the pool is no longer
        coherent and must be closed.
        """
        if self._closed:
            raise RuntimeError("process pool has been closed")
        ids = []
        for kind, payload in tasks:
            task_id = self._next_id
            self._next_id += 1
            ids.append(task_id)
            self._tasks.put((task_id, kind, payload))
        collected: Dict[int, Tuple[bool, Any, OpCounter]] = {}
        while len(collected) < len(ids):
            try:
                task_id, ok, value, counter = self._results.get(timeout=1.0)
            except Empty:
                dead = [p.name for p in self._procs if not p.is_alive()]
                if dead:
                    raise WorkerError(
                        f"runtime worker process(es) died mid-dispatch: "
                        f"{', '.join(dead)}"
                    ) from None
                continue
            collected[task_id] = (ok, value, counter)
        return [collected[task_id] for task_id in ids]

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (sentinel first, terminate stragglers)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._tasks.put(None)
            except Exception:  # pragma: no cover - queue already broken
                break
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=timeout)
        for queue in (self._tasks, self._results):
            queue.close()
            # Don't block interpreter exit on an unflushed feeder thread.
            queue.cancel_join_thread()

    def terminate(self) -> None:
        """Hard stop: kill workers without draining the queues."""
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for queue in (self._tasks, self._results):
            queue.close()
            queue.cancel_join_thread()
