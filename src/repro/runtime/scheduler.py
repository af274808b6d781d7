"""Worker-pool scheduler executing :class:`~repro.runtime.plan.ExecutionPlan`s.

The ``N`` residue GEMMs of Ozaki scheme II (and their k-blocks) are
independent integer products, so they can run on any number of workers in
any order and still reconstruct bit-identically: every engine call is exact
in INT32/INT64, the k-block partial sums are exact integer additions, and
the only floating-point accumulation (lines 8–9 of Algorithm 1) is
elementwise in the output rows, applied in a fixed modulus order by the
same code on every route.  The scheduler therefore guarantees

    ``execute_plan(parallelism=W) == execute_plan(parallelism=1)``  (bitwise)

for every worker count ``W`` — and for every executor backend.

One task list, three handlers.  :func:`execute_plan` and
:meth:`Scheduler.convert_residues` build one task list per call from three
handlers defined here, each taking arrays:

* ``matmul`` — one modulus chunk of one tile (line 6): loops the plan's
  k-blocks and writes its rows of the tile's ``c_stack``;
* ``accumulate`` — one row band of one tile (lines 7–11): returns its
  measured ``(accumulate_s, reconstruct_s)``;
* ``convert`` — one row band of an operand (lines 2–5).

Chunks follow the executing scheduler's worker count and never affect the
value.  The backends differ only in where the arrays live:

* serial and ``executor="thread"`` runs use plain arrays and call the
  handlers on views: the matmul chunks fan out over a
  ``ThreadPoolExecutor`` (each is one large NumPy matmul, which releases
  the GIL), and so do conversion and accumulation, one row band per
  worker, once each band holds at least :data:`BAND_MIN_ELEMENTS`
  elements.  Their ufunc calls release the GIL too, on blocks long enough
  (:data:`repro.crt.residues._CONVERT_BLOCK`,
  :data:`repro.core.accumulation._U_SLAB_ELEMENTS`) that the hand-off
  between workers costs little; a smaller wave runs as one band in the
  calling thread, where the hand-offs measured slower than one thread;
* ``executor="process"`` runs place the arrays in shared memory
  (:mod:`repro.runtime.shm`) and send descriptors through
  :meth:`Scheduler.run_process_tasks` to a persistent pool of worker
  processes (:mod:`repro.runtime.process`), which open them and call the
  same handlers — one band per worker at every size.

``executor="auto"`` picks between them per call: a plan whose INT8 work
``N·m·k·n`` reaches :data:`~repro.runtime.plan.PROCESS_MIN_MACS` runs on
the processes, a smaller one on the threads (:meth:`Scheduler.backend`).

Phase times follow one rule on every backend: ``matmul`` is the matmul
wave's wall clock, and the accumulate wave's wall clock is split at the
largest reconstruct seconds any band measured (``reconstruct``; the rest is
``accumulate``).

Engine ledgers: thread workers lazily receive ``engine.clone()`` (same
settings, fresh :class:`~repro.engines.base.OpCounter`) and
:meth:`Scheduler.merge_counters` folds the clone ledgers back; process
workers ship a per-task counter delta home with every result, absorbed as
waves complete — including failed tasks', so the ledger stays faithful on
error paths.  Either way the op accounting is indistinguishable from a
serial run.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .. import faults
from ..analysis.lockorder import named_lock
from ..core.accumulation import (
    accumulate_residue_products,
    accumulation_row_blocks,
    reconstruct_crt,
)
from ..core.conversion import residue_slices, truncate_scaled
from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from ..errors import ReproError
from ..result import PhaseTimes
from ..engines.int8 import Int8MatrixEngine
from .plan import ExecutionPlan, Range, modulus_chunk_ranges, resolve_executor, resolve_parallelism
from .process import (
    Descriptor,
    ProcessPool,
    WorkerError,
    WorkerTaskError,
    file_descriptor,
    run_task,
)
from .shm import SharedArray

__all__ = ["BAND_MIN_ELEMENTS", "Scheduler", "execute_plan"]

_LOG = logging.getLogger(__name__)

#: Elements (rows x columns) each row band must hold before a thread-backend
#: conversion or accumulation wave splits into one band per worker; a
#: smaller wave runs as one band in the calling thread.  Set from a 2-worker
#: sweep of fp64 N=15 (2-CPU host, OpenBLAS on one thread, medians of 5
#: rounds): at 512^2 (2^17 elements per band) two bands won every phase in
#: every round (conversion of A 11.1 -> 9.4 ms, accumulate + reconstruct
#: 18.6 -> 12.1 ms); at 384^2 the conversion gain stayed inside the
#: one-band spread, and at 256^2 conversion tied while the matmul that read
#: the banded stacks slowed.
BAND_MIN_ELEMENTS = 2**17

T = TypeVar("T")
R = TypeVar("R")
Tile = Tuple[Range, Range]


class Scheduler:
    """Reusable worker pool mapping tasks over per-worker engine clones.

    Parameters
    ----------
    parallelism:
        Worker-count knob (``None``/``1`` = serial in the calling thread,
        ``0`` = one worker per CPU, else literal).
    engine:
        Primary matrix engine.  The serial path uses it directly; parallel
        workers use clones whose ledgers are merged back into it.
    executor:
        ``"thread"`` (default) or ``"process"`` run every plan on that
        backend.  ``"auto"`` runs each plan on the backend the plan chose
        by its INT8 work (:meth:`backend`): processes from
        :data:`~repro.runtime.plan.PROCESS_MIN_MACS` up, threads below, so
        the worker processes start at the first call that needs them (or
        at :meth:`start`).  Serial schedulers never start a pool of either
        kind.

    A scheduler may be shared across many GEMMs (this is how the batched API
    amortises pool start-up); use it as a context manager or call
    :meth:`close` to shut the pool down.  Worker failures do not poison the
    scheduler — they are *survived*, with every recovery recorded in the
    op-ledger's ``fault_events`` histogram (never silently):

    * a task raising inside a worker is retried up to ``max_task_retries``
      times (``task_retry``) before :class:`WorkerTaskError` surfaces.  The
      default is one retry per worker: a retry may land on any worker, so a
      fault that can fire once in each worker process still leaves the
      task a worker that succeeds.  A :class:`~repro.errors.ReproError`
      raised by a task is the caller's error, not a worker fault: it
      reaches the caller as itself, unretried, as on the thread path;
    * a worker *process* dying tears the pool down (``pool_failure``), and
      the whole dispatch wave — whose un-absorbed counters died with it —
      is re-executed on a rebuilt pool (``wave_retry``).  Wave re-execution
      is safe by construction: every task writes an idempotent disjoint
      slice of shared output, and the aborted wave's counters are
      discarded, so the retried ledger equals the fault-free one;
    * after more than ``max_pool_rebuilds`` pool failures the scheduler
      *degrades*: it stops using processes and runs the remaining tasks
      inline on the parent engine (``degraded_to_thread``), preserving
      bit-identity at thread-path speed.  The degradation is recorded in
      the ledger, reported by :meth:`health`, and visible on
      :attr:`Result.degraded <repro.result.Result.degraded>`.
    """

    def __init__(
        self,
        parallelism: Optional[int] = None,
        engine: Optional[MatrixEngine] = None,
        executor: str = "thread",
        max_pool_rebuilds: int = 2,
        max_task_retries: Optional[int] = None,
    ) -> None:
        self.engine = engine if engine is not None else Int8MatrixEngine()
        self.workers = resolve_parallelism(parallelism)
        self.executor = resolve_executor(executor, self.workers)
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        self.max_task_retries = (
            self.workers if max_task_retries is None else int(max_task_retries)
        )
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._pool_failures = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._process_pool: Optional[ProcessPool] = None
        self._local = threading.local()
        self._clones: List[MatrixEngine] = []
        self._clones_lock = named_lock("runtime.scheduler._clones_lock")
        #: Shared-memory segments this scheduler owns, keyed by ``id()`` of
        #: the parent-side view handed to callers (conversion outputs,
        #: adopted operands).  Lets ``execute_plan`` recognise an operand
        #: that already lives in shared memory and skip the copy.
        self._shared: Dict[int, SharedArray] = {}
        self._shared_lock = named_lock("runtime.scheduler._shared_lock")
        #: Plans executed per backend (see :meth:`health`).
        self._calls = {"serial": 0, "thread": 0, "process": 0}
        self._calls_lock = named_lock("runtime.scheduler._calls_lock")
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Merge outstanding worker ledgers, shut pools down, free segments.

        Idempotent, and safe to call after a worker error: whatever ledgers
        and shared-memory segments are still outstanding are merged and
        unlinked regardless of how the last dispatch ended.
        """
        if self._closed:
            return
        self.merge_counters()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._teardown_process_pool()
        self.release_shared()
        self._closed = True

    @property
    def is_parallel(self) -> bool:
        """True when tasks run on pool workers rather than inline."""
        return self.workers > 1

    @property
    def uses_processes(self) -> bool:
        """True when parallel tasks may run on worker *processes*.

        That is an explicit ``"process"`` scheduler, or an ``"auto"`` one
        for the plans :meth:`backend` routes there.  A scheduler that
        degraded after repeated pool failures reports False: from that
        point on it routes everything through the thread/serial path,
        which is bit-identical by construction.
        """
        return self.executor != "thread" and self.workers > 1 and not self.degraded

    def backend(self, plan: ExecutionPlan) -> str:
        """The backend ``plan`` runs on here: ``"serial"``, ``"thread"`` or
        ``"process"``.

        A serial scheduler runs inline and an explicit ``"thread"`` /
        ``"process"`` scheduler runs every plan on its own backend.  An
        ``"auto"`` scheduler follows the route the plan recorded from its
        INT8 work (:attr:`ExecutionPlan.executor
        <repro.runtime.plan.ExecutionPlan.executor>`).  Conversion and plan
        execution of one call both ask, so they follow one route.
        """
        if not self.is_parallel:
            return "serial"
        if self.uses_processes and (
            self.executor == "process" or plan.executor == "process"
        ):
            return "process"
        return "thread"

    def start(self) -> None:
        """Start the worker processes now, if this scheduler may use them.

        Otherwise the first process-routed call starts them, forking from
        a parent that has by then grown by that call's operands (and the
        workers' resident set with it).  A start failure takes the
        dispatch path's bounded rebuild-or-degrade policy: it is recorded
        on the ledger (``pool_failure``, ``degraded_to_thread``) and never
        raised.
        """
        if self.uses_processes and self._process_pool is None:
            self.run_process_tasks([])

    def health(self) -> Dict[str, Any]:
        """Operational snapshot: executor, degradation state, pool failures,
        and how many plans ran on each backend (``calls``)."""
        with self._calls_lock:
            calls = dict(self._calls)
        return {
            "executor": self.executor,
            "workers": self.workers,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "pool_failures": self._pool_failures,
            "calls": calls,
        }

    def _count_call(self, backend: str) -> None:
        with self._calls_lock:
            self._calls[backend] += 1

    # -- engine management ---------------------------------------------------
    def _worker_engine(self) -> MatrixEngine:
        engine = getattr(self._local, "engine", None)
        if engine is None:
            engine = self.engine.clone()
            self._local.engine = engine
            with self._clones_lock:
                self._clones.append(engine)
        return engine

    def merge_counters(self) -> None:
        """Fold every worker clone's ledger into the primary engine's.

        Clone ledgers are reset after merging, so calling this repeatedly
        (e.g. between items of a batch, or on an error path) never
        double-counts.  Must not be called while tasks are in flight.
        Process workers need no equivalent: their per-task counter deltas
        are absorbed as each dispatch wave completes.
        """
        with self._clones_lock:
            for clone in self._clones:
                self.engine.counter.absorb(clone.counter)
                clone.counter.reset()

    # -- task execution ------------------------------------------------------
    def map(self, fn: Callable[[MatrixEngine, T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn(engine, item)`` to every item, preserving input order.

        Serial schedulers run inline on the primary engine; parallel ones
        fan out over the thread pool with per-thread engine clones.  (The
        process backend does not route through ``map`` — its tasks travel
        as descriptors through :meth:`run_process_tasks`.)
        """
        if self._closed:
            raise RuntimeError("scheduler has been closed")
        if not self.is_parallel:
            return [fn(self.engine, item) for item in items]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-runtime"
            )
        return list(self._pool.map(lambda item: fn(self._worker_engine(), item), items))

    # -- process backend -----------------------------------------------------
    def _ensure_process_pool(self) -> ProcessPool:
        if self._closed:
            raise RuntimeError("scheduler has been closed")
        if self._process_pool is None:
            plan = faults.active_plan()
            fault_spec = None if plan is None else (plan.spec(), plan.seed)
            try:
                self._process_pool = ProcessPool(
                    self.workers, self.engine, _HANDLERS, fault_spec=fault_spec
                )
            except (faults.InjectedFault, OSError) as exc:
                # Pool construction failing (fork EAGAIN, pid exhaustion, or
                # the ``pool.spawn`` injection site) is a pool failure like
                # any other: surface it as WorkerError so the dispatch loop
                # applies the same bounded rebuild-or-degrade policy.
                raise WorkerError(f"failed to start process pool: {exc}") from exc
        return self._process_pool

    def _teardown_process_pool(self, hard: bool = False) -> None:
        pool = self._process_pool
        self._process_pool = None
        if pool is not None:
            if hard:
                pool.terminate()
            else:
                pool.close()

    def _degrade(self, reason: str) -> None:
        """Permanently stop using worker processes; record it everywhere."""
        self.degraded = True
        self.degraded_reason = reason
        self.engine.counter.record_fault_event("degraded_to_thread")
        _LOG.warning(
            "scheduler degraded executor=process -> thread after %d pool "
            "failure(s): %s",
            self._pool_failures,
            reason,
        )

    def _run_tasks_inline(
        self, tasks: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[Any]:
        """Degraded path: run process-task payloads on the parent engine.

        The handlers open the same shared-memory / mmap descriptors the
        workers would have attached, and the parent engine records the
        identical op totals the absorbed worker deltas would have
        contributed — so mid-plan degradation changes neither the value nor
        the work counters of the run.
        """
        return [
            run_task(_HANDLERS, self.engine, kind, payload) for kind, payload in tasks
        ]

    def run_process_tasks(self, tasks: Sequence[Tuple[str, Dict[str, Any]]]) -> List[Any]:
        """Dispatch one wave of tasks to the worker processes, resiliently.

        Absorbs every returned :class:`~repro.engines.base.OpCounter` delta
        into the primary engine — for failed tasks too, so partial work
        stays on the ledger.  Failed tasks are retried (``task_retry`` in
        the ledger) before :class:`WorkerTaskError` surfaces, except that a
        task's :class:`~repro.errors.ReproError` is re-raised at once; a dead worker
        process triggers a bounded pool rebuild + wave re-execution
        (``pool_failure`` / ``wave_retry``), degrading to inline execution
        (``degraded_to_thread``) once ``max_pool_rebuilds`` is exceeded.
        """
        task_list = list(tasks)
        if self.degraded:
            return self._run_tasks_inline(task_list)
        return self._run_wave(task_list, self.max_task_retries)

    def _run_wave(
        self, tasks: List[Tuple[str, Dict[str, Any]]], retries_left: int
    ) -> List[Any]:
        while True:
            try:
                pool = self._ensure_process_pool()
                results = pool.run(tasks)
                break
            except WorkerError as exc:
                # The aborted wave's counters died un-absorbed with the
                # pool, so re-executing every task keeps the ledger's work
                # totals exactly equal to a fault-free run; the recovery
                # itself is what fault_events records.
                self._teardown_process_pool(hard=True)
                self._pool_failures += 1
                self.engine.counter.record_fault_event("pool_failure")
                if self._pool_failures > self.max_pool_rebuilds:
                    self._degrade(str(exc))
                    return self._run_tasks_inline(tasks)
                self.engine.counter.record_fault_event("wave_retry")
                _LOG.warning(
                    "rebuilding process pool (failure %d/%d) and re-running "
                    "a %d-task wave: %s",
                    self._pool_failures,
                    self.max_pool_rebuilds,
                    len(tasks),
                    exc,
                )
        values: List[Any] = [None] * len(tasks)
        failed: List[int] = []
        failures: List[Any] = []
        for index, (ok, value, counter) in enumerate(results):
            if counter is not None:
                self.engine.counter.absorb(counter)
            if ok:
                values[index] = value
            else:
                failed.append(index)
                failures.append(value)
        for failure in failures:
            if isinstance(failure, ReproError):
                raise failure
        if failed:
            if retries_left <= 0:
                raise WorkerTaskError(
                    f"{len(failures)} runtime worker task(s) failed; first "
                    f"traceback:\n{failures[0]}"
                )
            # Task writes are idempotent disjoint-slice assignments, so
            # re-running just the failed subset cannot corrupt the output;
            # the failed attempts' partial counters were absorbed above, so
            # the retry is additional *accounted* work.
            self.engine.counter.record_fault_event("task_retry", len(failed))
            _LOG.warning(
                "retrying %d failed runtime task(s) (%d retr%s left); first "
                "traceback:\n%s",
                len(failed),
                retries_left,
                "y" if retries_left == 1 else "ies",
                failures[0],
            )
            retried = self._run_wave([tasks[i] for i in failed], retries_left - 1)
            for index, value in zip(failed, retried, strict=True):
                values[index] = value
        return values

    # -- shared-memory registry ----------------------------------------------
    def adopt_shared(self, handle: SharedArray) -> np.ndarray:
        """Take ownership of a segment; return the parent-side view.

        The view is recognised by :meth:`shared_descriptor` (so plan
        execution passes it to workers without copying) and the segment is
        unlinked by :meth:`release` / :meth:`close`.
        """
        with self._shared_lock:
            self._shared[id(handle.array)] = handle
        return handle.array

    def shared_descriptor(self, arr: np.ndarray) -> Optional[Descriptor]:
        """The worker descriptor for a view this scheduler shares, else None."""
        with self._shared_lock:
            handle = self._shared.get(id(arr))
        if handle is None:
            return None
        return Descriptor("shm", *handle.descriptor)

    def release(self, arr: Optional[np.ndarray]) -> None:
        """Unlink the segment behind ``arr`` if this scheduler owns one.

        A no-op for ``None`` and for arrays that are not scheduler-shared,
        so callers can release unconditionally.
        """
        if arr is None:
            return
        with self._shared_lock:
            handle = self._shared.pop(id(arr), None)
        if handle is not None:
            handle.close()

    def release_shared(self) -> None:
        """Unlink every segment still registered (close-time sweep)."""
        with self._shared_lock:
            handles = list(self._shared.values())
            self._shared.clear()
        for handle in handles:
            handle.close()

    # -- residue conversion ---------------------------------------------------
    def convert_residues(
        self,
        x: np.ndarray,
        scale_exp: np.ndarray,
        side: str,
        table: CRTConstantTable,
        plan: ExecutionPlan,
    ) -> np.ndarray:
        """Truncate-scale ``x`` by the exponents ``scale_exp`` and convert it
        to INT8 residues (lines 2–5 of Algorithm 1).

        Conversion follows the :meth:`backend` of ``plan``, the call it
        feeds, as ``convert`` tasks over row bands of ``x``
        (:meth:`_Workspace.bands`) — both steps are elementwise in the
        rows, so the result is bitwise identical however the rows are
        banded.  A process-routed stack comes
        back as a scheduler-owned shared-memory view that plan execution
        hands to workers zero-copy; callers should :meth:`release` the
        returned stack when done (close() sweeps any stragglers).
        """
        if self.backend(plan) == "process" and x.shape[0] > 1:
            try:
                with _Workspace(self, shared=True) as ws:
                    return _convert_on(ws, x, scale_exp, side, table)
            except (MemoryError, faults.InjectedFault) as exc:
                # Shared memory exhausted (or the ``shm.alloc`` site fired):
                # convert in this process, which needs no segments and is
                # bit-identical by construction.
                self.engine.counter.record_fault_event("shm_fallback")
                _LOG.warning("shared-memory conversion fell back inline: %s", exc)
        return _convert_on(_Workspace(self, shared=False), x, scale_exp, side, table)


def execute_plan(
    scheduler: Scheduler,
    plan: ExecutionPlan,
    a_slices: np.ndarray,
    b_slices: np.ndarray,
    table: CRTConstantTable,
    times: "PhaseTimes | None" = None,
    trusted: bool = False,
) -> np.ndarray:
    """Run lines 6–11 of Algorithm 1 under a plan; return ``C''`` (float64).

    Parameters
    ----------
    scheduler:
        Worker pool (serial, thread- or process-parallel — the result is
        bit-identical across all of them).
    plan:
        Task decomposition from :func:`~repro.runtime.plan.build_plan`; it
        runs on the scheduler's :meth:`~Scheduler.backend` for it.
    a_slices / b_slices:
        Full INT8 residue stacks of shape ``(N, m, k)`` / ``(N, k, n)``.
        Under the process backend these may be scheduler-shared views (no
        copy), memory-maps (streamed out-of-core), or plain arrays (copied
        into a transient segment for the call).
    table:
        CRT constant table of the residue stacks' moduli.
    times:
        Optional :class:`~repro.core.gemm.PhaseTimes` receiving per-phase
        seconds under the keys ``matmul`` / ``accumulate`` / ``reconstruct``
        by the module's phase-time rule: wall clock per wave, so under
        parallelism the ``matmul`` entry is the elapsed (not summed
        per-worker) time.
    trusted:
        Declare the residue stacks as produced by this library's own
        conversion (INT8, in range by construction), letting the engine
        skip its per-call validation sweeps.  Off by default so
        external callers handing in arbitrary stacks keep full validation.

    Each tile runs one ``matmul`` task per modulus chunk, then one
    ``accumulate`` task per row band.  Tiles are processed one at a time —
    bounding the transient workspace to a single ``(N, m_tile, n_tile)``
    stack, which is what the memory budget promises — while the tasks
    inside each tile fan out across the pool.
    """
    n_mod = plan.num_moduli
    if a_slices.shape != (n_mod, plan.m, plan.k):
        raise ValueError(
            f"A residue stack has shape {a_slices.shape}, plan expects "
            f"{(n_mod, plan.m, plan.k)}"
        )
    if b_slices.shape != (n_mod, plan.k, plan.n):
        raise ValueError(
            f"B residue stack has shape {b_slices.shape}, plan expects "
            f"{(n_mod, plan.k, plan.n)}"
        )

    if scheduler.backend(plan) == "process":
        try:
            with _Workspace(scheduler, shared=True) as ws:
                c_pp = _run_plan(ws, plan, a_slices, b_slices, table, times, trusted)
            scheduler._count_call("process")
            return c_pp
        except (MemoryError, faults.InjectedFault) as exc:
            # Shared-memory allocation failed in the parent (or the
            # ``shm.alloc`` site fired): run the plan in this process
            # instead — bit-identical by construction — rather than failing
            # the whole GEMM.  Recorded, never silent.
            scheduler.engine.counter.record_fault_event("shm_fallback")
            _LOG.warning(
                "process-backend plan execution fell back to the thread "
                "path: %s",
                exc,
            )
    try:
        ws = _Workspace(scheduler, shared=False)
        c_pp = _run_plan(ws, plan, a_slices, b_slices, table, times, trusted)
    finally:
        # Merge on the error path too, so a failing task never strands the
        # completed tasks' ledgers in the clones.
        scheduler.merge_counters()
    scheduler._count_call("thread" if scheduler.is_parallel else "serial")
    return c_pp


def _run_plan(
    ws: "_Workspace",
    plan: ExecutionPlan,
    a_slices: np.ndarray,
    b_slices: np.ndarray,
    table: CRTConstantTable,
    times: "PhaseTimes | None",
    trusted: bool,
) -> np.ndarray:
    """The plan's task list, tile by tile, on the arrays of ``ws``."""
    n_mod = plan.num_moduli
    chunks = modulus_chunk_ranges(n_mod, ws.scheduler.workers)
    # One k-block leaves the engine's INT32 product in c_stack; several are
    # summed there in exact INT64.
    c_dtype = np.int64 if plan.num_k_blocks > 1 else np.int32
    a, b = ws.operand(a_slices), ws.operand(b_slices)
    out = ws.empty((plan.m, plan.n), np.float64)
    for tile in plan.tiles():
        (m0, m1), (n0, n1) = tile
        c_stack = ws.empty((n_mod, m1 - m0, n1 - n0), c_dtype)
        matmul = dict(
            a=a, b=b, c=c_stack, tile=tile, k_ranges=plan.k_ranges, trusted=trusted
        )
        accumulate = dict(c=c_stack, out=out, tile=tile, table=table)
        t0 = time.perf_counter()
        ws.run("matmul", [dict(matmul, chunk=chunk) for chunk in chunks])
        t1 = time.perf_counter()
        seconds = ws.run(
            "accumulate",
            [dict(accumulate, rows=rows) for rows in ws.bands(m1 - m0, n1 - n0)],
        )
        t2 = time.perf_counter()
        ws.free(c_stack)
        if times is not None:
            reconstruct_s = max(rec for _, rec in seconds)
            times.add("matmul", t1 - t0)
            times.add("accumulate", t2 - t1 - reconstruct_s)
            times.add("reconstruct", reconstruct_s)
    return np.array(out, copy=True) if ws.shared else out


def _convert_on(
    ws: "_Workspace",
    x: np.ndarray,
    scale_exp: np.ndarray,
    side: str,
    table: CRTConstantTable,
) -> np.ndarray:
    """The conversion's task list on the arrays of ``ws``; the INT8 stack."""
    source = ws.operand(x)
    out = ws.empty((table.num_moduli,) + x.shape, np.int8)
    convert = dict(x=source, out=out, scale_exp=scale_exp, side=side, table=table)
    ws.run("convert", [dict(convert, rows=rows) for rows in ws.bands(*x.shape)])
    return ws.keep(out)


# -- task handlers ----------------------------------------------------------
# Each takes the executing engine and arrays (views in this process, or the
# opened descriptors of a process task) and writes a disjoint slice of its
# output, so a task re-run after a fault rewrites exactly what it wrote.


def _matmul(
    engine: MatrixEngine,
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    chunk: Range,
    tile: Tile,
    k_ranges: Sequence[Range],
    trusted: bool,
) -> None:
    """Line 6 for the moduli ``chunk`` of one tile: rows ``chunk`` of ``c``.

    One ``matmul_stack`` call per k-block.  A single block writes its INT32
    product straight into ``c``; several are summed there in exact INT64,
    in ascending-k order (integer addition makes the order irrelevant to
    the value; fixing it documents the determinism).
    """
    lo, hi = chunk
    (m0, m1), (n0, n1) = tile
    rows = c[lo:hi]

    def product(k0: int, k1: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        return engine.matmul_stack(
            a[lo:hi, m0:m1, k0:k1], b[lo:hi, k0:k1, n0:n1], trusted=trusted, out=out
        )

    first, *rest = k_ranges
    if not rest:
        product(*first, out=rows)
        return
    rows[...] = product(*first)
    for k0, k1 in rest:
        rows += product(k0, k1)


def _accumulate(
    engine: MatrixEngine,
    c: np.ndarray,
    out: np.ndarray,
    rows: Range,
    tile: Tile,
    table: CRTConstantTable,
) -> Tuple[float, float]:
    """Lines 7–11 for the rows ``rows`` of one tile's ``c``, into ``out``.

    Runs per cache-sized row block (:func:`accumulation_row_blocks`), so
    each block's U-stack stays resident through both steps; both are
    elementwise in the rows, so any banding gives the same bits.  Returns
    the band's measured ``(accumulate_s, reconstruct_s)``.
    """
    r0, r1 = rows
    (m0, _), (n0, n1) = tile
    accumulate_s = reconstruct_s = 0.0
    for b0, b1 in accumulation_row_blocks(r1 - r0, n1 - n0):
        t0 = time.perf_counter()
        c1, c2 = accumulate_residue_products(c[:, r0 + b0 : r0 + b1], table)
        t1 = time.perf_counter()
        out[m0 + r0 + b0 : m0 + r0 + b1, n0:n1] = reconstruct_crt(c1, c2, table)
        accumulate_s += t1 - t0
        reconstruct_s += time.perf_counter() - t1
    return accumulate_s, reconstruct_s


def _convert(
    engine: MatrixEngine,
    x: np.ndarray,
    out: np.ndarray,
    rows: Range,
    scale_exp: np.ndarray,
    side: str,
    table: CRTConstantTable,
) -> None:
    """Lines 2–5 for the rows ``rows`` of ``x``: ``out[:, r0:r1]``.

    Row scales ("left") band with the rows; column scales ("right") apply
    whole to every band.
    """
    r0, r1 = rows
    exps = scale_exp[r0:r1] if side == "left" else scale_exp
    residue_slices(truncate_scaled(x[r0:r1], exps, side), table, out=out[:, r0:r1])


_HANDLERS = {"matmul": _matmul, "accumulate": _accumulate, "convert": _convert}


class _Workspace:
    """Where one call's arrays live and how its tasks run.

    Serial and thread runs (``shared=False``) use plain arrays and call the
    handlers on views here: a wave of several tasks through
    :meth:`Scheduler.map`, a single task in the calling thread.  Process
    runs place every array in shared memory registered with the scheduler
    (:meth:`Scheduler.adopt_shared`; an operand the scheduler already
    shares, or a memory-mapped stack, is used as it is) and send the tasks
    through :meth:`Scheduler.run_process_tasks`, each array replaced by its
    descriptor.  The segments made here are released on exit unless kept.
    """

    def __init__(self, scheduler: Scheduler, shared: bool) -> None:
        self.scheduler = scheduler
        self.shared = shared
        #: Views of the segments made here.
        self._owned: List[np.ndarray] = []

    def __enter__(self) -> "_Workspace":
        return self

    def __exit__(self, *exc: object) -> None:
        for arr in self._owned:
            self.scheduler.release(arr)
        self._owned.clear()

    def bands(self, rows: int, cols: int) -> Tuple[Range, ...]:
        """Row bands of a conversion or accumulation wave over ``rows x cols``.

        One per worker under the process backend.  Serial and thread runs
        band only when each band would hold at least
        :data:`BAND_MIN_ELEMENTS` elements, and run a smaller wave as one
        band in the calling thread.
        """
        workers = self.scheduler.workers
        if not self.shared and (rows // workers) * cols < BAND_MIN_ELEMENTS:
            workers = 1
        return modulus_chunk_ranges(rows, workers)

    def _own(self, handle: SharedArray) -> np.ndarray:
        arr = self.scheduler.adopt_shared(handle)
        self._owned.append(arr)
        return arr

    def empty(self, shape: Tuple[int, ...], dtype: Any) -> np.ndarray:
        if not self.shared:
            return np.empty(shape, dtype=dtype)
        return self._own(SharedArray.create(shape, dtype))

    def operand(self, arr: np.ndarray) -> np.ndarray:
        """``arr`` as tasks reference it: itself, or a shared-memory copy."""
        if not self.shared or self._descriptor(arr) is not None:
            return arr
        return self._own(SharedArray.copy_from(np.ascontiguousarray(arr)))

    def free(self, arr: np.ndarray) -> None:
        """Release ``arr``'s segment now (a plain array is left to the GC)."""
        self.keep(arr)  # a view held here would keep the segment mapped
        self.scheduler.release(arr)

    def keep(self, arr: np.ndarray) -> np.ndarray:
        """Leave ``arr``'s segment to the caller past exit (it is released
        with the rest if the call fails first)."""
        self._owned = [owned for owned in self._owned if owned is not arr]
        return arr

    def run(self, kind: str, tasks: List[Dict[str, Any]]) -> List[Any]:
        """Run one wave of ``kind`` tasks; their results in order."""
        if self.shared:
            return self.scheduler.run_process_tasks(
                [(kind, self._to_wire(task)) for task in tasks]
            )
        handler = _HANDLERS[kind]
        if len(tasks) == 1:
            return [handler(self.scheduler.engine, **tasks[0])]
        return self.scheduler.map(lambda engine, task: handler(engine, **task), tasks)

    def _descriptor(self, value: Any) -> Optional[Descriptor]:
        return self.scheduler.shared_descriptor(value) or file_descriptor(value)

    def _to_wire(self, task: Dict[str, Any]) -> Dict[str, Any]:
        """``task`` with each shared or memory-mapped array as its descriptor."""
        return {key: self._descriptor(value) or value for key, value in task.items()}
