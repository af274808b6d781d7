"""Worker-pool scheduler executing :class:`~repro.runtime.plan.ExecutionPlan`s.

The ``N`` residue GEMMs of Ozaki scheme II (and their k-blocks) are
independent integer products, so they can run on any number of workers in
any order and still reconstruct bit-identically: every engine call is exact
in INT32/INT64, the k-block partial sums are exact integer additions, and
the only floating-point accumulation (lines 8–9 of Algorithm 1) is applied
per output tile in a fixed modulus order by exactly the code the serial
path uses.  A task is a contiguous *modulus chunk* of the residue stack —
one stacked engine call — and a k-block; chunk boundaries follow the
executing scheduler's worker count and never affect the value.  The
scheduler therefore guarantees

    ``execute_plan(parallelism=W) == execute_plan(parallelism=1)``  (bitwise)

for every worker count ``W`` — and for every executor backend.

Two backends share that contract:

* ``executor="thread"`` — a ``ThreadPoolExecutor``.  Each task is one large
  NumPy matmul, which releases the GIL, so the BLAS calls scale; residue
  conversion and CRT accumulation stay serialised under the GIL.
* ``executor="process"`` — a persistent pool of worker processes
  (:mod:`repro.runtime.process`).  Residue stacks live in shared memory
  (:mod:`repro.runtime.shm`), workers write partial ``c_stack`` chunks and
  reconstructed rows in place, and conversion/accumulation parallelise
  too.

``executor="auto"`` picks between them per call: a plan whose INT8 work
``N·m·k·n`` reaches :data:`~repro.runtime.plan.PROCESS_MIN_MACS` runs on
the processes, a smaller one on the threads (:meth:`Scheduler.backend`).

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
from ..config import Ozaki2Config, ResidueKernel
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
from .plan import ExecutionPlan, modulus_chunk_ranges, resolve_executor, resolve_parallelism
from .process import (
    _TASK_HANDLERS,
    ProcessPool,
    WorkerError,
    WorkerTaskError,
    execute_plan_process,
    table_spec,
)
from .shm import SharedArray

__all__ = ["Scheduler", "execute_plan"]

_LOG = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


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
        process backend does not route through ``map`` — its tasks are the
        shared-memory descriptors of :meth:`run_process_tasks`.)
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
                    self.workers, self.engine, fault_spec=fault_spec
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

        The handlers operate on the same shared-memory / mmap descriptors
        the workers would have attached, and the parent engine records the
        identical op totals the absorbed worker deltas would have
        contributed — so mid-plan degradation changes neither the value nor
        the work counters of the run.
        """
        return [_TASK_HANDLERS[kind](self.engine, payload) for kind, payload in tasks]

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

    def shared_descriptor(self, arr: np.ndarray) -> Optional[Tuple[Any, ...]]:
        """The worker descriptor for a view this scheduler shares, else None."""
        with self._shared_lock:
            handle = self._shared.get(id(arr))
        if handle is None:
            return None
        return ("shm", *handle.descriptor)

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
    def convert_residues_inline(
        self,
        x: np.ndarray,
        scale: Optional[np.ndarray],
        side: str,
        table: CRTConstantTable,
        config: Ozaki2Config,
    ) -> np.ndarray:
        """The serial conversion pipeline (also the shm-failure fallback)."""
        x_prime = x if scale is None else truncate_scaled(x, scale, side)
        return residue_slices(x_prime, table, config.residue_kernel)

    def convert_residues(
        self,
        x: np.ndarray,
        scale: Optional[np.ndarray],
        side: str,
        table: CRTConstantTable,
        config: Ozaki2Config,
        plan: ExecutionPlan,
    ) -> np.ndarray:
        """Truncate-scale ``x`` (optional) and convert to INT8 residues.

        Conversion follows the :meth:`backend` of ``plan``, the call it
        feeds.  The thread/serial path runs the exact inline pipeline
        (:func:`~repro.core.conversion.truncate_scaled` +
        :func:`~repro.core.conversion.residue_slices`).  Under the process
        backend the rows are banded across workers — both steps are
        elementwise in the rows, so the result is bitwise identical — and
        the INT8 stack comes back as a scheduler-owned shared-memory view
        that plan execution hands to workers zero-copy.  Callers should
        :meth:`release` the returned stack when done (close() sweeps any
        stragglers).
        """
        if self.backend(plan) != "process" or x.ndim != 2 or x.shape[0] < 2:
            return self.convert_residues_inline(x, scale, side, table, config)
        try:
            source = SharedArray.copy_from(np.ascontiguousarray(x, dtype=np.float64))
        except (MemoryError, faults.InjectedFault) as exc:
            # Shared memory exhausted (or the ``shm.alloc`` site fired):
            # fall back to the inline conversion, which needs no segments
            # and is bit-identical by construction.
            self.engine.counter.record_fault_event("shm_fallback")
            _LOG.warning("shared-memory conversion fell back inline: %s", exc)
            return self.convert_residues_inline(x, scale, side, table, config)
        try:
            out = SharedArray.create((table.num_moduli,) + x.shape, np.int8)
        except (MemoryError, faults.InjectedFault) as exc:
            self.engine.counter.record_fault_event("shm_fallback")
            _LOG.warning("shared-memory conversion fell back inline: %s", exc)
            source.close()
            return self.convert_residues_inline(x, scale, side, table, config)
        try:
            spec = table_spec(table)
            tasks = []
            for r0, r1 in modulus_chunk_ranges(x.shape[0], self.workers):
                if scale is None:
                    scale_band = None
                elif side == "left":
                    # Row scales band with the rows; column scales ("right")
                    # apply whole to every band.
                    scale_band = np.ascontiguousarray(scale[r0:r1])
                else:
                    scale_band = np.ascontiguousarray(scale)
                tasks.append(
                    (
                        "convert",
                        {
                            "x": ("shm", *source.descriptor),
                            "out": ("shm", *out.descriptor),
                            "rows": (r0, r1),
                            "scale": scale_band,
                            "side": side,
                            "table": spec,
                            "kernel": config.residue_kernel,
                        },
                    )
                )
            self.run_process_tasks(tasks)
        except BaseException:
            out.close()
            raise
        finally:
            source.close()
        return self.adopt_shared(out)


def execute_plan(
    scheduler: Scheduler,
    plan: ExecutionPlan,
    a_slices: np.ndarray,
    b_slices: np.ndarray,
    table: CRTConstantTable,
    config: Ozaki2Config,
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
        CRT constant table matching ``config``.
    config:
        Configuration; selects the ``mod`` kernel of the accumulation.
        Tasks are modulus *chunks* of the stack, one
        :meth:`~repro.engines.base.MatrixEngine.matmul_stack` call per
        chunk and k-block: serial runs take the whole stack in one call per
        tile and k-block, parallel runs split it across workers.
    times:
        Optional :class:`~repro.core.gemm.PhaseTimes` receiving per-phase
        seconds under the keys ``matmul`` / ``accumulate`` / ``reconstruct``.
        Wall-clock is attributed per stage, so under parallelism the
        ``matmul`` entry is the elapsed (not summed per-worker) time.
    trusted:
        Declare the residue stacks as produced by this library's own
        conversion (INT8, in range by construction), letting the engine
        skip its per-call validation sweeps.  Off by default so
        external callers handing in arbitrary stacks keep full validation.

    Tiles are processed one at a time — bounding the transient workspace to
    a single ``(N, m_tile, n_tile)`` stack, which is what the memory budget
    promises — while the engine calls inside each tile fan out across the
    pool.
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
            c_pp = execute_plan_process(
                scheduler, plan, a_slices, b_slices, table, config, times, trusted
            )
            scheduler._count_call("process")
            return c_pp
        except (MemoryError, faults.InjectedFault) as exc:
            # Shared-memory allocation failed in the parent (or the
            # ``shm.alloc`` site fired) before/between dispatch waves: the
            # plan has not produced any output yet this tile, so fall
            # through to the thread path — bit-identical by construction —
            # rather than failing the whole GEMM.  Recorded, never silent.
            scheduler.engine.counter.record_fault_event("shm_fallback")
            _LOG.warning(
                "process-backend plan execution fell back to the thread "
                "path: %s",
                exc,
            )

    blocked = plan.num_k_blocks > 1
    # Modulus chunks sized for the worker count actually executing the plan:
    # the plan's own decomposition when the scheduler matches its recorded
    # parallelism (the entry points always construct the scheduler from it),
    # re-chunked for an externally supplied scheduler with a different
    # worker count.  Tasks are ordered chunk-major so the unblocked path can
    # reassemble the stack by concatenation; chunking never affects the
    # value.
    if scheduler.workers == plan.parallelism:
        chunks = plan.modulus_chunks
    else:
        chunks = modulus_chunk_ranges(n_mod, scheduler.workers)
    tasks = [
        (lo, hi, start, stop)
        for lo, hi in chunks
        for start, stop in plan.k_ranges
    ]
    c_pp = np.empty((plan.m, plan.n), dtype=np.float64)

    try:
        for (m0, m1), (n0, n1) in plan.tiles():

            def _matmul(engine: MatrixEngine, task, _m0=m0, _m1=m1, _n0=n0, _n1=n1):
                lo, hi, start, stop = task
                return engine.matmul_stack(
                    a_slices[lo:hi, _m0:_m1, start:stop],
                    b_slices[lo:hi, start:stop, _n0:_n1],
                    trusted=trusted,
                )

            t0 = time.perf_counter()
            partials = scheduler.map(_matmul, tasks)
            t1 = time.perf_counter()

            if blocked:
                # Exact INT64 accumulation over k-blocks, in ascending-k order
                # (the order is irrelevant to the value — integer addition is
                # associative — but keeping it fixed documents the determinism).
                c_stack = np.zeros((n_mod, m1 - m0, n1 - n0), dtype=np.int64)
                for (lo, hi, _, _), partial in zip(tasks, partials, strict=True):
                    c_stack[lo:hi] += partial.astype(np.int64)
            else:
                # One k-block: tasks are the chunks in modulus order already.
                c_stack = partials[0] if len(partials) == 1 else np.concatenate(partials)

            use_mulhi = (
                config.residue_kernel is ResidueKernel.FAST_FMA
                and c_stack.dtype == np.int32
            )
            # Accumulate and reconstruct per row block, so each block's
            # U-stack stays cache-resident through both (bit-identical to
            # one whole-tile call: both steps are elementwise in the rows).
            # The stack assembly above belongs to the accumulate phase.
            accumulate_s = time.perf_counter() - t1
            reconstruct_s = 0.0
            for r0, r1 in accumulation_row_blocks(n_mod, m1 - m0, n1 - n0):
                t2 = time.perf_counter()
                c1, c2 = accumulate_residue_products(
                    c_stack[:, r0:r1], table, use_mulhi=use_mulhi
                )
                t3 = time.perf_counter()
                c_pp[m0 + r0 : m0 + r1, n0:n1] = reconstruct_crt(c1, c2, table)
                accumulate_s += t3 - t2
                reconstruct_s += time.perf_counter() - t3

            if times is not None:
                times.add("matmul", t1 - t0)
                times.add("accumulate", accumulate_s)
                times.add("reconstruct", reconstruct_s)
    finally:
        # Merge on the error path too, so a failing task never strands the
        # completed tasks' ledgers in the clones.
        scheduler.merge_counters()
    scheduler._count_call("thread" if scheduler.is_parallel else "serial")
    return c_pp
