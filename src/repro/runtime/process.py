"""Process-parallel execution backend (the "break the GIL" path).

The thread scheduler only scales the BLAS call itself: residue conversion,
CRT accumulation and reconstruction are NumPy ufunc chains that hold the
GIL, so ``runtime_scaling.txt`` historically showed 2 workers ≈ 1.0x.  This
module dispatches the same task decomposition to a persistent pool of
*worker processes* instead:

* operands travel through named shared memory (:mod:`repro.runtime.shm`) or
  read-only ``mmap`` descriptors — matrices are never pickled in either
  direction, only small task dicts cross the pipe;
* workers write partial ``c_stack`` chunks and reconstructed output rows
  straight into shared buffers;
* every task ships its per-task :class:`~repro.engines.base.OpCounter`
  delta back to the parent, which absorbs them into the primary engine so
  the merged ledger is indistinguishable from a serial run.

Bit-identity is preserved by construction: the INT8 residue products are
exact integers whatever process computes them, k-block partial sums are
exact integer additions, and the accumulation/reconstruction applied to a
row band of a tile is elementwise in the output positions — so splitting a
tile into row bands reproduces the serial float64 result bitwise (the same
argument that makes the thread path worker-count invariant).

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

import math
import mmap
import os
import pickle
import time
import traceback
from contextlib import ExitStack
from queue import Empty
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from .. import faults
from ..core.accumulation import (
    accumulate_residue_products,
    accumulation_row_blocks,
    reconstruct_crt,
)
from ..core.conversion import residue_slices, truncate_scaled
from ..crt.constants import CRTConstantTable, build_constant_table
from ..engines.base import MatrixEngine, OpCounter
from ..errors import ReproError
from .shm import SharedArray, attach_view, start_tracker

__all__ = [
    "ProcessPool",
    "WorkerError",
    "WorkerTaskError",
    "execute_plan_process",
    "operand_descriptor",
    "preferred_context",
]

#: Tagged wire descriptor of one operand: ``("shm", name, shape, dtype)``
#: for a shared-memory segment, ``("mmap", path, shape, dtype, offset)``
#: for an on-disk array opened read-only in the worker (out-of-core tiles).
OperandDescriptor = Tuple[Any, ...]

#: Table wire spec ``(num_moduli, precision_bits, moduli)`` — workers rebuild
#: the table from the process-local cache instead of unpickling megabytes.
TableSpec = Tuple[int, int, Tuple[int, ...]]


class WorkerError(RuntimeError):
    """A worker *process* died; the pool had to be torn down."""


class WorkerTaskError(RuntimeError):
    """A task raised inside a worker; the pool itself is still usable."""


def preferred_start_method() -> str:
    """The start method for runtime workers: ``fork`` when the platform has
    it (no re-import cost, workers inherit warmed NumPy), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def preferred_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context for :func:`preferred_start_method`."""
    return multiprocessing.get_context(preferred_start_method())


def table_spec(table: CRTConstantTable) -> TableSpec:
    """Compress a constant table to the tuple workers rebuild it from."""
    return (table.num_moduli, table.precision_bits, tuple(table.moduli))


def _table_from_spec(spec: TableSpec) -> CRTConstantTable:
    num_moduli, precision_bits, moduli = spec
    # build_constant_table is itself cached per (moduli, bits) pair, so each
    # worker pays the construction cost at most once per table.
    return build_constant_table(num_moduli, precision_bits, moduli=moduli)


def operand_descriptor(
    arr: np.ndarray,
) -> Tuple[OperandDescriptor, Optional[SharedArray]]:
    """Describe ``arr`` for zero-copy worker access.

    Returns ``(descriptor, temp)`` where ``temp`` is a temporary
    :class:`SharedArray` the caller must close after the dispatch (``None``
    when the array was already worker-reachable).  Root memory-maps — the
    out-of-core residue stacks — are described by filename/offset so each
    worker pages only the tiles it touches; anything else is copied into a
    fresh segment once.
    """
    if (
        isinstance(arr, np.memmap)
        and isinstance(arr.base, mmap.mmap)
        and arr.flags["C_CONTIGUOUS"]
        and arr.filename is not None
    ):
        return (
            ("mmap", str(arr.filename), tuple(arr.shape), arr.dtype.str, int(arr.offset)),
            None,
        )
    temp = SharedArray.copy_from(np.ascontiguousarray(arr))
    return ("shm", *temp.descriptor), temp


def _open_operand(desc: OperandDescriptor, stack: ExitStack) -> np.ndarray:
    """Worker-side: materialise a descriptor as a NumPy view."""
    if desc[0] == "shm":
        return stack.enter_context(attach_view(desc[1:]))
    if desc[0] == "mmap":
        # The ``tile.read`` injection site models an out-of-core tile whose
        # backing file fails to page in (disk error, truncated stage file).
        faults.raise_if("tile.read")
        _, path, shape, dtype_str, offset = desc
        return np.memmap(
            path,
            dtype=np.dtype(dtype_str),
            mode="r",
            offset=offset,
            shape=tuple(shape),
            order="C",
        )
    raise ValueError(f"unknown operand descriptor kind {desc[0]!r}")


# -- worker-side task handlers --------------------------------------------


def _task_matmul(engine: MatrixEngine, p: Dict[str, Any]) -> None:
    """One modulus chunk of one tile: INT8 products for every k-block.

    Replays exactly the engine calls the thread path makes for this chunk
    (one ``matmul_stack`` per k-block), accumulating k-block partials in
    exact INT64 before writing the chunk's rows of the shared ``c_stack``.
    """
    with ExitStack() as stack:
        a = _open_operand(p["a"], stack)
        b = _open_operand(p["b"], stack)
        c = _open_operand(p["c"], stack)
        lo, hi = p["chunk"]
        m0, m1 = p["m_range"]
        n0, n1 = p["n_range"]
        k_ranges: Sequence[Tuple[int, int]] = p["k_ranges"]
        blocked = len(k_ranges) > 1
        acc: Optional[np.ndarray] = None
        for start, stop in k_ranges:
            partial = engine.matmul_stack(
                a[lo:hi, m0:m1, start:stop],
                b[lo:hi, start:stop, n0:n1],
                trusted=p["trusted"],
            )
            if not blocked:
                acc = partial
            elif acc is None:
                acc = partial.astype(np.int64)
            else:
                acc += partial.astype(np.int64)
        c[lo:hi] = acc


def _task_accumulate(engine: MatrixEngine, p: Dict[str, Any]) -> Tuple[float, float]:
    """One row band of one tile: CRT accumulation + reconstruction.

    Reads the shared ``c_stack`` rows ``[r0, r1)``, writes the reconstructed
    float64 rows into the shared output at the tile's offset, and returns
    the measured ``(accumulate_seconds, reconstruct_seconds)`` so the parent
    can split the stage's wall-clock between the two phases.
    """
    with ExitStack() as stack:
        c = _open_operand(p["c"], stack)
        out = _open_operand(p["out"], stack)
        r0, r1 = p["rows"]
        m0, _ = p["m_range"]
        n0, n1 = p["n_range"]
        table = _table_from_spec(p["table"])
        accumulate_s = reconstruct_s = 0.0
        # Cache-sized row blocks within the band, as the thread path does.
        for b0, b1 in accumulation_row_blocks(table.num_moduli, r1 - r0, n1 - n0):
            t0 = time.perf_counter()
            c1, c2 = accumulate_residue_products(c[:, r0 + b0 : r0 + b1, :], table)
            t1 = time.perf_counter()
            out[m0 + r0 + b0 : m0 + r0 + b1, n0:n1] = reconstruct_crt(c1, c2, table)
            accumulate_s += t1 - t0
            reconstruct_s += time.perf_counter() - t1
        return (accumulate_s, reconstruct_s)


def _task_convert(engine: MatrixEngine, p: Dict[str, Any]) -> None:
    """One row band of one operand: truncate-scale + INT8 residue slices.

    Both steps are elementwise in the rows, so banding reproduces the
    full-matrix conversion bitwise.
    """
    with ExitStack() as stack:
        x = _open_operand(p["x"], stack)
        out = _open_operand(p["out"], stack)
        r0, r1 = p["rows"]
        band = x[r0:r1]
        if p["scale_exp"] is not None:
            band = truncate_scaled(band, p["scale_exp"], p["side"])
        table = _table_from_spec(p["table"])
        out[:, r0:r1] = residue_slices(band, table)


_TASK_HANDLERS = {
    "matmul": _task_matmul,
    "accumulate": _task_accumulate,
    "convert": _task_convert,
}


def _worker_main(
    task_queue: "multiprocessing.queues.Queue",
    result_queue: "multiprocessing.queues.Queue",
    engine_bytes: bytes,
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
            value = _TASK_HANDLERS[kind](engine, payload)
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
    them) with a pickled clone of the scheduler's engine; tasks and results
    travel over a pair of queues.  :meth:`run` is strictly synchronous — one
    dispatch wave at a time — which is all the tile-at-a-time executor
    needs.
    """

    def __init__(
        self,
        workers: int,
        engine: MatrixEngine,
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

    @property
    def closed(self) -> bool:
        return self._closed

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


def execute_plan_process(
    scheduler: "Scheduler",  # noqa: F821 - circular-import quoted type
    plan: "ExecutionPlan",  # noqa: F821
    a_slices: np.ndarray,
    b_slices: np.ndarray,
    table: CRTConstantTable,
    times: "PhaseTimes | None" = None,  # noqa: F821
    trusted: bool = False,
) -> np.ndarray:
    """Process-backend twin of :func:`~repro.runtime.scheduler.execute_plan`.

    Same task decomposition (modulus chunks × k-blocks per tile, the chunk
    boundaries chosen exactly as the thread path chooses them), but the
    matmul wave writes a shared ``c_stack`` and a second wave of row-band
    tasks performs accumulation + reconstruction *in the workers* — the two
    phases the GIL serialises under threads.  Bit-identical to the serial
    path; op ledgers merge to the identical totals.
    """
    from .plan import modulus_chunk_ranges

    n_mod = plan.num_moduli
    blocked = plan.num_k_blocks > 1
    if scheduler.workers == plan.parallelism:
        chunks = plan.modulus_chunks
    else:
        chunks = modulus_chunk_ranges(n_mod, scheduler.workers)
    # matmul_stack always yields INT32; k-blocked runs accumulate partials
    # exactly in INT64 — the same dtypes the thread path materialises.
    c_dtype = np.int64 if blocked else np.int32
    spec = table_spec(table)

    temps: List[SharedArray] = []
    a_desc, a_temp = operand_descriptor_for(scheduler, a_slices)
    if a_temp is not None:
        temps.append(a_temp)
    b_desc, b_temp = operand_descriptor_for(scheduler, b_slices)
    if b_temp is not None:
        temps.append(b_temp)
    out_handle = SharedArray.create((plan.m, plan.n), np.float64)
    try:
        for (m0, m1), (n0, n1) in plan.tiles():
            tile_rows = m1 - m0
            c_handle = SharedArray.create(
                (n_mod, tile_rows, n1 - n0), c_dtype
            )
            try:
                c_desc = ("shm", *c_handle.descriptor)
                matmul_tasks = [
                    (
                        "matmul",
                        {
                            "a": a_desc,
                            "b": b_desc,
                            "c": c_desc,
                            "chunk": chunk,
                            "m_range": (m0, m1),
                            "n_range": (n0, n1),
                            "k_ranges": tuple(plan.k_ranges),
                            "trusted": trusted,
                        },
                    )
                    for chunk in chunks
                ]
                t0 = time.perf_counter()
                scheduler.run_process_tasks(matmul_tasks)
                t1 = time.perf_counter()

                out_desc = ("shm", *out_handle.descriptor)
                bands = modulus_chunk_ranges(tile_rows, scheduler.workers)
                acc_tasks = [
                    (
                        "accumulate",
                        {
                            "c": c_desc,
                            "out": out_desc,
                            "rows": band,
                            "m_range": (m0, m1),
                            "n_range": (n0, n1),
                            "table": spec,
                        },
                    )
                    for band in bands
                ]
                phase_seconds = scheduler.run_process_tasks(acc_tasks)
                t2 = time.perf_counter()
            finally:
                c_handle.close()

            if times is not None:
                times.add("matmul", t1 - t0)
                acc_sum = math.fsum(s[0] for s in phase_seconds)
                rec_sum = math.fsum(s[1] for s in phase_seconds)
                stage = t2 - t1
                total = acc_sum + rec_sum
                # Split the band stage's wall-clock between the two phases
                # in proportion to the summed in-worker timings.
                share = (acc_sum / total) if total > 0.0 else 1.0
                times.add("accumulate", stage * share)
                times.add("reconstruct", stage * (1.0 - share))
        c_pp = np.array(out_handle.array, dtype=np.float64, copy=True)
    finally:
        out_handle.close()
        for temp in temps:
            temp.close()
    return c_pp


def operand_descriptor_for(
    scheduler: "Scheduler",  # noqa: F821
    arr: np.ndarray,
) -> Tuple[OperandDescriptor, Optional[SharedArray]]:
    """Like :func:`operand_descriptor`, but reuse the scheduler's segment
    when ``arr`` is a view the scheduler already shares (conversion output,
    adopted operand) — avoiding a second copy of the residue stack."""
    desc = scheduler.shared_descriptor(arr)
    if desc is not None:
        return desc, None
    return operand_descriptor(arr)
