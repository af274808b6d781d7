"""Batched emulated GEMM: many products through one shared runtime.

:func:`ozaki2_gemm_batched` evaluates ``Cs[j] = As[j] @ Bs[j]`` for a whole
batch with one configuration, sharing everything that does not depend on an
individual item's values:

* one cached :class:`~repro.crt.constants.CRTConstantTable`,
* one :class:`~repro.runtime.scheduler.Scheduler` (worker pool + engine
  clones) kept warm across items,
* one residue-conversion pass per *operand shape*: items of equal shape
  have their truncated operands stacked and pushed through the ``rmod``
  kernels in a single NumPy call per modulus, instead of one call per item,
* one conversion per *distinct matrix*: items that pass the same array
  object on a side share a single truncate/residue pass in fast mode (a
  precomputed :class:`~repro.core.operand.ResidueOperand` converts no
  more at all) — the exact situation of LU trailing updates and iterative
  solvers reusing one system matrix.

Everything before conversion is per item and goes through the GEMM's own
front end, :func:`repro.core.gemm._scaled_sides`: validation, the item's
own ``num_moduli="auto"`` selection, and its scales (in fast mode an array
object that recurs in the batch is scaled once per count).  Each item's tasks
still fan out over the pool, and items are retired one at a time so
per-item op ledgers stay exact.  Results are bit-identical to
looping :func:`~repro.core.gemm.ozaki2_gemm` over the batch — the batched
path reorders no floating-point operation, it only amortises fixed costs.
(Shared conversions are charged to the first item that uses them; later
items report 0 for the shared phase, exactly like prepared operands.)
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ComputeMode, Ozaki2Config
from ..core.accumulation import unscale
from ..core.conversion import residue_slices, truncate_scaled
from ..core.gemm import _scaled_sides
from ..core.operand import PreparedOperand
# Scaling runs in core.gemm._scaled_sides; these names stay importable here
# because perfbench's span tracer looks them up in this module.
from ..core.scaling import accurate_mode_prescale, accurate_scales_from_prescale  # noqa: F401
from ..core.scaling import fast_mode_scale_a, fast_mode_scale_b  # noqa: F401
from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from ..result import GemmResult, PhaseTimes
from ..types import result_dtype
from .plan import ExecutionPlan, plan_for_config
from .scheduler import Scheduler, execute_plan

__all__ = ["ozaki2_gemm_batched"]


def ozaki2_gemm_batched(
    As: Sequence[np.ndarray],
    Bs: Sequence[np.ndarray],
    config: Optional[Ozaki2Config] = None,
    engine: Optional[MatrixEngine] = None,
    return_details: bool = False,
    constant_table: Optional[CRTConstantTable] = None,
    scheduler: Optional[Scheduler] = None,
    memory_budgets_mb: Optional[Sequence[Optional[float]]] = None,
):
    """Emulate ``As[j] @ Bs[j]`` for every item of a batch (Algorithm 1).

    Parameters
    ----------
    As, Bs:
        Equal-length sequences of operand matrices; item ``j`` must have a
        matching inner dimension.  Shapes may differ between items — equal
        shapes are detected and share one conversion pass.  Entries may
        also be precomputed operands — fast-mode
        :class:`~repro.core.operand.ResidueOperand` or accurate-mode
        :class:`~repro.core.operand.AccurateOperand` objects, matching
        ``config.mode`` — and items passing the *same* array object
        on a side share a single conversion in fast mode.
    config:
        One :class:`~repro.config.Ozaki2Config` applied to every item
        (``parallelism`` and ``memory_budget_mb`` drive the runtime).
    engine:
        Primary INT8 engine; defaults to a fresh one.  Its ledger ends up
        holding the whole batch's operations.
    return_details:
        When True, return a list of :class:`~repro.result.GemmResult`
        (with per-item op-counter deltas) instead of plain matrices.
    constant_table:
        Precomputed constant table (otherwise built/cached from the config).
    scheduler:
        Existing :class:`Scheduler` to reuse; by default one is created for
        the call (worker count from ``config.parallelism``, backend from
        ``config.executor``) and closed before returning.
    memory_budgets_mb:
        Optional per-item workspace caps (MiB), overriding
        ``config.memory_budget_mb`` item by item — mixed-size batches can
        keep small items untiled while the large ones stream through
        budgeted tiles.  ``None`` entries inherit the config's budget.
        Results are bit-identical for every budget (tiling never reorders
        a floating-point operation).

    Returns
    -------
    List of ``C`` matrices, or list of :class:`~repro.result.GemmResult` when
    ``return_details`` is true, in batch order.
    """
    if len(As) != len(Bs):
        raise ValueError(f"batch length mismatch: {len(As)} A's vs {len(Bs)} B's")
    if memory_budgets_mb is not None and len(memory_budgets_mb) != len(As):
        raise ValueError(
            f"memory_budgets_mb has {len(memory_budgets_mb)} entries for a "
            f"batch of {len(As)}"
        )
    config = config or Ozaki2Config()
    if len(As) == 0:
        # An empty batch is a no-op, not an error: no scheduler, plan or
        # conversion state is set up, and `[]` is returned for both the
        # plain and the return_details flavours.
        return []
    out_dtype = result_dtype(config.precision)

    own_scheduler = scheduler is None
    sched = scheduler or Scheduler(
        parallelism=config.parallelism,
        engine=engine,
        executor=config.executor,
        max_pool_rebuilds=config.max_pool_rebuilds,
    )
    try:
        return _run_batch(
            As, Bs, config, constant_table, out_dtype, sched, return_details,
            memory_budgets_mb,
        )
    finally:
        if own_scheduler:
            sched.close()


def _run_batch(
    As: Sequence[np.ndarray],
    Bs: Sequence[np.ndarray],
    config: Ozaki2Config,
    constant_table: Optional[CRTConstantTable],
    out_dtype,
    sched: Scheduler,
    return_details: bool,
    memory_budgets_mb: Optional[Sequence[Optional[float]]] = None,
) -> List:
    batch = len(As)
    engine = sched.engine
    fast = config.mode is ComputeMode.FAST
    times: List[PhaseTimes] = [PhaseTimes() for _ in range(batch)]

    # -- per item: lines 1-5 up to conversion, then truncation ----------------
    # Each item goes through the GEMM front end (validation, per-item auto N,
    # scales).  ``a_primes[j] is None`` means item j needs no residue
    # conversion of its own: the side carries a residue stack, or it
    # aliases (``a_src[j]``) an earlier item that passed the very same array
    # object at the same count (fast mode derives each side's scales from
    # that side alone, so identical inputs convert identically).
    sides = []
    a_primes: List[Optional[np.ndarray]] = [None] * batch
    b_primes: List[Optional[np.ndarray]] = [None] * batch
    a_src = list(range(batch))
    b_src = list(range(batch))
    plans = []
    scale_counters = []
    seen_a: Dict[Tuple[int, int], int] = {}
    seen_b: Dict[Tuple[int, int], int] = {}
    scale_memo: Dict[tuple, np.ndarray] = {}
    for j in range(batch):
        # Accurate mode issues engine GEMMs during scaling; snapshot the
        # ledger so those calls are attributed to this item's counter.
        counter_before = engine.counter.copy()
        item = _scaled_sides(
            As[j], Bs[j], config, constant_table, engine, times[j], scale_memo
        )
        scale_counters.append(engine.counter.difference(counter_before))
        sides.append(item)
        # Per-item memory budget: override the config's cap before the plan
        # is built, so mixed-size batches tile each item to its own budget.
        if memory_budgets_mb is not None and memory_budgets_mb[j] is not None:
            item.config = item.config.replace(memory_budget_mb=memory_budgets_mb[j])
        plans.append(plan_for_config(item.m, item.k, item.n, item.config))

        per_side = (
            (As[j], item.a_source, item.mu_exp, "left", "convert_A", a_primes, a_src, seen_a),
            (Bs[j], item.b_source, item.nu_exp, "right", "convert_B", b_primes, b_src, seen_b),
        )
        for x_in, source, exps, side, key, primes, src, seen in per_side:
            if source is None:  # the side carries its residue stack
                times[j].add(key, 0.0)
                continue
            if fast and not isinstance(x_in, PreparedOperand):
                alias = (id(x_in), item.config.num_moduli)
                if alias in seen:
                    src[j] = src[seen[alias]]
                    times[j].add(key, 0.0)
                    continue
                seen[alias] = j
            t0 = time.perf_counter()
            primes[j] = truncate_scaled(source, exps, side=side)
            times[j].add(key, time.perf_counter() - t0)

    # -- shared residue conversion -------------------------------------------
    # Each item converts on its plan's route.  Thread-path items (every item
    # of a serial or thread scheduler, the small ones under executor="auto")
    # share one pass per (shape, moduli) group; process-routed items convert
    # per item through the scheduler instead — the INT8 stacks land in
    # scheduler-owned shared memory (grouped stacking would yield
    # non-contiguous per-item views no worker can attach), the rows band
    # across the worker processes, and the result is bit-identical (residue
    # conversion is elementwise).
    tables = [item.table for item in sides]
    a_slices = b_slices = None
    # Recoveries during the shared conversion phase (shm fallbacks, pool
    # rebuilds, degradation) belong to the whole batch, not any one item's
    # execution window; attribute them to the first detailed result so they
    # stay visible on some ledger instead of falling between snapshots.
    convert_before = engine.counter.copy()
    try:
        a_slices = _residue_slices(
            a_primes, tables, plans, config, times, "convert_A", sched
        )
        b_slices = _residue_slices(
            b_primes, tables, plans, config, times, "convert_B", sched
        )
        for j, item in enumerate(sides):
            if item.a_slices is not None:
                a_slices[j] = item.a_slices
            elif a_slices[j] is None:
                a_slices[j] = a_slices[a_src[j]]
            if item.b_slices is not None:
                b_slices[j] = item.b_slices
            elif b_slices[j] is None:
                b_slices[j] = b_slices[b_src[j]]

        shared_fault_events = dict(
            engine.counter.difference(convert_before).fault_events
        )

        # -- execution: items retired in order, tasks fanned out per item ----
        results = []
        for j, item in enumerate(sides):
            counter_before = engine.counter.copy()
            c_pp = execute_plan(
                sched,
                plans[j],
                a_slices[j],
                b_slices[j],
                item.table,
                item.config,
                times=times[j],
                trusted=True,
            )
            engine.counter.record_emulated(item.config.num_moduli)
            t0 = time.perf_counter()
            c = unscale(c_pp, item.mu_exp, item.nu_exp, out_dtype=out_dtype)
            times[j].add("unscale", time.perf_counter() - t0)
            if not return_details:
                results.append(c)
                continue
            item_counter = engine.counter.difference(counter_before)
            item_counter.absorb(scale_counters[j])
            if j == 0:
                for event, count in shared_fault_events.items():
                    item_counter.record_fault_event(event, count)
            results.append(
                GemmResult(
                    value=c,
                    config=item.config,
                    mu_exp=item.mu_exp,
                    nu_exp=item.nu_exp,
                    phase_times=times[j],
                    ledger=item_counter,
                    num_k_blocks=plans[j].num_k_blocks,
                    moduli_selection=item.selection,
                    moduli_history=[item.config.num_moduli],
                )
            )
        return results
    finally:
        # Free scheduler-owned conversion segments now (the whole batch is
        # retired; aliased items shared them).  No-ops for grouped/prepared
        # arrays, and duplicates release once — `release` pops by identity.
        for arrays in (a_slices, b_slices):
            for arr in arrays or ():
                sched.release(arr)


def _residue_slices(
    primes: List[Optional[np.ndarray]],
    tables: List[CRTConstantTable],
    plans: List[ExecutionPlan],
    config: Ozaki2Config,
    times: List[PhaseTimes],
    phase_key: str,
    sched: Scheduler,
) -> List[Optional[np.ndarray]]:
    """Residue stacks for every item, each converted on its plan's route.

    Items the scheduler runs on worker processes convert one by one through
    :meth:`Scheduler.convert_residues`: operands are already truncate-scaled
    (``scale=None``), the rows band across the workers and the INT8 stack
    comes back as a scheduler-shared view that plan execution passes to the
    workers zero-copy.  Every other item goes through
    :func:`_grouped_residue_slices`.  ``None`` entries (prepared or aliased)
    stay ``None`` for the caller.
    """
    on_processes = [sched.backend(plan) == "process" for plan in plans]
    out = _grouped_residue_slices(
        [None if proc else x for x, proc in zip(primes, on_processes, strict=True)],
        tables,
        config,
        times,
        phase_key,
    )
    for j, x in enumerate(primes):
        if x is None or not on_processes[j]:
            continue
        t0 = time.perf_counter()
        out[j] = sched.convert_residues(x, None, "left", tables[j], config, plans[j])
        times[j].add(phase_key, time.perf_counter() - t0)
    return out


def _grouped_residue_slices(
    primes: List[Optional[np.ndarray]],
    tables: List[CRTConstantTable],
    config: Ozaki2Config,
    times: List[PhaseTimes],
    phase_key: str,
) -> List[Optional[np.ndarray]]:
    """Residue stacks for every item, one pass per ``(shape, moduli)`` group.

    Items sharing a shape *and* a (possibly auto-selected, hence per-item)
    moduli count are stacked into a single ``(group, rows, cols)`` array so
    each ``rmod`` kernel runs once per modulus for the whole group (the
    kernels are elementwise, so the stacked result is bit-identical to
    converting items one by one).  The group's conversion time is split
    evenly across its members' phase ledgers.  ``None`` entries (prepared
    or aliased operands) are skipped and stay ``None`` in the output — the
    caller fills them from their source.
    """
    groups: Dict[Tuple[Tuple[int, int], int], List[int]] = {}
    for j, x in enumerate(primes):
        if x is not None:
            groups.setdefault((x.shape, tables[j].num_moduli), []).append(j)

    out: List[Optional[np.ndarray]] = [None] * len(primes)
    for members in groups.values():
        table = tables[members[0]]
        t0 = time.perf_counter()
        if len(members) == 1:
            j = members[0]
            out[j] = residue_slices(primes[j], table, config.residue_kernel)
        else:
            stacked = np.stack([primes[j] for j in members])
            slices = residue_slices(stacked, table, config.residue_kernel)
            # slices has shape (N, group, rows, cols) -> per item (N, rows, cols)
            for pos, j in enumerate(members):
                out[j] = slices[:, pos]
        dt = (time.perf_counter() - t0) / len(members)
        for j in members:
            times[j].add(phase_key, dt)
    return out
