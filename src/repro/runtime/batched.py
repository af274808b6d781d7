"""Batched emulated GEMM: a loop of :func:`~repro.core.gemm.ozaki2_gemm` calls
on one scheduler.

:func:`ozaki2_gemm_batched` evaluates ``Cs[j] = As[j] @ Bs[j]`` for a whole
batch by running the GEMM itself on every item, so a batch takes exactly
the route a single product takes.  What the batch shares is what does not
depend on an individual item's values:

* one :class:`~repro.runtime.scheduler.Scheduler` (worker pool + engine
  clones) kept warm across items,
* one preparation per *recurring array*: an array object passed on one
  side by more than one item is prepared once
  (:func:`~repro.core.operand.prepare_a` / :func:`~repro.core.operand.
  prepare_b`, in either mode) and every item multiplies the prepared
  operand — the situation of LU trailing updates and iterative solvers
  reusing one system matrix.  A prepared operand gives the bits of the raw
  array, so the results are bit-identical to looping
  :func:`~repro.core.gemm.ozaki2_gemm` over the batch.

Each item's result carries its own ledger, the engine work of its call.
The first item that uses a recurring array reports the preparation's
``convert_seconds`` in its ``convert_A``/``convert_B`` phase; later items
report only what their own call converts, exactly like any prepared
operand (nothing in fast mode; accurate mode still converts per partner).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import Ozaki2Config
from ..core.gemm import ozaki2_gemm
from ..core.operand import PreparedOperand, prepare_a, prepare_b
from ..crt.constants import CRTConstantTable
from ..engines.base import MatrixEngine
from .scheduler import Scheduler

# Every item runs through core.gemm.ozaki2_gemm; these names stay importable
# here because perfbench's span tracer looks them up in this module.
from ..core.accumulation import unscale  # noqa: F401
from ..core.conversion import residue_slices, truncate_scaled  # noqa: F401
from ..core.scaling import accurate_mode_prescale, accurate_scales_from_prescale  # noqa: F401
from ..core.scaling import fast_mode_scale_a, fast_mode_scale_b  # noqa: F401
from .scheduler import execute_plan  # noqa: F401

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
        matching inner dimension.  Shapes may differ between items.
        Entries may also be precomputed operands — fast-mode
        :class:`~repro.core.operand.ResidueOperand` or accurate-mode
        :class:`~repro.core.operand.AccurateOperand` objects, matching
        ``config.mode`` — and an array object passed on one side by more
        than one item is prepared once for all of them.
    config:
        One :class:`~repro.config.Ozaki2Config` applied to every item
        (``parallelism`` and ``memory_budget_mb`` drive the runtime).
    engine:
        Primary INT8 engine; defaults to a fresh one.  Its ledger ends up
        holding the whole batch's operations.
    return_details:
        When True, return a list of :class:`~repro.result.GemmResult`
        (each with its own item's ledger) instead of plain matrices.
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
        # An empty batch is a no-op, not an error: no scheduler is set up,
        # and `[]` is returned for both the plain and the return_details
        # flavours.
        return []

    # One object per entry, alive for the whole call, so ``id`` tells
    # recurring arrays apart (iterating a 3-D array makes a new view each
    # time).
    As, Bs = list(As), list(Bs)
    own_scheduler = scheduler is None
    sched = scheduler or Scheduler(
        parallelism=config.parallelism,
        engine=engine,
        executor=config.executor,
        max_pool_rebuilds=config.max_pool_rebuilds,
    )
    try:
        lhs = _prepare_recurring(As, prepare_a, config, constant_table)
        rhs = _prepare_recurring(Bs, prepare_b, config, constant_table)
        results = []
        for j, ((a, a_prep_seconds), (b, b_prep_seconds)) in enumerate(
            zip(lhs, rhs, strict=True)
        ):
            item_config = config
            if memory_budgets_mb is not None and memory_budgets_mb[j] is not None:
                item_config = config.replace(memory_budget_mb=memory_budgets_mb[j])
            result = ozaki2_gemm(
                a,
                b,
                config=item_config,
                scheduler=sched,
                return_details=return_details,
                constant_table=constant_table,
            )
            if return_details:
                # Nonzero only for the first user of a recurring array.
                result.phase_times.add("convert_A", a_prep_seconds)
                result.phase_times.add("convert_B", b_prep_seconds)
            results.append(result)
        return results
    finally:
        if own_scheduler:
            sched.close()


def _prepare_recurring(
    xs: List[np.ndarray],
    prepare: Callable[..., PreparedOperand],
    config: Ozaki2Config,
    constant_table: Optional[CRTConstantTable],
) -> List[Tuple[object, float]]:
    """Each entry of ``xs`` with the preparation seconds its item reports.

    An array object that occurs more than once is prepared once, and that
    prepared operand takes each of its places; its first user reports the
    preparation's ``convert_seconds``, every other entry 0.  Single arrays
    and caller-prepared operands are returned as they are.
    """
    counts = Counter(id(x) for x in xs if not isinstance(x, PreparedOperand))
    prepared: Dict[int, PreparedOperand] = {}
    out = []
    for x in xs:
        seconds = 0.0
        if counts[id(x)] > 1:
            if id(x) not in prepared:
                prepared[id(x)] = prepare(x, config, constant_table)
                seconds = prepared[id(x)].convert_seconds
            x = prepared[id(x)]
        out.append((x, seconds))
    return out
