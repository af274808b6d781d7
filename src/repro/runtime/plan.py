"""Execution planning: decompose one emulated GEMM into independent tasks.

Ozaki scheme II turns a high-precision GEMM into ``N`` independent INT8
residue GEMMs (line 6 of Algorithm 1); with k-blocking (Section 4.3) and
output tiling each residue further splits into independent
``(k-block, m/n-tile)`` pieces.  An :class:`ExecutionPlan` enumerates that
decomposition for one problem:

* ``k_ranges`` — the inner-dimension blocks actually used (blocks of at
  most ``max_block_k``; :func:`plan_for_config` reads the limit from
  :data:`repro.core.gemm.MAX_K_WITHOUT_BLOCKING`).  The number of blocks
  is derived from these ranges.
* ``m_tiles`` / ``n_tiles`` — output tiles sized so the transient residue
  stack ``(N, m_tile, n_tile)`` respects an optional memory budget.
* ``parallelism`` — the resolved worker count for the scheduler.
* ``executor`` — the call's route, ``"thread"`` or ``"process"``.
  ``executor="auto"`` decides it here, once per call, from the call's INT8
  work ``N·m·k·n`` (:data:`PROCESS_MIN_MACS`).

Plans are pure data: building one performs no numerical work, so tests can
assert on the decomposition cheaply, and the scheduler can execute the same
plan serially or in parallel with bit-identical results.

A note on adaptive moduli selection (``num_moduli="auto"``): the count is
resolved per *plan* (per GEMM, and per item in the batched runtime), never
per k-block.  The k-blocks of one product accumulate exact integer
partials of the **same** residue system, and condition (3) — hence CRT
uniqueness — is a property of the full-``k`` sum, so every block must use
the full selection; a cheaper per-block count would make the reassembled
product ambiguous modulo the smaller ``P``.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Iterator, Optional, Tuple

from ..config import MAX_K_WITHOUT_BLOCKING, Ozaki2Config
from ..core import gemm as _gemm
from ..core.blocking import k_block_ranges

__all__ = [
    "PROCESS_MIN_MACS",
    "ExecutionPlan",
    "build_plan",
    "modulus_chunk_ranges",
    "plan_for_config",
    "resolve_executor",
    "resolve_parallelism",
]

Range = Tuple[int, int]

#: Workspace bytes charged per output element and per modulus: the INT64
#: partial accumulator dominates; the UINT8 residue and FP64 temporaries of
#: the accumulation phase are folded into the same per-modulus figure.
_BYTES_PER_ELEMENT_PER_MODULUS = 8 + 1 + 8

#: Workspace bytes charged per output element independent of ``N`` (the two
#: FP64 accumulators ``C1``/``C2`` and the reconstructed tile).
_BYTES_PER_ELEMENT_FIXED = 3 * 8

#: INT8 multiply-accumulates ``N·m·k·n`` (the ledger's ``mac_ops`` for one
#: call) at and above which ``executor="auto"`` runs a multi-worker call on
#: worker processes; smaller calls run on the thread path.  Below it the
#: process executor's IPC and shared-memory set-up cost more than escaping
#: the GIL saves.  Measured on a 2-CPU host (2 workers, fp64 N=15, OpenBLAS
#: on one thread), processes take 1.96x the serial time at 192^3 (1.1e8
#: MACs) and 1.53x at 384^3 (8.5e8), tie with threads at 512^3 (2.0e9), and
#: beat them from 4e9 up; any value between 8.5e8 and 2.0e9 puts every
#: measured shape on its faster backend.  README "Breaking the GIL" has the
#: sweep.
PROCESS_MIN_MACS = 2**30


def resolve_parallelism(parallelism: "Optional[int] | str") -> int:
    """Resolve a parallelism knob to a concrete worker count (>= 1).

    ``None`` and ``1`` mean serial execution; ``0`` and ``"auto"`` mean one
    worker per available CPU (clamped to the host, never over-subscribing);
    any other positive integer is taken literally.
    """
    if parallelism is None:
        return 1
    if isinstance(parallelism, str):
        if parallelism.strip().lower() == "auto":
            return max(1, os.cpu_count() or 1)
        raise ValueError(f"parallelism must be an integer >= 0 or 'auto', got {parallelism!r}")
    workers = int(parallelism)
    if workers < 0:
        raise ValueError(f"parallelism must be >= 0, got {workers}")
    if workers == 0:
        return max(1, os.cpu_count() or 1)
    return workers


def resolve_executor(executor: str, workers: int, macs: Optional[int] = None) -> str:
    """Resolve an executor knob to a backend name.

    ``"thread"`` and ``"process"`` are taken literally.  ``"auto"`` is the
    thread backend for a single worker (a serial run gains nothing from
    forking) and on platforms without a ``multiprocessing`` start method.
    With more than one worker it chooses per call, by the call's INT8 work
    ``macs`` (``N·m·k·n``): ``"process"`` at or above
    :data:`PROCESS_MIN_MACS`, ``"thread"`` below.  Without ``macs`` — a
    scheduler's policy, before any call is known — it stays ``"auto"``.
    """
    key = str(executor).strip().lower()
    if key not in ("thread", "process", "auto"):
        raise ValueError(
            f"executor must be 'thread', 'process' or 'auto', got {executor!r}"
        )
    if key != "auto":
        return key
    if workers <= 1:
        return "thread"
    try:
        import multiprocessing

        available = bool(multiprocessing.get_all_start_methods())
    except Exception:  # pragma: no cover - restricted platforms only
        available = False
    if not available:
        return "thread"
    if macs is None:
        return "auto"
    return "process" if macs >= PROCESS_MIN_MACS else "thread"


def modulus_chunk_ranges(num_moduli: int, workers: int) -> Tuple[Range, ...]:
    """Split the ``N`` moduli into contiguous chunks for stacked engine calls.

    Each chunk becomes one :meth:`~repro.engines.base.MatrixEngine.
    matmul_stack` task.  A serial run takes the whole stack in a single
    stacked call; a parallel run splits it into ``min(workers, N)``
    near-equal contiguous ranges so every worker gets one stacked call per
    k-block.  Chunk boundaries never affect the result — the residue GEMMs
    are independent exact integer products reassembled in fixed modulus
    order — so any worker count stays bit-identical.
    """
    n = int(num_moduli)
    if n <= 0:
        raise ValueError(f"num_moduli must be positive, got {n}")
    w = max(1, int(workers))
    n_chunks = min(n, w)
    base, extra = divmod(n, n_chunks)
    ranges = []
    start = 0
    for j in range(n_chunks):
        stop = start + base + (1 if j < extra else 0)
        ranges.append((start, stop))
        start = stop
    return tuple(ranges)


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """Decomposition of one ``(m, k, n)`` emulated GEMM into tasks.

    Attributes
    ----------
    m, k, n:
        Problem dimensions.
    num_moduli:
        Number ``N`` of residue GEMMs.
    k_ranges:
        ``(start, stop)`` blocks covering ``range(k)``; one entry unless
        k-blocking was required.
    m_tiles / n_tiles:
        ``(start, stop)`` output tiles; one entry each unless a memory
        budget forced tiling.
    parallelism:
        Resolved worker count (>= 1).  This is a recorded planning input:
        entry points construct their :class:`~repro.runtime.scheduler.
        Scheduler` from it, but a plan executed on an explicitly provided
        scheduler runs with *that* scheduler's worker count.
    executor:
        The call's route, ``"thread"`` or ``"process"``, resolved from its
        executor knob by :func:`resolve_executor` (``"auto"`` by
        :attr:`macs`).  A scheduler built with ``executor="auto"`` follows
        it; one built with an explicit ``"thread"`` or ``"process"`` runs
        every plan on its own backend, and a single-worker one runs
        serially (:meth:`Scheduler.backend
        <repro.runtime.scheduler.Scheduler.backend>`).
    """

    m: int
    k: int
    n: int
    num_moduli: int
    k_ranges: Tuple[Range, ...]
    m_tiles: Tuple[Range, ...]
    n_tiles: Tuple[Range, ...]
    parallelism: int = 1
    executor: str = "thread"

    @property
    def macs(self) -> int:
        """INT8 multiply-accumulates of the call, ``N·m·k·n`` (as ledgered)."""
        return self.num_moduli * self.m * self.k * self.n

    @property
    def num_k_blocks(self) -> int:
        """Number of inner-dimension blocks actually used."""
        return len(self.k_ranges)

    @property
    def num_tiles(self) -> int:
        """Number of independent output tiles."""
        return len(self.m_tiles) * len(self.n_tiles)

    @property
    def tasks_per_tile(self) -> int:
        """Independent residue GEMMs per output tile (``N * k-blocks``).

        This counts the ledger-visible 2-D products.  The executor issues
        them as one stacked engine call per modulus chunk
        (:func:`modulus_chunk_ranges` of its worker count) and k-block,
        which records the identical op ledger.
        """
        return self.num_moduli * self.num_k_blocks

    @property
    def total_tasks(self) -> int:
        """Total residue GEMMs the plan will account for."""
        return self.num_tiles * self.tasks_per_tile

    def tiles(self) -> Iterator[Tuple[Range, Range]]:
        """Iterate output tiles as ``((m_start, m_stop), (n_start, n_stop))``."""
        for m_range in self.m_tiles:
            for n_range in self.n_tiles:
                yield m_range, n_range


def _budget_tiles(
    m: int, n: int, num_moduli: int, budget_bytes: float
) -> Tuple[Tuple[Range, ...], Tuple[Range, ...]]:
    """Split the ``m x n`` output into tiles fitting ``budget_bytes``.

    The workspace for one tile is modelled as
    ``tile_elements * (N * 17 + 24)`` bytes (INT64 partials plus the
    accumulation temporaries).  Tiles are kept as square as possible so the
    per-tile GEMMs stay compute-bound; a budget below one element still
    yields 1x1 tiles rather than failing.
    """
    per_element = num_moduli * _BYTES_PER_ELEMENT_PER_MODULUS + _BYTES_PER_ELEMENT_FIXED
    tile_elements = max(1, int(budget_bytes // per_element))
    if m * n <= tile_elements:
        return ((0, m),), ((0, n),)
    side = max(1, math.isqrt(tile_elements))
    tile_m = min(m, side)
    tile_n = max(1, min(n, tile_elements // tile_m))
    m_tiles = tuple(k_block_ranges(m, tile_m))
    n_tiles = tuple(k_block_ranges(n, tile_n))
    return m_tiles, n_tiles


def build_plan(
    m: int,
    k: int,
    n: int,
    num_moduli: int,
    *,
    max_block_k: int = MAX_K_WITHOUT_BLOCKING,
    memory_budget_mb: Optional[float] = None,
    parallelism: Optional[int] = 1,
    executor: str = "thread",
) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` for one ``(m, k, n)`` problem.

    Parameters
    ----------
    m, k, n:
        Problem dimensions (all positive).
    num_moduli:
        Number of residue GEMMs ``N``.
    max_block_k:
        Largest inner dimension per engine call (``2**17`` per Section 4.3;
        overridable so tests can exercise blocking on small problems).
    memory_budget_mb:
        Optional workspace cap in MiB driving m/n tiling.
    parallelism:
        Worker-count knob, resolved via :func:`resolve_parallelism`.
    executor:
        Executor knob, resolved for this call via :func:`resolve_executor`.
    """
    for name, value in (("m", m), ("k", k), ("n", n)):
        if int(value) <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if int(max_block_k) <= 0:
        raise ValueError(f"max_block_k must be positive, got {max_block_k}")

    k_ranges = tuple(k_block_ranges(k, max_block_k))

    if memory_budget_mb is None:
        m_tiles: Tuple[Range, ...] = ((0, m),)
        n_tiles: Tuple[Range, ...] = ((0, n),)
    else:
        m_tiles, n_tiles = _budget_tiles(m, n, num_moduli, float(memory_budget_mb) * 2**20)

    plan = ExecutionPlan(
        m=int(m),
        k=int(k),
        n=int(n),
        num_moduli=int(num_moduli),
        k_ranges=k_ranges,
        m_tiles=m_tiles,
        n_tiles=n_tiles,
        parallelism=resolve_parallelism(parallelism),
    )
    return dataclasses.replace(
        plan, executor=resolve_executor(executor, plan.parallelism, plan.macs)
    )


def plan_for_config(m: int, k: int, n: int, config: Ozaki2Config) -> ExecutionPlan:
    """Build the plan implied by an :class:`~repro.config.Ozaki2Config`.

    The k-block limit is read from
    :data:`repro.core.gemm.MAX_K_WITHOUT_BLOCKING` at call time, the one
    global every route blocks by.
    """
    return build_plan(
        m,
        k,
        n,
        config.num_moduli,
        max_block_k=_gemm.MAX_K_WITHOUT_BLOCKING,
        memory_budget_mb=config.memory_budget_mb,
        parallelism=config.parallelism,
        executor=config.executor,
    )
