"""Execution runtime: planning, worker-pool scheduling and batched GEMM.

Ozaki scheme II is embarrassingly parallel — one emulated GEMM is ``N``
independent INT8 residue GEMMs, times the number of k-blocks, times the
number of output tiles.  This package exploits that structure:

* :mod:`repro.runtime.plan` — :class:`ExecutionPlan` records a problem's
  k-blocks, output tiles (sized against a memory budget) and route.
* :mod:`repro.runtime.scheduler` — :func:`execute_plan` and
  :meth:`Scheduler.convert_residues` build one task list per call from
  three handlers (``matmul``, ``accumulate``, ``convert``), which every
  backend runs: serial and thread runs on plain arrays (a thread pool with
  per-worker engine clones and merged op ledgers), process runs on
  shared-memory arrays in a persistent worker-process pool — with
  bit-identical results on every backend.
* :mod:`repro.runtime.process` — the process backend: worker pool plus
  the descriptor protocol (:mod:`repro.runtime.shm`); residue stacks
  cross the process boundary zero-copy in both directions.
* :mod:`repro.runtime.tilesource` — :class:`TileSource` stages residue
  stacks too large for RAM on disk and streams them through the same
  tiled plans (out-of-core GEMM).
* :mod:`repro.runtime.batched` — :func:`ozaki2_gemm_batched` runs a whole
  batch as a loop of :func:`~repro.core.gemm.ozaki2_gemm` calls on one
  shared scheduler, preparing each recurring array once.
"""

from __future__ import annotations

from .batched import ozaki2_gemm_batched
from .plan import (
    ExecutionPlan,
    build_plan,
    plan_for_config,
    resolve_executor,
    resolve_parallelism,
)
from .scheduler import Scheduler, execute_plan
from .shm import SharedArray, live_segment_names
from .tilesource import TileSource

__all__ = [
    "ExecutionPlan",
    "build_plan",
    "plan_for_config",
    "resolve_executor",
    "resolve_parallelism",
    "Scheduler",
    "SharedArray",
    "TileSource",
    "execute_plan",
    "live_segment_names",
    "ozaki2_gemm_batched",
]
