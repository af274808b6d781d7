"""Experiment harness: one entry point per paper figure.

:mod:`repro.harness.figures` exposes ``figure1()`` ... ``figure9()`` plus
``headline_claims()``; each returns a :class:`FigureResult` whose ``rows``
are plain dictionaries (easy to assert on in tests or dump to CSV) and whose
``render()`` produces the ASCII table printed by the benchmark harness.
"""

from __future__ import annotations

from .experiments import (
    accuracy_sweep,
    adaptive_moduli_sweep,
    batched_speedup_sweep,
    breakdown_sweep,
    cpu_wallclock_sweep,
    gemv_line6_sweep,
    gemv_route_sweep,
    power_sweep,
    preconditioner_sweep,
    prepared_reuse_sweep,
    process_scaling_sweep,
    progressive_solver_sweep,
    runtime_scaling_sweep,
    serve_cache_sweep,
    serve_throughput_sweep,
    throughput_sweep,
)
from .figures import (
    FigureResult,
    figure1,
    figure3_dgemm,
    figure3_sgemm,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    headline_claims,
)
from .provenance import parse_provenance, stamp
from .report import format_table, rows_to_csv

__all__ = [
    "accuracy_sweep",
    "adaptive_moduli_sweep",
    "batched_speedup_sweep",
    "breakdown_sweep",
    "cpu_wallclock_sweep",
    "gemv_line6_sweep",
    "gemv_route_sweep",
    "power_sweep",
    "preconditioner_sweep",
    "prepared_reuse_sweep",
    "process_scaling_sweep",
    "serve_throughput_sweep",
    "serve_cache_sweep",
    "progressive_solver_sweep",
    "runtime_scaling_sweep",
    "throughput_sweep",
    "FigureResult",
    "figure1",
    "figure3_dgemm",
    "figure3_sgemm",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "headline_claims",
    "format_table",
    "parse_provenance",
    "rows_to_csv",
    "stamp",
]
