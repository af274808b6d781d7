"""GEMV fast-path benchmark: residue-GEMV kernel vs the n=1 GEMM route.

Measures the per-iteration latency of an emulated ``A @ x`` against a
prepared 4096x4096 system matrix — the exact product every iteration of the
:mod:`repro.apps.solvers` iterative solvers pays — through two routes:

* ``gemv-fast``: :func:`repro.apps.solvers.prepared_matvec`, i.e. the
  dedicated :func:`repro.core.gemv.prepared_gemv` kernel — one stacked
  engine GEMV (exact SGEMVs on cache-sized float32 row blocks, so the
  residue stack streams from memory once), vector-shaped conversion, no
  plan/scheduler machinery;
* ``gemm-n1``: the full ``n = 1`` GEMM route,
  ``ozaki2_gemm(prep, v[:, None])``.

Bitwise equality of the products *and* equality of the op ledgers are
asserted unconditionally — the fast path is an execution strategy, not a
numerical change.  The ``>= 2x`` lower per-iteration latency requirement of
the GEMV work is asserted at the 4096x4096 acceptance scale.

A second table times line 6 of the prepared GEMV
(:func:`repro.harness.gemv_line6_sweep`): the INT8 matvec route against
the exact FP64 product on the operand's kept ``A'``, at N = 10 (the count
the solvers select) at 256², at 1024² (the solvers' benchmark size, where
the product runs in row panels of a C-order ``A'``) and at 4096², where it
stays one DGEMM and must run ``>= 1.5x`` faster than the INT8 route, with
identical bits and ledgers everywhere.  ``REPRO_BENCH_FULL=1`` records the
whole latency table (64²–4096²; fp64 N = 8, 10, 11, 12; fp32 N = 8).  The
panels' gain depends on the BLAS thread count, so the table's title
records ``OPENBLAS_NUM_THREADS``.

The before/after per-iteration latency (and a per-phase breakdown) is
archived in ``benchmarks/results/gemv_fast_path.txt`` (uploaded as a CI
artifact by the smoke job); ``tests/test_benchmark_artifacts.py`` asserts
the committed table stays parseable.  A companion table archives the PCG
preconditioner iteration counts in
``benchmarks/results/preconditioner_iterations.txt``.
"""

from __future__ import annotations

import os

from repro.harness import gemv_line6_sweep, gemv_route_sweep, preconditioner_sweep
from repro.harness.report import format_table

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
CPUS = os.cpu_count() or 1
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "unset")

#: Problem size of the GEMV comparison.  4096x4096 is the acceptance scale
#: (the ~250 MiB residue stack makes the GEMM route's floating-point
#: promotion traffic visible); the full run adds more iterations, not size.
SIZE = 4096
ITERS = 8 if FULL else 4
#: Best of this many timed passes per route, each after an untimed warm
#: pass: the >= 2x gate read 1.99x in one of five best-of-2 runs without
#: warm passes on a 2-CPU host whose median is about 2.5x.
REPEATS = 3

#: Sizes and ``(precision, N)`` cases of the line-6 latency table.
LINE6_SIZES = (64, 256, 1024, SIZE) if FULL else (256, 1024, SIZE)
LINE6_CASES = (
    (("fp64", 8), ("fp64", 10), ("fp64", 11), ("fp64", 12), ("fp32", 8))
    if FULL else (("fp64", 10),)
)


def test_bench_gemv_fast_path_speedup(save_result):
    rows = gemv_route_sweep(SIZE, num_moduli=15, iters=ITERS, repeats=REPEATS)
    table = format_table(
        rows,
        float_format=".3e",
        title=(
            f"gemv fast path: residue-GEMV kernel vs n=1 GEMM route "
            f"(OS II-fast-15, {SIZE}x{SIZE} prepared matrix, {ITERS} matvecs, "
            f"{CPUS} CPUs)"
        ),
    )
    line6 = gemv_line6_sweep(LINE6_SIZES, LINE6_CASES, iters=ITERS, repeats=REPEATS)
    line6_table = format_table(
        line6,
        float_format=".3e",
        title=(
            f"gemv line 6: INT8 matvec route vs exact FP64 product on the kept A' "
            f"(prepared matrices, {ITERS} matvecs, {CPUS} CPUs, "
            f"OPENBLAS_NUM_THREADS={BLAS_THREADS})"
        ),
    )
    save_result("gemv_fast_path", table + "\n\n" + line6_table)

    # The core guarantees hold on every row.
    assert all(row["bit_identical"] for row in rows + line6)
    assert all(row["ledger_equal"] for row in rows + line6)

    # The panel rule at the solvers' size and at the acceptance scale.
    panelled = {row["n"]: row["panel_rows"] for row in line6
                if row["method"] == "OS II-fast-10"}
    assert panelled[1024] > 0 and panelled[SIZE] == 0

    # Line 6 on the kept A' beats the INT8 route at the acceptance scale.
    n10 = next(row for row in line6
               if row["n"] == SIZE and row["method"] == "OS II-fast-10")
    assert n10["fp64_route"] and n10["speedup"] >= 1.5, (
        f"FP64 line 6 reached only {n10['speedup']:.2f}x over the INT8 route "
        f"at {SIZE}x{SIZE}"
    )

    fast = next(row for row in rows if row["route"] == "gemv-fast")
    # The headline requirement of the GEMV work: >= 2x lower per-iteration
    # latency than the plan/scheduler n=1 route at the acceptance scale.
    assert fast["speedup_vs_gemm"] >= 2.0, (
        f"gemv fast path reached only {fast['speedup_vs_gemm']:.2f}x over the "
        f"n=1 GEMM route at {SIZE}x{SIZE}"
    )


def test_bench_preconditioner_iterations(save_result):
    rows = preconditioner_sweep(size=96, kinds=("none", "ilu0", "ssor"), cond=1e3)
    table = format_table(
        rows,
        float_format=".3e",
        title=(
            "pcg preconditioners: iterations to tol=1e-8 on the "
            "ill-conditioned SPD family (n=96, cond=1e3)"
        ),
    )
    save_result("preconditioner_iterations", table)

    by_kind = {row["precond"]: row for row in rows}
    assert all(row["converged"] for row in rows)
    # Factored-once preconditioning must strictly cut the iteration count
    # (and with it the number of emulated matvecs) vs plain CG.
    assert by_kind["ilu0"]["iterations"] < by_kind["none"]["iterations"]
    assert by_kind["ssor"]["iterations"] < by_kind["none"]["iterations"]
