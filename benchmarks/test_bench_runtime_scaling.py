"""Runtime-scaling benchmarks: serial vs parallel, batched vs loop.

Measures the execution runtime of :mod:`repro.runtime` on this machine:

* parallel residue execution (``Ozaki2Config.parallelism``) against the
  strictly serial path, and
* :func:`repro.ozaki2_gemm_batched` against a Python loop of serial calls.

Bitwise equality between all paths is asserted unconditionally — it is the
runtime's core guarantee.  The ``>= 1.5x`` speedup requirement is enforced
only in the full-scale run (``REPRO_BENCH_FULL=1``, 4096^3 DGEMM emulation,
several minutes) on hosts with at least 4 CPUs: at quick-run sizes the
serial scale/convert phases cap the achievable speedup (Amdahl), and on a
single-core container a thread pool cannot beat serial execution at all.
The default quick run keeps tier-1 fast and only guards against
pathological pool overhead.

Results land in ``benchmarks/results/runtime_scaling.txt`` (uploaded as a
CI artifact by the smoke job).
"""

from __future__ import annotations

import os

import pytest

from repro import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.harness import batched_speedup_sweep, runtime_scaling_sweep
from repro.harness.report import format_table
from repro.workloads import phi_pair

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
CPUS = os.cpu_count() or 1

#: Problem size of the serial-vs-parallel scaling run.  The full setting is
#: the acceptance-scale 4096^3 DGEMM emulation; the quick one is large
#: enough (~0.1 s serial) that the pool's fixed dispatch cost does not
#: dominate the ratio.
SCALING_SIZE = 4096 if FULL else 512
SCALING_WORKERS = (1, 2, 4) if (FULL or CPUS >= 4) else (1, 2)

#: Batched-vs-loop setting: 8 same-shape problems so the batched path can
#: share one residue-conversion pass.
BATCH_SIZE = 512 if FULL else 128
BATCH_ITEMS = 8


def test_bench_runtime_parallel_scaling(save_result):
    rows = runtime_scaling_sweep(
        [SCALING_SIZE],
        workers=SCALING_WORKERS,
        num_moduli=15,
        repeats=3 if not FULL else 1,
    )
    # Record the host so archived tables are interpretable: a speedup of
    # 0.9x means something entirely different on 1 vCPU than on 8 cores.
    for row in rows:
        row["host_cpus"] = CPUS
    table = format_table(
        rows,
        float_format=".3e",
        title=f"runtime scaling: serial vs parallel ({CPUS} CPUs)",
    )
    save_result("runtime_scaling", table)

    assert all(row["bit_identical"] for row in rows)
    parallel_speedups = [
        row["speedup_vs_serial"] for row in rows if row["workers"] > 1
    ]
    assert parallel_speedups, "sweep produced no parallel rows"
    best_speedup = max(parallel_speedups)
    if CPUS < 2:
        # A skip, not a silent pass: on a single-CPU host no pool can beat
        # serial, so asserting any speedup floor would either flake or
        # vacuously succeed.  Bit-identity (above) is still enforced.
        pytest.skip(
            f"speedup assertion needs >= 2 CPUs (host has {CPUS}); "
            "bit-identity was still asserted"
        )
    # The paper-motivated >=1.5x scaling claim only holds where the matmul
    # phase dominates (large problems) and real cores back the workers, so
    # it is enforced only in the explicit REPRO_BENCH_FULL run: at small
    # quick-run sizes the serial phases cap Amdahl speedup well below it,
    # and shared CI vCPUs make any hard floor a flake gate.
    if FULL and CPUS >= 4:
        assert best_speedup >= 1.5, (
            f"parallel residue execution reached only {best_speedup:.2f}x "
            f"over serial with workers={SCALING_WORKERS} on {CPUS} CPUs"
        )
    else:
        # Guard only against pathological pool overhead in the parallel rows.
        assert min(parallel_speedups) > 0.5


def test_bench_runtime_batched_vs_loop(save_result):
    rows = batched_speedup_sweep(
        BATCH_SIZE,
        BATCH_ITEMS,
        num_moduli=15,
        parallelism=min(4, CPUS),
    )
    table = format_table(
        rows,
        float_format=".3e",
        title=f"runtime scaling: batched vs loop ({BATCH_ITEMS} x {BATCH_SIZE}^3)",
    )
    save_result("runtime_batched_vs_loop", table)

    assert all(row["bit_identical"] for row in rows)
    batched_row = next(row for row in rows if row["strategy"] == "batched")
    # Batching amortises conversion and pool start-up; it must never cost
    # more than a modest constant factor over the loop, on any host.
    assert batched_row["speedup_vs_loop"] > 0.66


def test_bench_parallel_gemm_wallclock(benchmark):
    """pytest-benchmark hook so runtime regressions show up in the table."""
    a, b = phi_pair(192, 192, 192, phi=0.5, seed=3)
    config = Ozaki2Config(num_moduli=15, parallelism=min(4, CPUS))
    c = benchmark(ozaki2_gemm, a, b, config)
    serial = ozaki2_gemm(a, b, config=config.replace(parallelism=1))
    assert (c == serial).all()
