"""Process-pool scaling benchmark: thread executor vs process executor.

The thread scheduler's residue GEMMs release the GIL inside BLAS, and from
:data:`repro.runtime.scheduler.BAND_MIN_ELEMENTS` elements per row band its
conversion and accumulation run one band per worker thread too, their
NumPy kernels releasing the GIL on long blocks.  The process executor
(``Ozaki2Config.executor``) moves whole modulus chunks and row bands into
worker *processes* that read the operand stacks from shared memory and
write partials into a shared output — no GIL, no pickling of matrices, but
IPC and fresh shared-memory pages per call.  This benchmark sweeps
``executor x workers`` on fast-mode GEMMs — ``"auto"`` included, with the
backend it routed to — on warm schedulers, in alternating rounds, and
archives the medians (``benchmarks/results/process_scaling.txt``, uploaded
by the CI smoke job) with the per-phase breakdown where the banded or
de-serialised convert/accumulate shows.

Bitwise equality and op-ledger equality against the serial baseline are
asserted unconditionally on every row, ``"auto"`` rows too — they are the
runtime's core guarantee, independent of backend.  The default run sweeps
192^3, below the band threshold.  ``REPRO_BENCH_FULL=1`` adds the banded
regime, 512^3 to 2048^3 (minutes); record it with one BLAS thread per
worker (``OPENBLAS_NUM_THREADS=1``, which the title records).  The
``>= 1.5x`` process-over-serial floor from the acceptance criteria is
enforced only in the full run at 1024^3 on hosts with at least 4 real
CPUs; other runs skip it (explicitly — not a silent pass) because no pool
of any kind can beat serial on one core.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import format_table, process_scaling_sweep

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
CPUS = os.cpu_count() or 1
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS", "unset")

#: Fast-mode DGEMM emulation sizes: 192^3 keeps one conversion and
#: accumulation band; the full run adds the banded regime.
SCALING_SIZES = (192, 512, 768, 1024, 1536, 2048) if FULL else (192,)
SCALING_WORKERS = (1, 2, 4)
#: Alternating rounds per size; every row is their median.
ROUNDS = 5
#: Size of the process-over-serial floor on >= 4 CPUs.
FLOOR_SIZE = 1024


def test_bench_process_scaling(save_result):
    rows = process_scaling_sweep(
        SCALING_SIZES, workers=SCALING_WORKERS, num_moduli=15, repeats=ROUNDS
    )
    for row in rows:
        row["host_cpus"] = CPUS
    table = format_table(
        rows,
        float_format=".3e",
        title=(
            f"process scaling: thread vs process vs auto executor "
            f"({', '.join(f'{n}^3' for n in SCALING_SIZES)}; medians of {ROUNDS} "
            f"alternating rounds on warm schedulers; {CPUS} CPUs, "
            f"OPENBLAS_NUM_THREADS={BLAS_THREADS})"
        ),
    )
    save_result("process_scaling", table)

    assert all(row["bit_identical"] for row in rows)
    assert all(row["ledger_equal"] for row in rows)
    process_rows = [row for row in rows if row["executor"] == "process"]
    assert process_rows, "sweep produced no process-executor rows"

    if CPUS < 4:
        pytest.skip(
            f"process-speedup floor needs >= 4 CPUs (host has {CPUS}); "
            "bit-identity and ledger equality were still asserted"
        )
    if FULL:
        best = max(
            row["speedup_vs_serial"] for row in process_rows if row["n"] == FLOOR_SIZE
        )
        assert best >= 1.5, (
            f"process executor reached only {best:.2f}x over serial at "
            f"{FLOOR_SIZE}^3 with workers={SCALING_WORKERS} on {CPUS} CPUs"
        )
