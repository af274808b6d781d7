"""CPU wall-clock benchmarks of this library's implementations.

Not a figure from the paper (the paper measures GPU kernels); these time the
actual NumPy implementations on this machine with pytest-benchmark so that
performance regressions in the library itself are visible.  The per-phase
wall-clock breakdown of the emulation is also recorded, mirroring the
structure of Figures 6-7 for the CPU substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Ozaki2Config, emulated_dgemm, emulated_sgemm
from repro.core.gemm import ozaki2_gemm
from repro.baselines import bf16x9_gemm, cumpsgemm_fp16tcec, native_dgemm, ozimmu_gemm
from repro.harness.report import format_table
from repro.workloads import phi_pair

N = 256


@pytest.fixture(scope="module")
def pair64():
    return phi_pair(N, N, N, phi=0.5, seed=0)


@pytest.fixture(scope="module")
def pair32():
    return phi_pair(N, N, N, phi=0.5, precision="fp32", seed=0)


def test_bench_native_dgemm(benchmark, pair64):
    a, b = pair64
    benchmark(native_dgemm, a, b)


def test_bench_osii_fast_15_dgemm(benchmark, pair64):
    a, b = pair64
    c = benchmark(emulated_dgemm, a, b, 15)
    assert np.allclose(c, a @ b, rtol=1e-9)


def test_bench_osii_accu_15_dgemm(benchmark, pair64):
    a, b = pair64
    benchmark(emulated_dgemm, a, b, 15, "accurate")


def test_bench_ozimmu_9_dgemm(benchmark, pair64):
    a, b = pair64
    benchmark(ozimmu_gemm, a, b, 9)


def test_bench_osii_fast_8_sgemm(benchmark, pair32):
    a, b = pair32
    benchmark(emulated_sgemm, a, b, 8)


def test_bench_bf16x9_sgemm(benchmark, pair32):
    a, b = pair32
    benchmark(bf16x9_gemm, a, b)


def test_bench_cumpsgemm_sgemm(benchmark, pair32):
    a, b = pair32
    benchmark(cumpsgemm_fp16tcec, a, b)


def test_bench_cpu_phase_breakdown(benchmark, pair64, save_result):
    """Record the measured per-phase wall-clock split of one emulated DGEMM."""
    a, b = pair64

    def run():
        return ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(15), return_details=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"phase": phase, "seconds": seconds, "fraction": frac}
        for (phase, seconds), frac in zip(
            result.phase_times.seconds.items(), result.phase_times.fractions().values()
        )
    ]
    save_result(
        "cpu_wallclock_phase_breakdown",
        format_table(rows, float_format=".4g", title=f"CPU phase breakdown, OS II-fast-15, n={N}"),
    )
    assert result.phase_times.total > 0
