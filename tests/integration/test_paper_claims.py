"""Regression tests for the paper's textual claims (Sections 5.1-5.4).

Each test names the claim it checks.  Accuracy claims are verified by
actually running the methods (at reduced sizes); performance and power
claims are verified against the analytic GPU model (see DESIGN.md for the
hardware substitution).
"""

from __future__ import annotations

from repro import emulated_dgemm, emulated_sgemm
from repro.accuracy import reference_gemm, summarize_errors
from repro.baselines import native_sgemm, tf32_gemm
from repro.perfmodel import get_gpu, modeled_tflops, phase_breakdown, power_efficiency
from repro.workloads import phi_pair


class TestSection51Accuracy:
    def test_hpl_phi_can_use_14_or_15_moduli(self):
        """'These results imply that HPL can employ emulation with 14 or 15
        moduli' (phi = 0.5)."""
        a, b = phi_pair(96, 256, 96, phi=0.5, seed=1)
        ref = reference_gemm(a, b)
        native = summarize_errors(a @ b, ref)
        emulated_15 = summarize_errors(emulated_dgemm(a, b, num_moduli=15), ref)
        assert emulated_15.median <= 3 * native.median
        assert emulated_15.max <= 10 * native.max

    def test_fast_mode_limiting_accuracy_degrades_with_phi(self):
        """'For larger phi, the limiting accuracy of OS II-fast-N got worse
        as phi increased.'"""
        errors = []
        for phi in (0.5, 2.0, 4.0):
            a, b = phi_pair(64, 128, 56, phi=phi, seed=int(10 * phi))
            ref = reference_gemm(a, b)
            errors.append(summarize_errors(emulated_dgemm(a, b, num_moduli=12), ref).median)
        assert errors[0] < errors[1] < errors[2]

    def test_accurate_mode_tolerates_large_phi_better(self):
        """'OS II-accu-N exhibits smaller truncation errors compared to those
        of OS II-fast-N' for large phi."""
        a, b = phi_pair(64, 128, 56, phi=4.0, seed=17)
        ref = reference_gemm(a, b)
        fast = summarize_errors(emulated_dgemm(a, b, num_moduli=13, mode="fast"), ref).median
        accu = summarize_errors(emulated_dgemm(a, b, num_moduli=13, mode="accurate"), ref).median
        assert accu <= fast

    def test_ozaki2_intermediate_between_tf32_and_fp32(self):
        """'Ozaki scheme II achieved accuracy between those of SGEMM and
        TF32GEMM ... an intermediate-precision approach.'"""
        a, b = phi_pair(96, 192, 80, phi=0.5, precision="fp32", seed=2)
        ref = reference_gemm(a, b)
        sgemm = summarize_errors(native_sgemm(a, b), ref).median
        tf32 = summarize_errors(tf32_gemm(a, b), ref).median
        os2_5 = summarize_errors(emulated_sgemm(a, b, num_moduli=5), ref).median
        assert sgemm < os2_5 < tf32 * 100
        assert os2_5 < tf32 * 10 or os2_5 < sgemm * 1000

    def test_sgemm_level_with_7_or_8_moduli(self):
        """'OS II-fast-N with N in {7, 8} returned results with SGEMM-level
        accuracy' for phi <= 1."""
        for phi in (0.5, 1.0):
            a, b = phi_pair(80, 160, 72, phi=phi, precision="fp32", seed=int(phi * 3))
            ref = reference_gemm(a, b)
            native = summarize_errors(native_sgemm(a, b), ref).median
            emu8 = summarize_errors(emulated_sgemm(a, b, num_moduli=8), ref).median
            assert emu8 <= 5 * native


class TestSection52Throughput:
    def test_dgemm_emulation_faster_than_native_at_16384_on_gh200(self):
        """'For n >= 8192, OS II-fast-N and OS II-accu-N outperformed DGEMM'
        and 'approximately 1.4x faster than DGEMM' at n = 16384."""
        native = modeled_tflops("DGEMM", "GH200", 16384, 16384, 16384)
        for method in ("OS II-fast-14", "OS II-accu-14", "OS II-fast-15"):
            assert modeled_tflops(method, "GH200", 16384, 16384, 16384) > native
        ratio = modeled_tflops("OS II-fast-14", "GH200", 16384, 16384, 16384) / native
        assert 1.2 <= ratio <= 1.8

    def test_dgemm_emulation_huge_speedup_on_rtx5080(self):
        """'OS II-fast-14 ... achieved 18.5x speedup compared to DGEMM' on
        RTX 5080 (weak FP64)."""
        native = modeled_tflops("DGEMM", "RTX5080", 8192, 8192, 8192)
        emulated = modeled_tflops("OS II-fast-14", "RTX5080", 8192, 8192, 8192)
        assert emulated / native > 10

    def test_emulation_slower_than_dgemm_for_small_n_on_gh200(self):
        """Figure 4: the crossover — emulation loses at n = 1024."""
        assert modeled_tflops("OS II-fast-15", "GH200", 1024, 1024, 1024) < modeled_tflops(
            "DGEMM", "GH200", 1024, 1024, 1024
        )

    def test_ozaki2_more_than_2x_faster_than_ozimmu(self):
        """Abstract: 'more than 2x higher performance ... compared to
        conventional emulation methods.'"""
        for gpu in ("A100", "GH200", "RTX5080"):
            os2 = modeled_tflops("OS II-fast-15", gpu, 16384, 16384, 16384)
            ozimmu = modeled_tflops("ozIMMU_EF-9", gpu, 16384, 16384, 16384)
            assert os2 > 2 * ozimmu

    def test_sgemm_emulation_speedup_on_gh200(self):
        """'Ozaki scheme II achieved a 2.3-3.0x speedup compared to SGEMM'
        at n = 16384 on GH200."""
        sgemm = modeled_tflops("SGEMM", "GH200", 16384, 16384, 16384, target="fp32")
        for n_mod in (7, 8, 9):
            ratio = (
                modeled_tflops(f"OS II-fast-{n_mod}", "GH200", 16384, 16384, 16384, target="fp32")
                / sgemm
            )
            assert 1.8 <= ratio <= 3.5

    def test_sgemm_emulation_between_sgemm_and_tf32(self):
        """'Ozaki scheme II demonstrated performance between those of SGEMM
        and TF32GEMM.'"""
        n = 16384
        sgemm = modeled_tflops("SGEMM", "GH200", n, n, n, target="fp32")
        tf32 = modeled_tflops("TF32GEMM", "GH200", n, n, n, target="fp32")
        os2 = modeled_tflops("OS II-fast-8", "GH200", n, n, n, target="fp32")
        assert sgemm < os2 < tf32


class TestSection53Breakdown:
    def test_rtx5080_non_matmul_share_large_for_dgemm_emulation(self):
        """'For DGEMM emulation on RTX 5080 ... non-matrix multiplication
        components accounted for around 50% of the entire computation time'
        at n = 8192."""
        fractions = phase_breakdown("OS II-fast-15", "RTX5080", 8192, 8192, 8192)
        non_matmul = 1.0 - fractions["matmul"]
        assert 0.3 <= non_matmul <= 0.7

    def test_gh200_matmul_dominates_at_large_n(self):
        """'On A100 and GH200, for sufficiently large n, matrix
        multiplication is the major computation.'"""
        fractions = phase_breakdown("OS II-fast-15", "GH200", 16384, 16384, 16384)
        assert fractions["matmul"] > 0.5

    def test_conversion_share_shrinks_with_n(self):
        """'As n increases, computations except for matrix multiplication
        gradually become negligible.'"""
        share = lambda n: 1.0 - phase_breakdown("OS II-fast-15", "GH200", n, n, n)["matmul"]
        assert share(1024) > share(4096) > share(16384)

    def test_accurate_mode_conversion_costs_more(self):
        """'The conversion of input matrices in accurate mode includes matrix
        multiplication and accounts more computation time.'"""
        fast = phase_breakdown("OS II-fast-8", "GH200", 4096, 4096, 4096, target="fp32")
        accu = phase_breakdown("OS II-accu-8", "GH200", 4096, 4096, 4096, target="fp32")
        assert accu["scale"] > fast["scale"]


class TestSection54Power:
    def test_dgemm_emulation_power_gain_on_gh200(self):
        """'OS II-fast-N ... achieved 20%-43% improvements ... compared to
        DGEMM for N in {14..17} and n = 16384' (band relaxed for the model)."""
        native = power_efficiency("DGEMM", "GH200", 16384, 16384, 16384)
        for n_mod in (14, 15, 16, 17):
            gain = (
                power_efficiency(f"OS II-fast-{n_mod}", "GH200", 16384, 16384, 16384) / native - 1.0
            )
            assert 0.1 <= gain <= 1.0

    def test_sgemm_emulation_power_gain_on_gh200(self):
        """'OS II-fast-N with N in {7, 8, 9} achieved 103%-154% improvements
        ... compared to SGEMM for n = 16384' (band relaxed for the model)."""
        native = power_efficiency("SGEMM", "GH200", 16384, 16384, 16384, target="fp32")
        for n_mod in (7, 8, 9):
            gain = (
                power_efficiency(
                    f"OS II-fast-{n_mod}", "GH200", 16384, 16384, 16384, target="fp32"
                )
                / native
                - 1.0
            )
            assert 0.5 <= gain <= 3.0

    def test_power_efficiency_gap_narrower_than_throughput_gap_at_small_n(self):
        """Section 5.4: 'for smaller problem sizes, the results of Ozaki
        scheme II reached those of existing emulation, DGEMM, and SGEMM'
        because INT8 GEMM is power-efficient even when slow."""
        n = 1024
        thr_ratio = modeled_tflops("OS II-fast-15", "GH200", n, n, n) / modeled_tflops(
            "DGEMM", "GH200", n, n, n
        )
        pow_ratio = power_efficiency("OS II-fast-15", "GH200", n, n, n) / power_efficiency(
            "DGEMM", "GH200", n, n, n
        )
        assert pow_ratio > thr_ratio

    def test_int8_power_advantage_exceeds_throughput_advantage_rtx5080(self):
        """'The performance ratio between INT8 GEMM and SGEMM at n = 1024 was
        5.3x, while the power efficiency ratio was as high as 13.3x' —
        qualitatively: the efficiency ratio exceeds the performance ratio."""
        gpu = get_gpu("RTX5080")
        n = 1024
        perf_ratio = modeled_tflops("OS II-fast-2", gpu, n, n, n, target="fp32") / modeled_tflops(
            "SGEMM", gpu, n, n, n, target="fp32"
        )
        power_ratio = power_efficiency(
            "OS II-fast-2", gpu, n, n, n, target="fp32"
        ) / power_efficiency("SGEMM", gpu, n, n, n, target="fp32")
        assert power_ratio > perf_ratio
