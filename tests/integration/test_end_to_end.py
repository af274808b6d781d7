"""Integration tests spanning workloads, emulation, baselines and accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Ozaki2Config, emulated_dgemm, emulated_sgemm
from repro.core.gemm import ozaki2_gemm
from repro.accuracy import max_relative_error, reference_gemm, summarize_errors
from repro.baselines import (
    bf16x9_gemm,
    cumpsgemm_fp16tcec,
    get_method,
    native_sgemm,
    ozimmu_gemm,
    tf32_gemm,
)
from repro.workloads import WorkloadSpec, phi_pair


class TestDgemmEmulationAcrossWorkloads:
    @pytest.mark.parametrize("phi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mode", ["fast", "accurate"])
    def test_reaches_fp64_accuracy_with_enough_moduli(self, phi, mode):
        a, b = phi_pair(64, 128, 56, phi=phi, seed=int(phi * 100))
        ref = reference_gemm(a, b)
        native = max_relative_error(a @ b, ref)
        emulated = max_relative_error(
            emulated_dgemm(a, b, num_moduli=16, mode=mode), ref
        )
        assert emulated <= 5 * native

    def test_rectangular_workload_spec(self):
        spec = WorkloadSpec(m=96, k=48, n=32, phi=1.0, seed=4)
        a, b = spec.generate()
        ref = reference_gemm(a, b)
        err = max_relative_error(emulated_dgemm(a, b, num_moduli=15), ref)
        assert err < 1e-11

    def test_emulation_beats_native_with_many_moduli(self):
        """With 18+ moduli the emulation is *more* accurate than one FP64
        GEMM (its only remaining error is the final rounding)."""
        a, b = phi_pair(48, 200, 40, phi=0.5, seed=77)
        ref = reference_gemm(a, b)
        native = summarize_errors(a @ b, ref).median
        emulated = summarize_errors(emulated_dgemm(a, b, num_moduli=19), ref).median
        assert emulated <= native


class TestSgemmEmulationAcrossMethods:
    def test_full_method_comparison_ordering(self):
        """Reproduces the qualitative accuracy ordering of Figure 3 (bottom):
        TF32 << {SGEMM, BF16x9, cuMpSGEMM, OS II-fast-8} and OS II-fast-4 at
        TF32-like accuracy."""
        a, b = phi_pair(96, 192, 80, phi=0.5, precision="fp32", seed=55)
        ref = reference_gemm(a, b)
        errors = {
            "SGEMM": summarize_errors(native_sgemm(a, b), ref).median,
            "TF32GEMM": summarize_errors(tf32_gemm(a, b), ref).median,
            "BF16x9": summarize_errors(bf16x9_gemm(a, b), ref).median,
            "cuMpSGEMM": summarize_errors(cumpsgemm_fp16tcec(a, b), ref).median,
            "OS II-fast-8": summarize_errors(emulated_sgemm(a, b, num_moduli=8), ref).median,
            "OS II-fast-5": summarize_errors(emulated_sgemm(a, b, num_moduli=5), ref).median,
        }
        assert errors["TF32GEMM"] > 50 * errors["SGEMM"]
        for name in ("BF16x9", "cuMpSGEMM", "OS II-fast-8"):
            assert errors[name] <= 10 * errors["SGEMM"]
        # Few moduli give TF32-like (intermediate) accuracy: worse than
        # SGEMM, not worse than TF32.
        assert errors["SGEMM"] < errors["OS II-fast-5"] <= errors["TF32GEMM"] * 10

    def test_registry_and_direct_call_agree(self):
        a, b = phi_pair(32, 64, 24, phi=0.5, precision="fp32", seed=66)
        direct = emulated_sgemm(a, b, num_moduli=7, mode="accurate")
        via_registry = get_method("OS II-accu-7", target="fp32")(a, b)
        np.testing.assert_array_equal(direct, via_registry)


class TestLargeKBlocking:
    def test_blocked_path_matches_unblocked_results(self, monkeypatch):
        """Force a tiny blocking threshold and check the result is unchanged
        (exercises the k-blocking path without a 2^17-wide matrix)."""
        import repro.core.gemm as gemm_mod

        a, b = phi_pair(24, 600, 20, phi=0.5, seed=88)
        expected = emulated_dgemm(a, b, num_moduli=14)
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 128)
        blocked = emulated_dgemm(a, b, num_moduli=14)
        np.testing.assert_allclose(blocked, expected, rtol=1e-13)
        result = ozaki2_gemm(
            a, b, config=Ozaki2Config.for_dgemm(14), return_details=True
        )
        assert result.num_k_blocks == 5


class TestOzakiFamilyConsistency:
    def test_scheme_one_and_two_agree_at_high_accuracy(self):
        a, b = phi_pair(40, 96, 36, phi=0.5, seed=99)
        c1 = ozimmu_gemm(a, b, 9)
        c2 = emulated_dgemm(a, b, num_moduli=17)
        ref = reference_gemm(a, b)
        assert max_relative_error(c1, ref) < 1e-10
        assert max_relative_error(c2, ref) < 1e-12
        assert np.allclose(c1, c2, rtol=1e-9)
