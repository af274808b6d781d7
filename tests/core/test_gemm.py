"""Tests for the public emulated-GEMM entry points (Algorithm 1 end to end)."""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.accuracy import max_relative_error, reference_gemm
from repro.config import ComputeMode, Ozaki2Config
from repro.core.gemm import (
    PHASE_KEYS,
    GemmResult,
    PhaseTimes,
    emulated_dgemm,
    emulated_sgemm,
    ozaki2_gemm,
)
from repro.engines.int8 import Int8MatrixEngine
from repro.errors import ValidationError
from repro.workloads import phi_pair


class TestBasicCorrectness:
    def test_dgemm_matches_numpy_for_moderate_n(self, small_pair):
        a, b = small_pair
        c = emulated_dgemm(a, b, num_moduli=15)
        assert np.allclose(c, a @ b, rtol=1e-10, atol=1e-12)

    def test_sgemm_matches_numpy(self, small_pair_fp32):
        a, b = small_pair_fp32
        c = emulated_sgemm(a, b, num_moduli=8)
        exact = a.astype(np.float64) @ b.astype(np.float64)
        assert c.dtype == np.float32
        assert np.allclose(c, exact, rtol=5e-3, atol=1e-5)

    def test_non_square_shapes(self, rng):
        a = rng.standard_normal((7, 93))
        b = rng.standard_normal((93, 31))
        c = emulated_dgemm(a, b, num_moduli=14)
        assert c.shape == (7, 31)
        assert np.allclose(c, a @ b, rtol=1e-9)

    def test_single_row_and_column(self, rng):
        a = rng.standard_normal((1, 17))
        b = rng.standard_normal((17, 1))
        c = emulated_dgemm(a, b, num_moduli=12)
        assert c.shape == (1, 1)
        assert np.allclose(c, a @ b, rtol=1e-9)

    def test_zero_matrices(self):
        c = emulated_dgemm(np.zeros((4, 5)), np.zeros((5, 3)), num_moduli=8)
        np.testing.assert_array_equal(c, np.zeros((4, 3)))

    def test_identity_product(self):
        eye = np.eye(16)
        c = emulated_dgemm(eye, eye, num_moduli=10)
        np.testing.assert_allclose(c, eye, atol=1e-12)

    def test_negative_and_mixed_magnitudes(self, rng):
        # Entries spanning 16 decades: elements of C that are tiny relative
        # to the row/column scales see amplified relative error (as with any
        # scaled GEMM), so the tolerance is looser than the HPL-like cases.
        a = rng.standard_normal((12, 20)) * 10.0 ** rng.integers(-8, 8, (12, 20))
        b = rng.standard_normal((20, 9)) * 10.0 ** rng.integers(-8, 8, (20, 9))
        c = emulated_dgemm(a, b, num_moduli=16)
        ref = reference_gemm(a, b)
        assert max_relative_error(c, ref) < 1e-6


class TestAccuracyScaling:
    def test_error_decreases_with_more_moduli(self, rng):
        a, b = phi_pair(40, 80, 36, phi=1.0, seed=5)
        ref = reference_gemm(a, b)
        errors = [
            max_relative_error(emulated_dgemm(a, b, num_moduli=n), ref) for n in (6, 10, 14, 18)
        ]
        assert errors[0] > errors[1] > errors[2] >= errors[3]

    def test_dgemm_level_accuracy_with_15_moduli(self, rng):
        a, b = phi_pair(48, 96, 40, phi=0.5, seed=9)
        ref = reference_gemm(a, b)
        native = max_relative_error(a @ b, ref)
        emulated = max_relative_error(emulated_dgemm(a, b, num_moduli=15), ref)
        assert emulated <= 4.0 * native

    def test_sgemm_level_accuracy_with_8_moduli(self):
        a, b = phi_pair(48, 96, 40, phi=0.5, precision="fp32", seed=10)
        ref = reference_gemm(a, b)
        native = max_relative_error(
            np.matmul(a, b, dtype=np.float32).astype(np.float64), ref
        )
        emulated = max_relative_error(emulated_sgemm(a, b, num_moduli=8), ref)
        assert emulated <= 4.0 * native

    def test_accurate_mode_no_worse_than_fast_for_wide_spread(self):
        a, b = phi_pair(40, 64, 36, phi=4.0, seed=13)
        ref = reference_gemm(a, b)
        fast = max_relative_error(emulated_dgemm(a, b, num_moduli=12, mode="fast"), ref)
        accu = max_relative_error(emulated_dgemm(a, b, num_moduli=12, mode="accurate"), ref)
        assert accu <= fast * 1.5


class TestConfigurationPaths:
    def test_fast_fma_kernel_matches_exact_kernel(self, small_pair):
        """Algorithm 1 with the paper's fast FMA ``rmod`` and ``__mulhi``
        ``mod`` returns the production bits."""
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(15)
        fast, _ = oracle.gemm(a, b, config, kernel="fast_fma")
        np.testing.assert_array_equal(ozaki2_gemm(a, b, config=config), fast)

    def test_return_details(self, small_pair):
        a, b = small_pair
        result = ozaki2_gemm(a, b, return_details=True)
        assert isinstance(result, GemmResult)
        assert result.value.shape == (a.shape[0], b.shape[1])
        assert result.mu_exp.shape == (a.shape[0],)
        assert result.nu_exp.shape == (b.shape[1],)
        assert result.num_k_blocks == 1
        assert result.ledger.matmul_calls == result.config.num_moduli
        assert set(result.phase_times.seconds) == set(PHASE_KEYS)
        assert result.method_name.startswith("OS II-")

    def test_accurate_mode_counts_extra_gemm(self, small_pair):
        a, b = small_pair
        result = ozaki2_gemm(
            a, b, config=Ozaki2Config.for_dgemm(10, mode="accurate"), return_details=True
        )
        assert result.ledger.matmul_calls == 11  # N residue GEMMs + 1 for C-bar

    def test_custom_engine_is_used(self, small_pair):
        a, b = small_pair
        engine = Int8MatrixEngine(use_blas=False)
        ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(6), engine=engine)
        assert engine.counter.matmul_calls == 6

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            emulated_dgemm(np.ones((3, 4)), np.ones((5, 6)))

    def test_validation_rejects_nan(self):
        a = np.ones((3, 3))
        a[0, 0] = np.nan
        with pytest.raises(ValidationError):
            emulated_dgemm(a, np.ones((3, 3)))

    def test_mode_strings_accepted(self, small_pair):
        a, b = small_pair
        c1 = emulated_dgemm(a, b, num_moduli=10, mode="accu")
        c2 = emulated_dgemm(a, b, num_moduli=10, mode=ComputeMode.ACCURATE)
        np.testing.assert_array_equal(c1, c2)


class TestPhaseTimes:
    def test_add_and_total(self):
        times = PhaseTimes()
        times.add("matmul", 0.5)
        times.add("matmul", 0.25)
        times.add("scale", 0.25)
        assert times.total == pytest.approx(1.0)
        fractions = times.fractions()
        assert fractions["matmul"] == pytest.approx(0.75)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert all(v == 0.0 for v in PhaseTimes().fractions().values())


class TestNumKBlocksRegression:
    """``num_k_blocks`` must reflect the block ranges actually executed.

    Regression for a bug where it was derived from the global
    ``MAX_K_WITHOUT_BLOCKING`` constant instead of the ranges the runtime
    really used.
    """

    def test_blocking_disabled_reports_single_block(self, small_pair):
        """k within the limit runs unblocked (blocking is not engaged):
        one block, one engine call per modulus."""
        a, b = small_pair
        engine = Int8MatrixEngine()
        config = Ozaki2Config.for_dgemm(8)
        result = ozaki2_gemm(a, b, config=config, engine=engine, return_details=True)
        assert result.num_k_blocks == 1
        # One engine call per modulus and nothing else: the reported block
        # count must agree with the calls the engine actually served.
        assert engine.counter.matmul_calls == config.num_moduli * result.num_k_blocks

    def test_block_count_matches_engine_calls_when_blocking(self, monkeypatch):
        import repro.core.gemm as gemm_mod

        a, b = phi_pair(12, 300, 10, phi=0.5, seed=11)
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 128)
        engine = Int8MatrixEngine()
        config = Ozaki2Config.for_dgemm(9)
        result = ozaki2_gemm(a, b, config=config, engine=engine, return_details=True)
        assert result.num_k_blocks == 3  # ceil(300 / 128)
        assert engine.counter.matmul_calls == config.num_moduli * result.num_k_blocks

    def test_blocked_result_matches_unblocked_bitwise(self, monkeypatch):
        import repro.core.gemm as gemm_mod

        a, b = phi_pair(16, 257, 12, phi=0.5, seed=5)
        expected = ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(10))
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 64)
        blocked = ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(10))
        np.testing.assert_array_equal(blocked, expected)
