"""Tests for the INT8 matrix-engine simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.int8 import Int8MatrixEngine
from repro.errors import EngineError, OverflowRiskError


class TestBasicProducts:
    def test_small_product_exact(self):
        engine = Int8MatrixEngine()
        a = np.array([[1, 2], [3, -4]], dtype=np.int8)
        b = np.array([[5, -6], [7, 8]], dtype=np.int8)
        c = engine.matmul(a, b)
        np.testing.assert_array_equal(c, a.astype(np.int64) @ b.astype(np.int64))
        assert c.dtype == np.int32

    def test_blas_and_integer_paths_agree(self):
        rng = np.random.default_rng(0)
        cases = [
            (37, 90, 23, None),
            # One SGEMM chunk whose sums reach exactly 2**24 (the binary32
            # integer edge), then a second chunk of width 1, then four.
            (3, 1024, 2, -128),
            (3, 1025, 2, -128),
            (5, 4096, 3, None),
            (2, 4096, 2, -128),
            # Large same-sign products: a chunk much wider than 1024 would
            # sum past 2**24 and round.
            (8, 4096, 8, "positive"),
            # Three GEMV row blocks at k = 4096, the last one partial.
            (130, 4096, 2, None),
        ]
        for m, k, n, fill in cases:
            if fill in (None, "positive"):
                low = 100 if fill else -128
                a = rng.integers(low, 128, (m, k)).astype(np.int8)
                b = rng.integers(low, 128, (k, n)).astype(np.int8)
            else:
                a = np.full((m, k), fill, dtype=np.int8)
                b = np.full((k, n), fill, dtype=np.int8)
            fast = Int8MatrixEngine(use_blas=True).matmul(a, b)
            ref = Int8MatrixEngine(use_blas=False).matmul(a, b)
            np.testing.assert_array_equal(fast, ref, err_msg=f"k={k}")
            stacked = Int8MatrixEngine().matmul_stack(a[None], b[None], trusted=True)
            np.testing.assert_array_equal(stacked[0], ref, err_msg=f"k={k}")
            matvec = Int8MatrixEngine().matvec_stack(a[None], b[None, :, 0], trusted=True)
            np.testing.assert_array_equal(matvec[0], ref[:, 0], err_msg=f"k={k}")
            if isinstance(fill, int):
                assert np.all(fast == fill * fill * k)

    def test_float_integer_valued_input_accepted(self):
        engine = Int8MatrixEngine()
        a = np.array([[1.0, -2.0]])
        b = np.array([[3.0], [4.0]])
        assert engine.matmul(a, b)[0, 0] == -5

    def test_plus_128_wraps_to_minus_128(self):
        engine = Int8MatrixEngine()
        a = np.array([[128.0]])
        b = np.array([[1.0]])
        assert engine.matmul(a, b)[0, 0] == -128


class TestInputValidation:
    def test_non_integer_float_rejected(self):
        engine = Int8MatrixEngine()
        with pytest.raises(EngineError):
            engine.matmul(np.array([[1.5]]), np.array([[1.0]]))

    def test_out_of_range_rejected(self):
        engine = Int8MatrixEngine()
        with pytest.raises(EngineError):
            engine.matmul(np.array([[300.0]]), np.array([[1.0]]))
        with pytest.raises(EngineError):
            engine.matmul(np.array([[1.0]]), np.array([[-129.0]]))

    def test_shape_mismatch_rejected(self):
        engine = Int8MatrixEngine()
        with pytest.raises(EngineError):
            engine.matmul(np.ones((2, 3), dtype=np.int8), np.ones((4, 2), dtype=np.int8))

    def test_non_2d_rejected(self):
        engine = Int8MatrixEngine()
        with pytest.raises(EngineError):
            engine.matmul(np.ones(3, dtype=np.int8), np.ones((3, 2), dtype=np.int8))


class TestOverflowBehaviour:
    def test_strict_k_refuses_large_inner_dimension(self):
        engine = Int8MatrixEngine(strict_k=True)
        a = np.zeros((1, 2**17 + 1), dtype=np.int8)
        b = np.zeros((2**17 + 1, 1), dtype=np.int8)
        with pytest.raises(OverflowRiskError):
            engine.matmul(a, b)

    def test_wraparound_matches_int32_semantics(self):
        # Construct a product that exceeds 2^31 and check both paths wrap to
        # the same two's-complement value.
        engine_fast = Int8MatrixEngine(use_blas=True, strict_k=False)
        engine_ref = Int8MatrixEngine(use_blas=False, strict_k=False)
        k = 2**17 + 8
        a = np.full((1, k), 127, dtype=np.int8)
        b = np.full((k, 1), 127, dtype=np.int8)
        fast = engine_fast.matmul(a, b)
        ref = engine_ref.matmul(a, b)
        exact = 127 * 127 * k
        wrapped = ((exact + 2**31) % 2**32) - 2**31
        assert fast[0, 0] == wrapped
        assert ref[0, 0] == wrapped

    def test_boundary_2_31_wraps_to_negative(self):
        # Exactly 2^31 (the case discussed in Section 4.3) wraps to -2^31,
        # which is congruent to 0 modulo 256.
        engine = Int8MatrixEngine(use_blas=True, strict_k=False)
        k = 2**17
        a = np.full((1, k), 128, dtype=np.float64)  # wraps to -128 on cast
        b = np.full((k, 1), 128, dtype=np.float64)
        c = engine.matmul(a, b)
        assert c[0, 0] == -(2**31)
        assert int(c[0, 0]) % 256 == 0


class TestMatmulStack:
    def test_matches_per_slice_matmul_both_paths(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-128, 128, (5, 17, 33)).astype(np.int8)
        b = rng.integers(-128, 128, (5, 33, 9)).astype(np.int8)
        for use_blas in (True, False):
            stacked = Int8MatrixEngine(use_blas=use_blas).matmul_stack(a, b)
            loop_engine = Int8MatrixEngine(use_blas=use_blas)
            for i in range(5):
                np.testing.assert_array_equal(stacked[i], loop_engine.matmul(a[i], b[i]))
            assert stacked.dtype == np.int32

    def test_trusted_skips_validation_but_matches(self):
        rng = np.random.default_rng(4)
        a = rng.integers(-128, 128, (4, 8, 12)).astype(np.int8)
        b = rng.integers(-128, 128, (4, 12, 6)).astype(np.int8)
        engine = Int8MatrixEngine()
        np.testing.assert_array_equal(
            engine.matmul_stack(a, b, trusted=True), engine.matmul_stack(a, b)
        )

    def test_trusted_flag_ignored_for_non_int8_dtypes(self):
        """Only stacks already in the engine's input representation may skip
        validation; float inputs are validated even when declared trusted."""
        engine = Int8MatrixEngine()
        bad = np.full((1, 2, 2), 300.0)
        ok = np.ones((1, 2, 2))
        with pytest.raises(EngineError):
            engine.matmul_stack(bad, ok, trusted=True)
        # Integer-valued floats still go through the +128 wrap.
        c = engine.matmul_stack(np.full((1, 1, 1), 128.0), ok[:, :1, :1], trusted=True)
        assert c[0, 0, 0] == -128

    def test_ledger_equals_n_single_calls(self):
        a = np.zeros((3, 8, 16), dtype=np.int8)
        b = np.zeros((3, 16, 4), dtype=np.int8)
        stacked = Int8MatrixEngine()
        stacked.matmul_stack(a, b)
        single = Int8MatrixEngine()
        for i in range(3):
            single.matmul(a[i], b[i])
        assert stacked.counter.as_dict() == single.counter.as_dict()

    def test_shape_validation(self):
        engine = Int8MatrixEngine()
        with pytest.raises(EngineError):
            engine.matmul_stack(np.ones((2, 2), dtype=np.int8), np.ones((2, 2, 2), dtype=np.int8))
        with pytest.raises(EngineError):
            engine.matmul_stack(np.ones((2, 2, 3), dtype=np.int8), np.ones((3, 3, 2), dtype=np.int8))
        with pytest.raises(EngineError):
            engine.matmul_stack(np.ones((2, 2, 3), dtype=np.int8), np.ones((2, 4, 2), dtype=np.int8))
        with pytest.raises(EngineError):
            engine.matmul_stack(
                np.empty((0, 2, 3), dtype=np.int8), np.empty((0, 3, 2), dtype=np.int8)
            )

    def test_strict_k_refused_above_threshold(self):
        engine = Int8MatrixEngine(strict_k=True)
        k = 2**17 + 1
        with pytest.raises(OverflowRiskError):
            engine.matmul_stack(
                np.zeros((1, 1, k), dtype=np.int8), np.zeros((1, k, 1), dtype=np.int8)
            )


class TestWraparoundSkipBoundary:
    """|a|,|b| <= 128 bounds every inner product by k * 2**14, which stays
    strictly below 2**31 for k < 2**17 and reaches +/-2**31 only at
    k = 2**17 (Section 4.3).  The int32 sum of the SGEMM chunks must wrap
    exactly like the hardware accumulator there, in the 2-D, stacked and
    stacked-GEMV paths alike."""

    def test_k_at_boundary_wraps(self):
        k = 2**17
        a = np.full((1, 1, k), -128, dtype=np.int8)
        b = np.full((1, k, 2), -128, dtype=np.int8)
        c = Int8MatrixEngine().matmul_stack(a, b, trusted=True)
        # (-128) * (-128) * 2**17 = +2**31, which wraps to -2**31.
        assert c[0, 0, 0] == -(2**31) and c[0, 0, 1] == -(2**31)
        ref = Int8MatrixEngine(use_blas=False).matmul_stack(a, b, trusted=True)
        np.testing.assert_array_equal(c, ref)
        np.testing.assert_array_equal(Int8MatrixEngine().matmul(a[0], b[0]), ref[0])
        np.testing.assert_array_equal(
            Int8MatrixEngine().matvec_stack(a, b[:, :, 0], trusted=True), ref[:, :, 0]
        )

    def test_k_just_below_boundary_skips_reduction_exactly(self):
        k = 2**17 - 1
        a = np.full((1, 1, k), -128, dtype=np.int8)
        b = np.full((1, k, 2), 127, dtype=np.int8)
        c = Int8MatrixEngine().matmul_stack(a, b, trusted=True)
        # Largest-magnitude reachable product below the boundary: exact, no
        # reduction needed, and it must agree with the integer reference.
        assert c[0, 0, 0] == -128 * 127 * k
        ref = Int8MatrixEngine(use_blas=False).matmul_stack(a, b, trusted=True)
        np.testing.assert_array_equal(c, ref)
        np.testing.assert_array_equal(Int8MatrixEngine().matmul(a[0], b[0]), ref[0])
        np.testing.assert_array_equal(
            Int8MatrixEngine().matvec_stack(a, b[:, :, 0], trusted=True), ref[:, :, 0]
        )

    def test_above_boundary_with_strict_k_off_matches_reference(self):
        k = 2**17 + 64
        for fill_a, fill_b in ((127, 127), (-128, -128)):
            a = np.full((1, 1, k), fill_a, dtype=np.int8)
            b = np.full((1, k, 1), fill_b, dtype=np.int8)
            fast = Int8MatrixEngine(strict_k=False).matmul_stack(a, b, trusted=True)
            ref = Int8MatrixEngine(use_blas=False, strict_k=False).matmul_stack(
                a, b, trusted=True
            )
            np.testing.assert_array_equal(fast, ref)
            wrapped = ((fill_a * fill_b * k + 2**31) % 2**32) - 2**31
            assert fast[0, 0, 0] == wrapped
            np.testing.assert_array_equal(
                Int8MatrixEngine(strict_k=False).matmul(a[0], b[0]), ref[0]
            )
            np.testing.assert_array_equal(
                Int8MatrixEngine(strict_k=False).matvec_stack(a, b[:, :, 0], trusted=True),
                ref[:, :, 0],
            )


class TestGenericStackFallback:
    def test_base_class_fallback_matches_loop_and_ledger(self):
        from repro.engines.native import Fp64MatrixEngine

        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6, 7))
        b = rng.standard_normal((3, 7, 4))
        stacked_engine = Fp64MatrixEngine()
        stacked = stacked_engine.matmul_stack(a, b)
        loop_engine = Fp64MatrixEngine()
        for i in range(3):
            np.testing.assert_array_equal(stacked[i], loop_engine.matmul(a[i], b[i]))
        assert stacked_engine.counter.as_dict() == loop_engine.counter.as_dict()


class TestCounter:
    def test_counter_records_work(self):
        engine = Int8MatrixEngine()
        a = np.zeros((8, 16), dtype=np.int8)
        b = np.zeros((16, 4), dtype=np.int8)
        engine.matmul(a, b)
        engine.matmul(a, b)
        assert engine.counter.matmul_calls == 2
        assert engine.counter.mac_ops == 2 * 8 * 16 * 4
        assert engine.counter.flops == 4 * 8 * 16 * 4
        assert engine.counter.bytes_read == 2 * (8 * 16 + 16 * 4)
        assert engine.counter.bytes_written == 2 * 8 * 4 * 4

    def test_counter_reset(self):
        engine = Int8MatrixEngine()
        engine.matmul(np.zeros((2, 2), dtype=np.int8), np.zeros((2, 2), dtype=np.int8))
        engine.reset_counter()
        assert engine.counter.matmul_calls == 0
        assert engine.counter.mac_ops == 0
