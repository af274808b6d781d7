"""Tests for the stacked-GEMV engine op (generic fallback and INT8 override)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.base import MatrixEngine
from repro.engines.int8 import Int8MatrixEngine
from repro.errors import EngineError, OverflowRiskError


def _random_stacks(rng, n_stack=5, m=7, k=11):
    a = rng.integers(-128, 129, size=(n_stack, m, k)).astype(np.float64)
    v = rng.integers(-128, 129, size=(n_stack, k)).astype(np.float64)
    return a, v


class TestGenericFallback:
    def test_matches_per_slice_matmul(self):
        rng = np.random.default_rng(0)
        a, v = _random_stacks(rng)
        engine = Int8MatrixEngine()
        # Route through the *generic* base implementation explicitly.
        out = MatrixEngine.matvec_stack(engine, a, v)
        ref = np.stack(
            [Int8MatrixEngine().matmul(a[i], v[i][:, None])[:, 0] for i in range(5)]
        )
        np.testing.assert_array_equal(out, ref)

    def test_ledger_matches_n_separate_gemvs(self):
        rng = np.random.default_rng(1)
        a, v = _random_stacks(rng, n_stack=4, m=6, k=9)
        stacked = Int8MatrixEngine()
        MatrixEngine.matvec_stack(stacked, a, v)
        separate = Int8MatrixEngine()
        for i in range(4):
            separate.matmul(a[i], v[i][:, None])
        assert stacked.counter.as_dict() == separate.counter.as_dict()


class TestInt8FusedOverride:
    @pytest.mark.parametrize("use_blas", [True, False])
    def test_matches_generic_fallback(self, use_blas):
        rng = np.random.default_rng(2)
        a, v = _random_stacks(rng, n_stack=8, m=13, k=17)
        fused = Int8MatrixEngine(use_blas=use_blas)
        out = fused.matvec_stack(a, v)
        generic = Int8MatrixEngine(use_blas=use_blas)
        ref = MatrixEngine.matvec_stack(generic, a, v)
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == np.int32
        assert fused.counter.as_dict() == generic.counter.as_dict()

    def test_trusted_int8_skips_validation_same_result(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-128, 128, size=(6, 10, 12), dtype=np.int8)
        v = rng.integers(-128, 128, size=(6, 12), dtype=np.int8)
        engine = Int8MatrixEngine()
        np.testing.assert_array_equal(
            engine.matvec_stack(a, v, trusted=True),
            Int8MatrixEngine().matvec_stack(a, v, trusted=False),
        )

    def test_trusted_flag_ignored_for_non_int8(self):
        # A float stack with out-of-range values must be rejected even when
        # the caller claims it is trusted.
        a = np.full((2, 3, 4), 300.0)
        v = np.ones((2, 4))
        with pytest.raises(EngineError, match="outside"):
            Int8MatrixEngine().matvec_stack(a, v, trusted=True)

    def test_plus_128_wraps_like_the_hardware_cast(self):
        a = np.full((1, 2, 3), 128.0)
        v = np.ones((1, 3))
        out = Int8MatrixEngine().matvec_stack(a, v)
        np.testing.assert_array_equal(out, np.full((1, 2), -384, dtype=np.int32))

    def test_strict_k_rejects_oversized_inner_dim(self):
        a = np.zeros((1, 1, 2**17 + 1), dtype=np.int8)
        v = np.zeros((1, 2**17 + 1), dtype=np.int8)
        with pytest.raises(OverflowRiskError, match="2\\*\\*17"):
            Int8MatrixEngine().matvec_stack(a, v, trusted=True)

    def test_int32_wraparound_matches_matmul_stack_at_boundary(self):
        # k = 2**17 with all-(-128) entries reaches exactly +2**31, the one
        # harmless wraparound case of Section 4.3; the GEMV's int32 chunk
        # sums must wrap bit-identically to the GEMM path's.
        k = 2**17
        a = np.full((1, 1, k), -128, dtype=np.int8)
        v = np.full((1, k), -128, dtype=np.int8)
        engine = Int8MatrixEngine(strict_k=False)
        out = engine.matvec_stack(a, v, trusted=True)
        ref = Int8MatrixEngine(strict_k=False).matmul_stack(
            a, v[:, :, None], trusted=True
        )[:, :, 0]
        np.testing.assert_array_equal(out, ref)
        assert out[0, 0] == np.int32(-(2**31))


class TestShapeValidation:
    @pytest.mark.parametrize(
        "a_shape, v_shape, match",
        [
            ((3, 4), (3, 4), "3-D matrix stack"),
            ((2, 3, 4), (2, 3, 4), "2-D vector stack"),
            ((2, 3, 4), (3, 4), "stack sizes mismatch"),
            ((0, 3, 4), (0, 4), "non-empty stack"),
            ((2, 3, 4), (2, 5), "inner dimensions mismatch"),
        ],
    )
    def test_bad_shapes_raise(self, a_shape, v_shape, match):
        with pytest.raises(EngineError, match=match):
            Int8MatrixEngine().matvec_stack(np.zeros(a_shape), np.zeros(v_shape))
