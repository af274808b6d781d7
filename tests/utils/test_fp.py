"""Tests for exponent helpers and directed-rounding reductions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.fp import (
    exponent_floor,
    ldexp_lines,
    ldexp_unscale,
    max_exponents,
    next_power_of_two_exponent,
    round_up_sum_of_squares,
    ufp,
    upper_bound_inflation,
)


class TestLdexpLines:
    def test_exact_for_wide_exponent_range(self):
        exps = np.array([-1000, -60, -1, 0, 1, 53, 500, 1023], dtype=np.intc)
        values = ldexp_lines(np.ones((exps.size, 2)), exps, axis=1)
        for e, row in zip(exps, values, strict=True):
            assert np.all(row == 2.0 ** int(e))

    def test_columns(self):
        x = np.array([[1.0, 3.0], [-2.0, 0.5]])
        out = ldexp_lines(x, np.array([2, -1], dtype=np.intc), axis=0)
        np.testing.assert_array_equal(out, np.array([[4.0, 1.5], [-8.0, 0.25]]))

    def test_scale_beyond_float_range_is_exact(self):
        # 2**1100 is not a float64, but 1e-300 * 2**1100 is.
        x = np.array([[1e-300], [5e-324]])
        out = ldexp_lines(x, np.array([1100, 1100], dtype=np.intc), axis=1)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(ldexp_lines(out, np.array([-1100, -1100]), axis=1), x)

    def test_float_scales_are_rejected(self):
        with pytest.raises(TypeError):
            ldexp_lines(np.ones((2, 2)), np.array([2.0, 4.0]), axis=1)


class TestLdexpUnscale:
    def test_combined_exponent_in_one_call(self):
        c = np.array([[3.0, 5.0], [7.0, 9.0]])
        out = ldexp_unscale(c, np.array([1, 2], dtype=np.intc), np.array([0, -3], dtype=np.intc))
        np.testing.assert_array_equal(out, np.array([[1.5, 20.0], [1.75, 18.0]]))

    def test_no_intermediate_overflow(self):
        # A row scale of 2**-1100 and a column scale of 2**1100 cancel.
        out = ldexp_unscale(
            np.array([[3.0]]), np.array([-1100], dtype=np.intc), np.array([1100], dtype=np.intc)
        )
        assert out[0, 0] == 3.0

    def test_out_of_range_product_is_inf(self):
        # As a native GEMM's overflow: ±inf, and NumPy's overflow warning.
        with pytest.warns(RuntimeWarning, match="overflow"):
            out = ldexp_unscale(
                np.array([[1.0, -1.0]]), np.array([-2000], dtype=np.intc),
                np.zeros(2, dtype=np.intc),
            )
        np.testing.assert_array_equal(out, np.array([[np.inf, -np.inf]]))


class TestMaxExponents:
    def test_values_and_zero_lines(self):
        got = max_exponents(np.array([1.0, 3.0, 0.0, 2.0**-1060, 1e300]))
        assert got.dtype == np.intc
        np.testing.assert_array_equal(got, np.array([0, 1, 0, -1060, 996]))


class TestExponentFloor:
    @pytest.mark.parametrize(
        "x, expected",
        [(1.0, 0), (1.5, 0), (2.0, 1), (3.99, 1), (0.5, -1), (0.49, -2), (-8.0, 3), (2.0**-1060, -1060)],
    )
    def test_values(self, x, expected):
        assert exponent_floor(np.array([x]))[0] == expected

    def test_matches_log2_floor_on_random(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) * 10.0 ** rng.integers(-250, 250, 1000)
        x = x[x != 0]
        got = exponent_floor(x)
        want = np.floor(np.log2(np.abs(x)))
        # log2-based computation can be off by one exactly at powers of two;
        # exclude those and require equality elsewhere.
        is_pow2 = np.abs(x) == ufp(x)
        np.testing.assert_array_equal(got[~is_pow2], want[~is_pow2].astype(np.int64))

    def test_zero_sentinel(self):
        assert exponent_floor(np.array([0.0]))[0] == -1075


class TestUfp:
    def test_values(self):
        np.testing.assert_array_equal(
            ufp(np.array([1.0, 1.9, 2.0, -5.0, 0.3])), np.array([1.0, 1.0, 2.0, 4.0, 0.25])
        )

    def test_zero(self):
        assert ufp(np.array([0.0]))[0] == 0.0


class TestNextPowerOfTwoExponent:
    def test_values(self):
        x = np.array([1.0, 1.0001, 2.0, 3.0, 0.25, 0.3])
        np.testing.assert_array_equal(
            next_power_of_two_exponent(x), np.array([0, 1, 1, 2, -2, -1])
        )


class TestRoundUpSumOfSquares:
    def test_is_upper_bound(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 400)) * np.exp(rng.standard_normal((50, 400)))
        bound = round_up_sum_of_squares(x, axis=1)
        # Compare against a higher-precision sum (math.fsum row by row).
        import math

        for i in range(50):
            exact = math.fsum(float(v) ** 2 for v in x[i])
            assert bound[i] >= exact

    def test_axis_0(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        bound = round_up_sum_of_squares(x, axis=0)
        assert bound.shape == (4,)
        assert np.all(bound >= np.sum(x * x, axis=0))

    def test_inflation_factor_monotone(self):
        assert upper_bound_inflation(10) <= upper_bound_inflation(1000)
        assert upper_bound_inflation(0) >= 1.0

    def test_inflation_negative_n_rejected(self):
        with pytest.raises(ValidationError):
            upper_bound_inflation(-1)
