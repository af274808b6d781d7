"""Tests for the scale-vector determination (Section 4.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conversion import truncate_scaled
from repro.core.scaling import (
    accurate_mode_prescale,
    accurate_mode_scales,
    check_condition3,
    fast_mode_scales,
    scale_exponent_budget,
)
from repro.crt.constants import build_constant_table
from repro.errors import ValidationError
from repro.workloads import phi_pair


def _is_exponent_vector(e: np.ndarray) -> bool:
    """A scale is carried as the integer exponent of its power of two."""
    return e.dtype == np.intc


class TestBudget:
    def test_budget_is_half_the_fast_constant(self):
        table = build_constant_table(15, 64)
        assert scale_exponent_budget(table, "fast") == pytest.approx(0.5 * table.P_fast)

    def test_budget_grows_with_moduli(self):
        small = build_constant_table(4, 64)
        large = build_constant_table(18, 64)
        assert scale_exponent_budget(large, "fast") > scale_exponent_budget(small, "fast")

    def test_unknown_mode_rejected(self):
        table = build_constant_table(4, 64)
        with pytest.raises(ValidationError):
            scale_exponent_budget(table, "turbo")


class TestFastMode:
    @pytest.mark.parametrize("phi", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("num_moduli", [6, 10, 15])
    def test_scales_are_powers_of_two_and_satisfy_condition3(self, phi, num_moduli):
        a, b = phi_pair(24, 60, 20, phi=phi, seed=int(phi * 10) + num_moduli)
        table = build_constant_table(num_moduli, 64)
        mu_exp, nu_exp = fast_mode_scales(a, b, table)
        assert mu_exp.shape == (24,)
        assert nu_exp.shape == (20,)
        assert _is_exponent_vector(mu_exp) and _is_exponent_vector(nu_exp)
        a_prime = truncate_scaled(a, mu_exp, "left")
        b_prime = truncate_scaled(b, nu_exp, "right")
        assert check_condition3(a_prime, b_prime, table)

    def test_zero_rows_get_unit_scale(self):
        a = np.zeros((4, 8))
        a[0] = 1.0
        b = np.ones((8, 3))
        table = build_constant_table(8, 64)
        mu_exp, _ = fast_mode_scales(a, b, table)
        assert np.all(mu_exp[1:] == 0)  # exponent 0: scale 1

    def test_huge_and_tiny_rows_both_bounded(self):
        table = build_constant_table(12, 64)
        a = np.vstack([np.full(32, 1e150), np.full(32, 1e-150), np.ones(32)])
        b = np.hstack([np.full((32, 1), 1e120), np.full((32, 1), 1e-130)])
        mu_exp, nu_exp = fast_mode_scales(a, b, table)
        a_prime = truncate_scaled(a, mu_exp, "left")
        b_prime = truncate_scaled(b, nu_exp, "right")
        assert check_condition3(a_prime, b_prime, table)

    def test_subnormal_and_huge_rows_satisfy_condition3(self):
        # Scales of ~2**1100 and ~2**-990: out of float64 range as factors,
        # plain integers as exponents.
        table = build_constant_table(15, 64)
        a = np.vstack([np.full(16, 3e-310), np.full(16, 1e300), np.ones(16)])
        b = np.hstack([np.full((16, 1), 1e-320), np.full((16, 1), 1e250)])
        mu_exp, nu_exp = fast_mode_scales(a, b, table)
        a_prime = truncate_scaled(a, mu_exp, "left")
        b_prime = truncate_scaled(b, nu_exp, "right")
        assert np.all(a_prime != 0) and np.all(b_prime != 0)
        assert check_condition3(a_prime, b_prime, table)

    def test_larger_n_gives_larger_scales(self):
        a, b = phi_pair(16, 48, 16, phi=0.5, seed=0)
        mu_small, _ = fast_mode_scales(a, b, build_constant_table(8, 64))
        mu_large, _ = fast_mode_scales(a, b, build_constant_table(16, 64))
        assert np.all(mu_large >= mu_small)
        assert np.any(mu_large > mu_small)


class TestAccurateMode:
    @pytest.mark.parametrize("phi", [0.5, 2.0, 4.0])
    def test_condition3_holds(self, phi):
        a, b = phi_pair(20, 50, 18, phi=phi, seed=int(phi * 7))
        table = build_constant_table(12, 64)
        mu_exp, nu_exp, c_bar = accurate_mode_scales(a, b, table)
        assert c_bar.shape == (20, 18)
        a_prime = truncate_scaled(a, mu_exp, "left")
        b_prime = truncate_scaled(b, nu_exp, "right")
        assert check_condition3(a_prime, b_prime, table)

    def test_cbar_bounds_magnitude_product(self):
        a, b = phi_pair(10, 30, 12, phi=1.0, seed=3)
        table = build_constant_table(10, 64)
        _, _, c_bar = accurate_mode_scales(a, b, table)
        # C-bar, after undoing mu'/nu', bounds |A| @ |B| elementwise.
        exp_a = accurate_mode_prescale(a, axis=1).exp_prime
        exp_b = accurate_mode_prescale(b, axis=0).exp_prime
        bound = np.ldexp(c_bar, -(exp_a[:, None] + exp_b[None, :]))
        direct = np.abs(a) @ np.abs(b)
        assert np.all(bound >= direct - 1e-9)

    def test_accurate_scales_at_least_as_large_for_spread_rows(self):
        """With a wide exponent spread the Cauchy-Schwarz bound is loose, so
        accurate mode should allow scales at least as large (median-wise)."""
        a, b = phi_pair(32, 64, 32, phi=4.0, seed=11)
        table = build_constant_table(14, 64)
        mu_fast, nu_fast = fast_mode_scales(a, b, table)
        mu_accu, nu_accu, _ = accurate_mode_scales(a, b, table)
        assert np.median(mu_accu - mu_fast) >= 0  # exponents: mu_accu / mu_fast >= 1
        assert np.median(nu_accu - nu_fast) >= 0

    def test_condition3_checker_detects_violation(self):
        table = build_constant_table(2, 64)
        # Deliberately huge integer matrices violate 2*sum|a||b| < P.
        a_prime = np.full((4, 4), 2.0**40)
        b_prime = np.full((4, 4), 2.0**40)
        assert not check_condition3(a_prime, b_prime, table)
