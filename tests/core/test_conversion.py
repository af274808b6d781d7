"""Tests for truncation and residue-slice conversion (Alg. 1 lines 2-5)."""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.core.conversion import residue_slices, truncate_scaled
from repro.crt.constants import build_constant_table


class TestTruncateScaled:
    def test_left_scaling_rows(self):
        x = np.array([[1.7, -2.3], [0.4, 5.9]])
        exps = np.array([1, 2], dtype=np.intc)
        out = truncate_scaled(x, exps, "left")
        np.testing.assert_array_equal(out, np.array([[3.0, -4.0], [1.0, 23.0]]))

    def test_right_scaling_columns(self):
        x = np.array([[1.7, -2.3], [0.4, 5.9]])
        exps = np.array([1, 2], dtype=np.intc)
        out = truncate_scaled(x, exps, "right")
        np.testing.assert_array_equal(out, np.array([[3.0, -9.0], [0.0, 23.0]]))

    def test_truncation_toward_zero(self):
        x = np.array([[-1.9, 1.9]])
        out = truncate_scaled(x, np.array([0], dtype=np.intc), "left")
        np.testing.assert_array_equal(out, np.array([[-1.0, 1.0]]))

    def test_results_are_integers(self, rng):
        x = rng.standard_normal((20, 30))
        exps = rng.integers(0, 40, 20).astype(np.intc)
        out = truncate_scaled(x, exps, "left")
        np.testing.assert_array_equal(out, np.trunc(out))

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            truncate_scaled(np.ones((2, 2)), np.zeros(2, dtype=np.intc), "top")

    def test_power_of_two_scaling_is_exact(self):
        # Scaling by powers of two must not round: undoing the scale
        # reproduces the truncated value exactly.
        x = np.array([[1.0 + 2.0**-40]])
        out = truncate_scaled(x, np.array([45], dtype=np.intc), "left")
        assert out[0, 0] == 2.0**45 + 2.0**5

    def test_scales_beyond_float_range(self):
        # A subnormal row needs a scale of ~2**1100, which no float64 holds;
        # as an exponent it truncates exactly like any other row.
        x = np.array([[3e-310, -1e-320], [1.5, 2.25]])
        out = truncate_scaled(x, np.array([1080, 4], dtype=np.intc), "left")
        np.testing.assert_array_equal(out, np.trunc(np.ldexp(x, [[1080], [4]])))
        assert np.all(np.isfinite(out)) and out[0, 0] != 0.0


class TestResidueSlices:
    @pytest.mark.parametrize("kernel", oracle.KERNELS)
    def test_slices_congruent_to_input(self, rng, kernel):
        """The production stack, and the paper's fast FMA ``rmod`` cast to
        INT8 as the oracle casts it, are both congruent to the input."""
        table = build_constant_table(8, 64)
        x = np.trunc(rng.standard_normal((12, 14)) * 2.0**30)
        if kernel == "exact":
            slices = residue_slices(x, table)
        else:
            slices = np.stack(oracle.residues(x, table, kernel))
        assert slices.shape == (8, 12, 14)
        assert slices.dtype == np.int8
        for i, p in enumerate(table.moduli):
            diff = x - slices[i].astype(np.float64)
            np.testing.assert_array_equal(np.mod(diff, p), np.zeros_like(x))
