"""Tests for the array double-double addition."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.utils.doubledouble import dd_add


def _dd(x):
    x = np.asarray(x, dtype=np.float64)
    return x, np.zeros_like(x)


def _to_fraction(dd):
    hi, lo = dd
    return Fraction(float(np.asarray(hi).ravel()[0])) + Fraction(float(np.asarray(lo).ravel()[0]))


class TestAddMul:
    def test_add_keeps_small_terms(self):
        total = dd_add(_dd([1.0]), _dd([2.0**-70]))
        assert _to_fraction(total) == Fraction(1) + Fraction(2) ** -70

    def test_low_part_stays_small(self):
        rng = np.random.default_rng(1)
        hi, lo = dd_add(_dd(rng.standard_normal(100)), _dd(rng.standard_normal(100)))
        nonzero = hi != 0
        assert np.all(np.abs(lo[nonzero]) <= np.abs(hi[nonzero]) * 2.0**-52)
