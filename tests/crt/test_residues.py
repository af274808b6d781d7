"""Tests for the rmod/mod residue kernels."""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.crt.constants import build_constant_table
from repro.crt.residues import (
    mod_exact,
    mod_fast_mulhi,
    residues_to_int8,
    rmod_exact,
    rmod_fast_fma,
    uint8_residues_stack,
)
from repro.errors import ConfigurationError, ValidationError


def _random_integer_matrix(rng, shape, bits):
    """Integer-valued float64 matrix with entries up to ~2**bits."""
    mantissa = rng.integers(-(2**53 - 1), 2**53, shape).astype(np.float64)
    scale = 2.0 ** (bits - 53)
    return np.trunc(mantissa * scale) if bits > 53 else np.trunc(mantissa / 2.0 ** (53 - bits))


class TestRmodExact:
    @pytest.mark.parametrize("p", [256, 255, 253, 251, 247, 29])
    def test_congruence_and_range_small_values(self, p):
        x = np.arange(-1000, 1000, dtype=np.float64)
        r = rmod_exact(x, p)
        assert np.all(np.abs(r) <= p / 2)
        np.testing.assert_array_equal(np.mod(r - x, p), np.zeros_like(x))

    @pytest.mark.parametrize("bits", [20, 50, 61, 75, 85])
    def test_congruence_for_large_magnitudes(self, bits):
        rng = np.random.default_rng(bits)
        x = _random_integer_matrix(rng, (64, 64), bits)
        for p in (256, 251, 199):
            r = rmod_exact(x, p)
            assert np.all(np.abs(r) <= p / 2)
            # check congruence with exact integer arithmetic on a sample
            flat_x = x.ravel()
            flat_r = r.ravel()
            for idx in range(0, flat_x.size, 257):
                assert (int(flat_x[idx]) - int(flat_r[idx])) % p == 0

    def test_exact_at_half_modulus_boundary(self):
        r = rmod_exact(np.array([128.0, -128.0, 384.0]), 256)
        # +/-128 are both valid centred representatives of 128 mod 256.
        assert set(np.abs(r)) == {128.0}

    def test_zero(self):
        assert rmod_exact(np.array([0.0]), 251)[0] == 0.0


class TestModExact:
    def test_float_input(self):
        x = np.array([-300.0, -1.0, 0.0, 1.0, 255.0, 256.0, 511.0])
        r = mod_exact(x, 256)
        np.testing.assert_array_equal(r, np.array([212.0, 255.0, 0.0, 1.0, 255.0, 0.0, 255.0]))

    def test_int_input(self):
        x = np.array([-5, 0, 7, 250], dtype=np.int32)
        np.testing.assert_array_equal(mod_exact(x, 251), np.array([246, 0, 7, 250]))

    def test_large_float_values(self):
        x = np.array([2.0**70 + 12.0])
        r = mod_exact(x, 251)
        assert (int(x[0]) - int(r[0])) % 251 == 0
        assert 0 <= r[0] < 251


class TestRmodFastFma:
    @pytest.mark.parametrize("num_moduli", [2, 8, 14, 18, 20])
    def test_matches_exact_for_dgemm_range(self, num_moduli):
        """The fast kernel must agree (mod p) with the exact kernel over the
        magnitude range the DGEMM scaling actually produces for this N."""
        table = build_constant_table(num_moduli, 64)
        # Scaled entries are bounded by 2^alpha with alpha = (log2 P - 1.5)/2.
        alpha = 0.5 * (table.log2_P - 1.5)
        rng = np.random.default_rng(num_moduli)
        x = _random_integer_matrix(rng, (256,), int(alpha))
        for i, p in enumerate(table.moduli):
            fast = rmod_fast_fma(
                x, p, float(table.pinv64[i]), float(table.pinv32[i]), num_moduli, 64
            )
            assert np.all(np.abs(fast) <= 128.5)
            exact = rmod_exact(x, p)
            np.testing.assert_array_equal(np.mod(fast - exact, p), np.zeros_like(x))

    @pytest.mark.parametrize("num_moduli", [2, 5, 8, 10])
    def test_matches_exact_for_sgemm_range(self, num_moduli):
        table = build_constant_table(num_moduli, 32)
        alpha = 0.5 * (table.log2_P - 1.5)
        rng = np.random.default_rng(100 + num_moduli)
        x = _random_integer_matrix(rng, (256,), int(alpha))
        for i, p in enumerate(table.moduli):
            fast = rmod_fast_fma(
                x, p, float(table.pinv64[i]), float(table.pinv32[i]), num_moduli, 32
            )
            exact = rmod_exact(x, p)
            np.testing.assert_array_equal(np.mod(fast - exact, p), np.zeros_like(x))

    def test_invalid_precision(self):
        with pytest.raises(ConfigurationError):
            rmod_fast_fma(np.zeros(4), 251, 1 / 251, np.float32(1 / 251), 8, 16)


class TestRmodFastFmaBoundaries:
    """The paper's exact validity-window edges and correction-step
    transitions (Section 4.2): N <= 20 for FP64 inputs, N <= 18 for FP32
    inputs; correction thresholds (N1, N2) = (13, 19) / (5, 11)."""

    @staticmethod
    def _check_window(num_moduli, precision_bits):
        table = build_constant_table(num_moduli, precision_bits)
        alpha = 0.5 * (table.log2_P - 1.5)
        rng = np.random.default_rng(1000 * precision_bits + num_moduli)
        x = _random_integer_matrix(rng, (512,), int(alpha))
        for i, p in enumerate(table.moduli):
            fast = rmod_fast_fma(
                x,
                p,
                float(table.pinv64[i]),
                float(table.pinv32[i]),
                num_moduli,
                precision_bits,
            )
            assert np.all(np.abs(fast) <= 128.5), (num_moduli, p)
            exact = rmod_exact(x, p)
            np.testing.assert_array_equal(np.mod(fast - exact, p), np.zeros_like(x))

    def test_fp64_window_edge_n20(self):
        """N = 20 is the last N the paper states as valid for FP64 inputs."""
        self._check_window(20, 64)

    def test_fp32_window_edge_n18(self):
        """N = 18 is the last N the paper states as valid for FP32 inputs."""
        self._check_window(18, 32)

    @pytest.mark.parametrize("num_moduli", [12, 13, 18, 19])
    def test_fp64_correction_step_transitions(self, num_moduli):
        """Straddle the (N1, N2) = (13, 19) FP64 thresholds: the kernel must
        stay congruent on both sides of each extra-correction activation."""
        self._check_window(num_moduli, 64)

    @pytest.mark.parametrize("num_moduli", [4, 5, 10, 11])
    def test_fp32_correction_step_transitions(self, num_moduli):
        """Straddle the (N1, N2) = (5, 11) FP32 thresholds."""
        self._check_window(num_moduli, 32)

    def test_correction_steps_actually_engage(self):
        """Directly observe the threshold semantics: for an input that needs
        the correction, N below N1 leaves a wide value and N at N1 tightens
        it (FP64 thresholds: N1 = 13)."""
        table = build_constant_table(13, 64)
        p = int(table.moduli[0])
        pinv64, pinv32 = float(table.pinv64[0]), float(table.pinv32[0])
        rng = np.random.default_rng(7)
        x = _random_integer_matrix(rng, (4096,), 55)
        below = rmod_fast_fma(x, p, pinv64, pinv32, 12, 64)
        at = rmod_fast_fma(x, p, pinv64, pinv32, 13, 64)
        # Both are congruent to x mod p...
        np.testing.assert_array_equal(np.mod(below - at, p), np.zeros_like(x))
        # ...and the corrected result is never wider than the uncorrected one.
        assert np.max(np.abs(at)) <= np.max(np.abs(below))


class TestNonnegModInt64SafeLimit:
    """_nonneg_mod_integer_valued straddling the 2**62 int64-safe limit."""

    @pytest.mark.parametrize("p", [256, 251, 199, 29])
    def test_values_straddling_limit(self, p):
        from repro.crt.residues import _INT64_SAFE_LIMIT, _nonneg_mod_integer_valued

        limit = _INT64_SAFE_LIMIT
        # Exactly representable float64 integers around the limit, both signs.
        x = np.array(
            [
                limit - 2**10,
                limit - 1024.0,
                limit,
                limit + 2**11,
                2.0 * limit,
                -(limit - 1024.0),
                -limit,
                -(limit + 2**11),
            ]
        )
        r = _nonneg_mod_integer_valued(x, p)
        assert np.all((r >= 0) & (r < p))
        for xi, ri in zip(x, r, strict=True):
            assert (int(xi) - int(ri)) % p == 0

    def test_mixed_array_uses_wide_path_consistently(self):
        """One element above the limit pushes the whole array down the exact
        split path; small elements must still come out exact."""
        from repro.crt.residues import _INT64_SAFE_LIMIT, _nonneg_mod_integer_valued

        x = np.array([0.0, 1.0, -1.0, 12345.0, _INT64_SAFE_LIMIT * 4])
        for p in (256, 251):
            r = _nonneg_mod_integer_valued(x, p)
            for xi, ri in zip(x, r, strict=True):
                assert (int(xi) - int(ri)) % p == 0
                assert 0 <= ri < p

    def test_just_below_limit_uses_int64_path_exactly(self):
        from repro.crt.residues import _nonneg_mod_integer_valued

        x = np.array([2.0**61, 2.0**61 + 512.0, -(2.0**61)])
        r = _nonneg_mod_integer_valued(x, 251)
        for xi, ri in zip(x, r, strict=True):
            assert (int(xi) - int(ri)) % 251 == 0


class TestModFastMulhi:
    @pytest.mark.parametrize("p_index", [0, 1, 5, 10, 19])
    def test_matches_integer_mod_over_int32_range(self, p_index):
        table = build_constant_table(20, 64)
        p = table.moduli[p_index]
        pinv_prime = int(table.pinv_prime[p_index])
        rng = np.random.default_rng(p_index)
        c = rng.integers(-(2**31), 2**31, 4096).astype(np.int32)
        got = mod_fast_mulhi(c, p, pinv_prime)
        want = np.mod(c.astype(np.int64), p)
        np.testing.assert_array_equal(got, want)

    def test_extreme_int32_values(self):
        table = build_constant_table(5, 64)
        c = np.array([-(2**31), 2**31 - 1, 0, -1, 1], dtype=np.int32)
        for p, pinv_prime in zip(table.moduli, table.pinv_prime, strict=True):
            got = mod_fast_mulhi(c, p, int(pinv_prime))
            want = np.mod(c.astype(np.int64), p)
            np.testing.assert_array_equal(got, want)


class TestResidueStacks:
    def test_residues_to_int8_shape_and_congruence(self):
        rng = np.random.default_rng(0)
        table = build_constant_table(6, 64)
        x = np.trunc(rng.standard_normal((10, 12)) * 1e6)
        stack = residues_to_int8(x, table.moduli)
        assert stack.shape == (6, 10, 12)
        assert stack.dtype == np.int8
        for i, p in enumerate(table.moduli):
            diff = x - stack[i].astype(np.float64)
            np.testing.assert_array_equal(np.mod(diff, p), np.zeros_like(x))

    def test_fast_kernel_stack_matches_exact_stack_mod_p(self):
        """The paper's fast FMA ``rmod`` (a reference function) is congruent
        to the production stack modulo every ``p``."""
        rng = np.random.default_rng(1)
        table = build_constant_table(10, 64)
        alpha = 0.5 * (table.log2_P - 1.5)
        x = _random_integer_matrix(rng, (16, 16), int(alpha))
        stack = residues_to_int8(x, table.moduli)
        for i, p in enumerate(table.moduli):
            fast = rmod_fast_fma(
                x, p, float(table.pinv64[i]), float(table.pinv32[i]), 10, 64
            )
            diff = stack[i].astype(np.int64) - fast.astype(np.int64)
            assert np.all(diff % p == 0)

    @pytest.mark.parametrize("kernel", oracle.KERNELS)
    @pytest.mark.parametrize("precision_bits", [64, 32])
    def test_matches_oracle_residues(self, kernel, precision_bits):
        """The production conversion is bit-identical to the oracle's
        per-modulus exact ``rmod`` and congruent to its fast FMA ``rmod``,
        in both precisions."""
        n_mod = 15 if precision_bits == 64 else 8
        table = build_constant_table(n_mod, precision_bits)
        alpha = 0.5 * (table.log2_P - 1.5)
        rng = np.random.default_rng(precision_bits + n_mod)
        x = _random_integer_matrix(rng, (24, 18), int(alpha))
        got = residues_to_int8(x, table.moduli)
        want = np.stack(oracle.residues(x, table, kernel))
        assert got.dtype == np.int8
        if kernel == "exact":
            np.testing.assert_array_equal(got, want)
        else:
            moduli = np.array(table.moduli).reshape(-1, 1, 1)
            diff = got.astype(np.int64) - want.astype(np.int64)
            np.testing.assert_array_equal(diff % moduli, 0)

    def test_matches_oracle_above_int64_limit(self):
        """Values up to the 2**93 range limit: the float-domain conversion
        must agree bit-for-bit with the oracle's integer ``rmod`` and with
        exact integer residues, for every modulus the tables use.  Each row
        is converted on its own, since ``max |x|`` picks the kernel's path
        (no limb split below 2**50, centred limbs from there up to 2**93)."""
        table = build_constant_table(20, 64)
        rows = [
            [0.0, 1.0, -1.0, 12345.0, -12345.0],
            # The limb split starts at 2**50.
            [2.0**50 - 1, -(2.0**50 - 1), 2.0**50 - 2, 3.0, -3.0],
            [2.0**50, -(2.0**50), 2.0**50 + 1, -(2.0**50 + 1), 7.0],
            # Around the float64 integer edge (2**53 + 1 is not representable).
            [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 - 1), -(2.0**53 + 2)],
            # Straddling the reference's int64-safe limit.
            [2.0**62 - 1024, 2.0**62, 2.0**62 + 2048, -(2.0**62), -(2.0**62 + 2048)],
            # Accurate mode's largest |A'|, at N = 20.
            [2.0**81, -(2.0**81), 2.0**81 + 2.0**29, 3.0 * 2.0**80, 12345.0],
            # Around 2**91.
            [2.0**91 - 2.0**38, -(2.0**91 - 2.0**38), 2.0**91 - 2.0**40, 1.0, -1.0],
            [2.0**91, -(2.0**91), 2.0**91 + 2.0**38, -(2.0**91 + 2.0**38), 5.0],
            # The largest magnitude the conversion accepts.
            [2.0**93 - 2.0**40, -(2.0**93 - 2.0**40), 2.0**92 + 2.0**50 + 2.0**40, 1.0, -1.0],
        ]
        # j*p +- p/2, the quotient's rounding boundaries (for p = 256 the
        # exact tie), for every modulus, below the limb split (2**20, 2**44)
        # and on it (2**51, 2**52: every integer there is representable).
        for j_bits in (20, 44, 51, 52):
            rows.append(
                [
                    float(sign * (j * p + d))
                    for p in table.moduli
                    for j in (2**j_bits // p, 2**j_bits // p + 1)
                    for d in {-(p + 1) // 2, -(p // 2), -(p - 1) // 2,
                              (p - 1) // 2, p // 2, (p + 1) // 2}
                    for sign in (1, -1)
                ]
            )
        # Odd p: |x| near 2**91 at a residue of +-(p-1)/2, the closest a
        # multiple of 2**38 gets to a half-integer quotient.
        rows.append(
            [
                float(sign * ((r * pow(2**38, -1, p)) % p + (2**53 // p - 1) * p) * 2**38)
                for p in table.moduli[1:]
                for r in ((p - 1) // 2, (p + 1) // 2)
                for sign in (1, -1)
            ]
        )
        # Odd p: the largest combined limb y = hi*c + lo the split can form
        # for each modulus (|hi| = 2**43 - 1, lo near 2**49 with the sign of
        # hi*c; |y| up to 1.43 * 2**50 here), again at a residue of +-(p-1)/2.
        worst = []
        for p in table.moduli[1:]:
            c = pow(2, 50, p)
            c = c - p if 2 * c > p else c
            for hi in (2**43 - 1, -(2**43 - 1)):
                lo_sign = 1 if hi * c > 0 else -1
                for r in ((p - 1) // 2, (p + 1) // 2):
                    t = next(
                        t for t in range(1, p + 1)
                        if (hi * 2**50 + lo_sign * (2**49 - t * 2**40)) % p == r
                    )
                    worst.append(float(hi * 2**50 + lo_sign * (2**49 - t * 2**40)))
        rows.append(worst)
        # Odd p: random multiples of 2**40 in [2**92, 2**93) moved onto a
        # residue of +-(p-1)/2.
        rng = np.random.default_rng(93)
        near_limit = []
        for p in table.moduli[1:]:
            inv = pow(2**40, -1, p)
            for k in rng.integers(2**52 + p, 2**53, 32):
                for r in ((p - 1) // 2, (p + 1) // 2):
                    k_r = int(k) - (int(k) - r * inv) % p
                    near_limit += [float(k_r * 2**40), -float(k_r * 2**40)]
        rows.append(near_limit)

        def assert_centred(values, stack, moduli):
            for p, residues in zip(moduli, stack, strict=True):
                for xi, ri in zip(values.ravel(), residues.ravel(), strict=True):
                    assert int(ri) == (int(xi) + p // 2) % p - p // 2, (xi, p)

        for row in rows:
            x = np.array(row)
            got = residues_to_int8(x, table.moduli)
            want = np.array(oracle.residues(x, table))
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))
            assert_centred(x, got, table.moduli)
        # Even moduli besides 256 map the tie +p/2 to -p/2 as well.
        shifted = np.array(rows[:9]) + 127.0
        assert_centred(shifted, residues_to_int8(shifted, (254, 2)), (254, 2))

    def test_magnitudes_beyond_exact_range_raise(self):
        """|x| >= 2**93 (and non-finite x) cannot be reduced exactly: the
        conversion and the reference must raise, never return wrong
        residues."""
        x = np.array([2.0**94 + 2.0**54])
        with pytest.raises(ValidationError, match="2\\*\\*93"):
            residues_to_int8(x, (256, 255, 253, 251))
        with pytest.raises(ValidationError, match="2\\*\\*93"):
            rmod_exact(x, 251)
        for bad in (2.0**93, -(2.0**93), np.inf, np.nan):
            with pytest.raises(ValueError):
                residues_to_int8(np.array([[1.0, bad]]), (256, 251))

    def test_conversion_on_3d_input(self):
        """The kernel is element-wise, so an extra leading axis converts like
        any other shape."""
        rng = np.random.default_rng(9)
        table = build_constant_table(6, 64)
        x = np.trunc(rng.standard_normal((3, 5, 7)) * 1e6)
        got = residues_to_int8(x, table.moduli)
        assert got.shape == (6, 3, 5, 7)
        np.testing.assert_array_equal(got, oracle.residues(x, table))

    def test_uint8_residues_stack_matches_per_modulus(self):
        """The production ``U`` equals the exact ``mod`` and the paper's
        ``__mulhi`` kernel, modulus by modulus."""
        table = build_constant_table(12, 64)
        rng = np.random.default_rng(11)
        c_stack = rng.integers(-(2**31), 2**31, (12, 9, 5)).astype(np.int32)
        plain = uint8_residues_stack(c_stack, table.moduli)
        for i, p in enumerate(table.moduli):
            np.testing.assert_array_equal(plain[i], mod_exact(c_stack[i], p))
            np.testing.assert_array_equal(
                plain[i], mod_fast_mulhi(c_stack[i], p, int(table.pinv_prime[i]))
            )
        assert plain.dtype == np.uint8

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_uint8_residues_stack_exact_at_integer_extremes(self, dtype):
        """The integer floor-division mod is exact over the whole int32 and
        int64 ranges: at both extremes (where ``p * (c // p)`` wraps), at
        the multiples of ``p`` nearest them, and around zero, for every
        modulus of the N = 20 table."""
        table = build_constant_table(20, 64)
        lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
        rows = [
            [lo, lo + 1, hi, hi - 1, 0, -1, 1, -p, p,
             -(-lo // p) * p, -(-lo // p) * p + 1, (hi // p) * p, (hi // p) * p - 1]
            for p in table.moduli
        ]
        c_stack = np.array(rows, dtype=dtype)[:, None, :]
        got = uint8_residues_stack(c_stack, table.moduli)
        want = [[c % p for c in row] for p, row in zip(table.moduli, rows, strict=True)]
        assert got[:, 0, :].tolist() == want
