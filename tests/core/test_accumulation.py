"""Tests for the accumulation and CRT reconstruction (Alg. 1 lines 7-12)."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.accuracy.reference import exact_int_gemm
from repro.core.accumulation import (
    _table_terms,
    accumulate_residue_products,
    accumulation_row_blocks,
    reconstruct_crt,
    unscale,
)
from repro.core.conversion import residue_slices
from repro.crt.constants import build_constant_table
from repro.crt.inverses import crt_reconstruct_int
from repro.crt.residues import mod_fast_mulhi, uint8_residues_stack


def _residue_products(a_prime, b_prime, table):
    """Exact residue products C'_i as int64 (small test sizes)."""
    slices_a = residue_slices(a_prime, table)
    slices_b = residue_slices(b_prime, table)
    n = table.num_moduli
    out = np.empty((n, a_prime.shape[0], b_prime.shape[1]), dtype=np.int64)
    for i in range(n):
        out[i] = slices_a[i].astype(np.int64) @ slices_b[i].astype(np.int64)
    return out


class TestAccumulate:
    def test_shapes_and_dtypes(self, rng):
        table = build_constant_table(6, 64)
        c_stack = rng.integers(-(2**31), 2**31, (6, 5, 7)).astype(np.int32)
        c1, c2 = accumulate_residue_products(c_stack, table)
        assert c1.shape == (5, 7) and c2.shape == (5, 7)
        assert c1.dtype == np.float64

    def test_wrong_stack_shape_rejected(self):
        table = build_constant_table(4, 64)
        with pytest.raises(ValueError):
            accumulate_residue_products(np.zeros((3, 2, 2), dtype=np.int32), table)

    def test_c1_accumulation_is_error_free(self, rng):
        """C'(1) must equal the exact integer sum of s1_i * U_i."""
        table = build_constant_table(15, 64)
        c_stack = rng.integers(-(2**31), 2**31, (15, 4, 4)).astype(np.int32)
        c1, _ = accumulate_residue_products(c_stack, table)
        for r in range(4):
            for c in range(4):
                exact = sum(
                    int(table.s1[i]) * (int(c_stack[i, r, c]) % table.moduli[i])
                    for i in range(15)
                )
                assert c1[r, c] == float(exact)

    def test_mulhi_and_exact_mod_agree(self, rng):
        """The paper's ``__mulhi`` kernel gives the production U-stack,
        including at the int32 extremes."""
        table = build_constant_table(10, 64)
        c_stack = rng.integers(-(2**31), 2**31, (10, 6, 6)).astype(np.int32)
        c_stack[:, 0, :2] = [-(2**31), 2**31 - 1]
        u = uint8_residues_stack(c_stack, table.moduli)
        mulhi = [
            mod_fast_mulhi(c_stack[i], p, int(table.pinv_prime[i]))
            for i, p in enumerate(table.moduli)
        ]
        np.testing.assert_array_equal(u, np.stack(mulhi))

    def test_sgemm_table_gives_c2_sentinel(self, rng):
        """All split-weight tails are zero for SGEMM tables: the dead second
        accumulation is skipped and reported as the ``None`` sentinel."""
        table = build_constant_table(8, 32)
        c_stack = rng.integers(-(2**31), 2**31, (8, 3, 3)).astype(np.int32)
        _, c2 = accumulate_residue_products(c_stack, table)
        assert c2 is None

    @pytest.mark.parametrize("precision_bits", [64, 32])
    @pytest.mark.parametrize("use_mulhi", [False, True])
    def test_matches_oracle_accumulation(self, rng, precision_bits, use_mulhi):
        """The U-stack/tensordot accumulation must be bit-identical to the
        oracle's ascending per-modulus sums, including the inexact C2 terms
        and the rounded C1 sum of the unsplit 32-bit weights — whether the
        oracle reduces with the exact ``mod`` or the paper's ``__mulhi``."""
        n_mod = 15 if precision_bits == 64 else 8
        table = build_constant_table(n_mod, precision_bits)
        c_stack = rng.integers(-(2**31), 2**31, (n_mod, 7, 9)).astype(np.int32)
        _assert_matches_oracle(c_stack, table, use_mulhi)

    def test_matches_oracle_on_int64_blocked_stack(self, rng):
        """k-blocked partial sums arrive as int64 and can exceed the INT32
        range; the integer mod is exact over the whole int64 range, so the
        accumulation must match the oracle bit for bit there too."""
        table = build_constant_table(12, 64)
        for bits in (33, 40, 51):
            c_stack = rng.integers(-(2**bits), 2**bits, (12, 5, 4)).astype(np.int64)
            c_stack[:, 0, 0] = [2**bits - 1, -(2**bits)] * 6
            _assert_matches_oracle(c_stack, table, use_mulhi=False)

    @pytest.mark.parametrize("precision_bits", [64, 32])
    def test_row_blocks_match_whole_tile(self, rng, precision_bits):
        """Accumulate + reconstruct per row block (as the executors run it)
        is bit-identical to one whole-tile call, and the blocks tile the
        rows exactly once."""
        n_mod = 15 if precision_bits == 64 else 8
        table = build_constant_table(n_mod, precision_bits)
        m, n = 301, 257
        c_stack = rng.integers(-(2**31), 2**31, (n_mod, m, n)).astype(np.int32)
        whole = reconstruct_crt(*accumulate_residue_products(c_stack, table), table)
        blocks = list(accumulation_row_blocks(m, n))
        assert len(blocks) > 1
        assert [r for r0, r1 in blocks for r in range(r0, r1)] == list(range(m))
        blocked = np.empty_like(whole)
        for r0, r1 in blocks:
            c1, c2 = accumulate_residue_products(c_stack[:, r0:r1], table)
            blocked[r0:r1] = reconstruct_crt(c1, c2, table)
        np.testing.assert_array_equal(blocked.view(np.uint64), whole.view(np.uint64))


def _assert_matches_oracle(c_stack, table, use_mulhi):
    c1, c2 = accumulate_residue_products(c_stack, table)
    want_c1, want_c2 = oracle.accumulate(list(c_stack), table, use_mulhi)
    np.testing.assert_array_equal(c1.view(np.uint64), want_c1.view(np.uint64))
    if c2 is None:
        assert not np.any(want_c2)
    else:
        np.testing.assert_array_equal(c2.view(np.uint64), want_c2.view(np.uint64))


class TestReconstruct:
    @pytest.mark.parametrize("num_moduli", [6, 10, 15])
    def test_reconstruction_matches_exact_integer_product(self, rng, num_moduli):
        """End-to-end integer path: A'B' recovered through the float CRT must
        match the exact integer product to FP64-level accuracy *relative to
        the scale the real algorithm operates at* (inputs filling the
        per-side budget, so the products are comparable to P as the scaling
        step arranges)."""
        table = build_constant_table(num_moduli, 64)
        k_inner = 9
        # Fill the per-side budget like the scaling step does: entries close
        # to 2^alpha / sqrt(k) keep condition (3) satisfied while making the
        # products comparable to P.
        bits = int(0.5 * (table.log2_P - 1.5) - 0.5 * np.log2(k_inner) - 1)
        a_prime = np.trunc(rng.standard_normal((6, k_inner)) * 2.0**bits)
        b_prime = np.trunc(rng.standard_normal((k_inner, 5)) * 2.0**bits)
        c_stack = _residue_products(a_prime, b_prime, table)
        c1, c2 = accumulate_residue_products(c_stack, table)
        c_pp = reconstruct_crt(c1, c2, table)
        exact = exact_int_gemm(a_prime, b_prime)
        # Errors are measured against the product scale (as in the GEMM
        # error analysis), not each individual element.
        scale = 2.0 ** (2 * bits) * k_inner
        for r in range(6):
            for c in range(5):
                expected = int(exact[r, c])
                got = c_pp[r, c]
                assert abs(got - expected) <= scale * 2**-48

    def test_reconstruction_agrees_with_integer_crt(self, rng):
        """Scalar cross-check against crt_reconstruct_int."""
        table = build_constant_table(8, 64)
        value = 123456789012345
        residues = np.array(
            [[[value % p for p in table.moduli]]], dtype=np.int64
        ).reshape(8, 1, 1)
        c1, c2 = accumulate_residue_products(residues.astype(np.int32), table)
        c_pp = reconstruct_crt(c1, c2, table)
        assert crt_reconstruct_int([value % p for p in table.moduli], table.moduli) == value
        assert c_pp[0, 0] == pytest.approx(value, rel=1e-12)


class TestReconstructSentinel:
    def test_none_c2_matches_explicit_zeros(self, rng):
        """reconstruct_crt with the ``None`` sentinel must equal the seed
        behaviour of adding an all-zero C2 matrix."""
        table = build_constant_table(8, 32)
        c_stack = rng.integers(-(2**31), 2**31, (8, 4, 4)).astype(np.int32)
        c1, c2 = accumulate_residue_products(c_stack, table)
        assert c2 is None
        with_sentinel = reconstruct_crt(c1, None, table)
        with_zeros = reconstruct_crt(c1, np.zeros_like(c1), table)
        np.testing.assert_array_equal(with_sentinel, with_zeros)

    @pytest.mark.parametrize(
        "num_moduli,precision_bits",
        [(8, 64), (12, 64), (15, 64), (18, 64), (20, 64), (8, 32), (20, 32)],
    )
    def test_scalar_fma_coefficients_broadcast(self, rng, num_moduli, precision_bits):
        """The split reconstruction is bit-identical to the oracle's
        software-FMA lines 10-11: on random stacks, on CRT values drawn
        log-uniformly over the whole range, on a near-null-space integer
        GEMM, and on C2 sums that nearly cancel C1 - P1*Q (where splitting
        P2 like P1, or a fast two-sum, rounds differently)."""
        table = build_constant_table(num_moduli, precision_bits)
        inputs = [
            accumulate_residue_products(
                rng.integers(-(2**31), 2**31, (num_moduli, 6, 6)).astype(np.int32), table
            )
        ]
        half_bits = table.P_int.bit_length() - 2
        values = [
            int(sign * 2.0 ** float(e))
            for e, sign in zip(
                rng.uniform(0, half_bits, 600), rng.choice([-1, 1], 600), strict=True
            )
        ]
        inputs.append(accumulate_residue_products(_stack_of_values(values, table), table))
        k = 24
        bits = int(0.5 * (half_bits - 2 - math.log2(k)))
        a_prime = np.trunc(rng.standard_normal((8, k)) * 2.0**bits)
        r = np.trunc(rng.standard_normal((k, 8)) * 2.0**bits)
        b_prime = r - np.rint(np.linalg.pinv(a_prime) @ (a_prime @ r))
        inputs.append(
            accumulate_residue_products(_residue_products(a_prime, b_prime, table), table)
        )
        if table.P2 != 0.0:
            inputs.append(_cancelling_c2(table, rng))
        for c1, c2 in inputs:
            got = reconstruct_crt(c1, c2, table)
            want = oracle.reconstruct(c1, np.zeros_like(c1) if c2 is None else c2, table)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("precision_bits", [64, 32])
    def test_split_constants_and_quotient_bound(self, precision_bits):
        """The facts the split reconstruction's exactness rests on, for every
        default table: |Q| <= N*255 (pinned up to N = 20), the high halves
        of P1 and P2 hold 53 - ceil(log2(N*255 + 1)) significant bits and
        recombine exactly, and no power of two lies within a factor
        1 +- 2**-36 of P."""

        def significant_bits(value):
            n = abs(int(value))
            return (n // (n & -n)).bit_length() if n else 0

        for num_moduli in range(2, 21):
            table = build_constant_table(num_moduli, precision_bits)
            # The largest C1 (and so Q): every residue at p_i - 1.
            c_stack = np.array(table.moduli, dtype=np.int32)[:, None, None] - 1
            c1, _ = accumulate_residue_products(c_stack, table)
            assert 0 < np.rint(table.Pinv * c1).max() <= num_moduli * 255
            terms = _table_terms(table.moduli, precision_bits)
            high_bits = 53 - math.ceil(math.log2(num_moduli * 255 + 1))
            for full, hi, lo in (
                (table.P1, terms.p1_hi, terms.p1_lo),
                (table.P2, terms.p2_hi, terms.p2_lo),
            ):
                assert Fraction(hi) + Fraction(lo) == Fraction(full)
                assert significant_bits(hi) <= high_bits
                assert significant_bits(lo) <= 53 - high_bits
            nearest = 2 ** round(math.log2(table.P_int))
            assert abs(Fraction(table.P_int, nearest) - 1) > Fraction(1, 2**36)


def _stack_of_values(values, table):
    """Residue stack ``(N, len(values), 1)`` whose CRT values are ``values``."""
    return np.array([[[v % p] for v in values] for p in table.moduli], dtype=np.int64)


def _cancelling_c2(table, rng):
    """``(C1, C2)`` pairs where ``C2`` nearly cancels ``C1 - P1*Q``.

    ``C1`` sits on the grid of the split weights ``s_i1`` just below
    ``P1*Q``, and ``C2`` makes ``t = C1 - P1*Q + C2`` small with bits below
    the last one of ``P2h*Q``, at every ``Q`` the table can produce.
    """
    unit = math.gcd(*(int(s) for s in table.s1))
    unit &= -unit
    g = 2 ** (math.frexp(table.P1)[1] - 53)
    p1 = int(table.P1)
    c1_max = sum(int(s) * (p - 1) for s, p in zip(table.s1, table.moduli, strict=True))
    c1s, c2s = [], []
    for q in range(1, c1_max // p1 + 1):
        j = (p1 * q) % unit // g
        if j > 64:
            continue
        c1 = p1 * q - j * g
        for e in rng.uniform(10, math.log2(abs(table.P2) * q) + 1, 4):
            delta = int(2.0 ** float(e))
            for c2 in (j * g + delta, j * g - delta):
                if c2 >= 0:
                    c1s.append(float(c1))
                    c2s.append(float(c2))
    assert c1s and all(int(c) % unit == 0 for c in c1s)
    return np.array(c1s), np.array(c2s)


class TestUnscale:
    def test_unscale_exact_for_powers_of_two(self, rng):
        c = rng.standard_normal((4, 6))
        mu_exp = rng.integers(-20, 20, 4).astype(np.intc)
        nu_exp = rng.integers(-20, 20, 6).astype(np.intc)
        out = unscale(c, mu_exp, nu_exp)
        mu, nu = np.ldexp(1.0, mu_exp), np.ldexp(1.0, nu_exp)
        np.testing.assert_array_equal(out, c / mu[:, None] / nu[None, :])

    def test_exact_where_float_reciprocals_overflow(self):
        # mu = 2**-1100 has no float64 reciprocal (1/mu and 2**1100 overflow),
        # yet mu_i * nu_j = 2**-50 and the product is an ordinary number.
        c = np.array([[3.0, -5.0]])
        out = unscale(c, np.array([-1100], dtype=np.intc), np.array([1050, 1051], dtype=np.intc))
        np.testing.assert_array_equal(out, np.array([[3.0 * 2.0**50, -5.0 * 2.0**49]]))

    def test_output_dtype(self):
        c = np.ones((2, 2))
        zeros = np.zeros(2, dtype=np.intc)
        out = unscale(c, zeros, zeros, out_dtype=np.float32)
        assert out.dtype == np.float32
