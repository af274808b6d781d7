"""Property-based tests (hypothesis) on the library's core invariants."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st


from repro.core.conversion import truncate_scaled
from repro.core.scaling import check_condition3, fast_mode_scales
from repro.crt.constants import build_constant_table
from repro.crt.inverses import crt_reconstruct_int, moduli_product
from repro.crt.moduli import select_moduli
from repro.crt.residues import (
    mod_fast_mulhi,
    residues_to_int8,
    rmod_exact,
    uint8_residues_stack,
)
from repro.utils.fma import fma, split, two_prod, two_sum
from repro.workloads.generators import phi_matrix

# Keep hypothesis fast and deterministic for CI-style runs.
COMMON_SETTINGS = dict(max_examples=50, deadline=None)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)


class TestErrorFreeTransformations:
    @given(a=finite_floats, b=finite_floats)
    @settings(**COMMON_SETTINGS)
    def test_two_sum_is_exact(self, a, b):
        s, e = two_sum(a, b)
        assert Fraction(float(s)) + Fraction(float(e)) == Fraction(a) + Fraction(b)

    @given(a=finite_floats)
    @settings(**COMMON_SETTINGS)
    def test_split_recombines(self, a):
        hi, lo = split(a)
        assert float(hi) + float(lo) == a

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e120, max_value=1e120),
        b=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e120, max_value=1e120),
    )
    @settings(**COMMON_SETTINGS)
    def test_two_prod_is_exact(self, a, b):
        p, e = two_prod(a, b)
        assume(np.isfinite(p) and np.isfinite(e))
        exact = Fraction(a) * Fraction(b)
        assume(exact == 0 or abs(exact) > Fraction(1, 2**900))
        assert Fraction(float(p)) + Fraction(float(e)) == exact

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
        b=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
        c=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
    )
    @settings(**COMMON_SETTINGS)
    def test_fma_is_faithful(self, a, b, c):
        result = float(fma(a, b, c))
        exact = Fraction(a) * Fraction(b) + Fraction(c)
        assume(exact != 0)
        assume(abs(exact) > Fraction(1, 2**500) and abs(exact) < Fraction(2**500))
        assert abs(Fraction(result) - exact) <= abs(exact) * Fraction(1, 2**51)


class TestCrtInvariants:
    @given(
        x=st.integers(min_value=-(10**40), max_value=10**40),
        n=st.integers(min_value=2, max_value=20),
    )
    @settings(**COMMON_SETTINGS)
    def test_crt_roundtrip(self, x, n):
        mods = select_moduli(n)
        total = moduli_product(mods)
        assume(2 * abs(x) < total)
        residues = [x % p for p in mods]
        assert crt_reconstruct_int(residues, mods) == x

    @given(
        value=st.one_of(
            st.integers(min_value=-(2**70), max_value=2**70),
            # Up to the conversion's 2**93 range limit.
            st.integers(min_value=-(2**93) + 2**40, max_value=2**93 - 2**40),
        ),
        p_index=st.integers(min_value=0, max_value=19),
    )
    @settings(**COMMON_SETTINGS)
    def test_rmod_exact_congruence_and_range(self, value, p_index):
        mods = select_moduli(20)
        p = mods[p_index]
        x = np.array([float(value)])
        r = rmod_exact(x, p)[0]
        assert abs(r) <= p / 2
        assert (int(float(value)) - int(r)) % p == 0
        # The float-domain conversion returns the same residue for every
        # modulus, bit for bit (the INT8 wrap maps +128 to -128).
        got = residues_to_int8(x, mods)[:, 0]
        want = [(int(float(value)) + q // 2) % q - q // 2 for q in mods]
        assert got.tolist() == want

    @given(
        c=st.one_of(
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            # int64 k-blocked sums: integer floor-division is exact for all.
            st.integers(min_value=-(2**62), max_value=2**62),
        ),
        p_index=st.integers(min_value=0, max_value=19),
    )
    # The int32 extremes, where p * (c // p) wraps, and exact multiples of p.
    @example(c=-(2**31), p_index=0)
    @example(c=-(2**31), p_index=1)
    @example(c=-(2**31), p_index=19)
    @example(c=2**31 - 1, p_index=1)
    @example(c=2**31 - 1, p_index=19)
    @example(c=255 * 8421504, p_index=1)
    @example(c=-253 * 8488077, p_index=2)
    @example(c=-(2**62), p_index=3)
    @example(c=2**62, p_index=1)
    @settings(**COMMON_SETTINGS)
    def test_mulhi_mod_matches_python_mod(self, c, p_index):
        table = build_constant_table(20, 64)
        p = table.moduli[p_index]
        if -(2**31) <= c < 2**31:
            c32 = np.array([c], dtype=np.int32)
            got = mod_fast_mulhi(c32, p, int(table.pinv_prime[p_index]))[0]
            assert got == c % p
        dtype = np.int32 if -(2**31) <= c < 2**31 else np.int64
        stack = uint8_residues_stack(np.array([[[c]]], dtype=dtype), [p])
        assert int(stack[0, 0, 0]) == c % p

    @given(n=st.integers(min_value=2, max_value=20))
    @settings(**COMMON_SETTINGS)
    def test_split_weight_accumulation_error_free(self, n):
        table = build_constant_table(n, 64)
        rng = np.random.default_rng(n)
        u = rng.integers(0, 256, n)
        acc_float = 0.0
        acc_exact = 0
        for i in range(n):
            acc_float += table.s1[i] * float(u[i])
            acc_exact += int(table.s1[i]) * int(u[i])
        assert acc_float == float(acc_exact)


class TestScalingInvariants:
    @given(
        num_moduli=st.integers(min_value=4, max_value=18),
        phi=st.floats(min_value=0.0, max_value=4.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_condition3_always_holds_in_fast_mode(self, num_moduli, phi, seed):
        """The uniqueness condition (3) of the paper must hold for every
        workload the generator can produce."""
        rng = np.random.default_rng(seed)
        a = phi_matrix(12, 24, phi=phi, rng=rng)
        b = phi_matrix(24, 10, phi=phi, rng=rng)
        table = build_constant_table(num_moduli, 64)
        mu, nu = fast_mode_scales(a, b, table)
        a_prime = truncate_scaled(a, mu, "left")
        b_prime = truncate_scaled(b, nu, "right")
        assert check_condition3(a_prime, b_prime, table)

    @given(
        scale_exp=st.integers(min_value=-300, max_value=300),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_emulation_robust_to_extreme_power_of_two_scaling(self, scale_exp, seed):
        """Pre-scaling A by any power of two (down to 1e-90, up to 1e90) must
        leave the emulation accurate: the per-row scale vectors absorb the
        magnitude so accuracy does not depend on the absolute scale."""
        from repro import emulated_dgemm

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((8, 12))
        b = rng.standard_normal((12, 6))
        exact_scaled = (a @ b) * 2.0**scale_exp
        scaled = emulated_dgemm(a * 2.0**scale_exp, b, num_moduli=12)
        assert np.allclose(scaled, exact_scaled, rtol=1e-7, atol=0)


class TestEmulationAccuracyProperty:
    @given(
        m=st.integers(min_value=1, max_value=24),
        k=st.integers(min_value=1, max_value=48),
        n=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_emulated_dgemm_close_to_numpy_for_random_shapes(self, m, k, n, seed):
        from repro import emulated_dgemm

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        c = emulated_dgemm(a, b, num_moduli=14)
        assert np.allclose(c, a @ b, rtol=1e-8, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_ozimmu_and_ozaki2_agree(self, seed):
        from repro import emulated_dgemm
        from repro.baselines import ozimmu_gemm

        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 16))
        b = rng.standard_normal((16, 8))
        c1 = emulated_dgemm(a, b, num_moduli=16)
        c2 = ozimmu_gemm(a, b, 9)
        assert np.allclose(c1, c2, rtol=1e-10, atol=1e-12)
