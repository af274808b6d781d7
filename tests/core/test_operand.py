"""Tests for the precomputed-operand subsystem (convert once, multiply many)."""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algorithm1_oracle as oracle
from repro.config import ComputeMode, Ozaki2Config
from repro.core.conversion import truncate_scaled
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import (
    AccurateOperand,
    ResidueOperand,
    prepare_a,
    prepare_b,
    table_for,
)
from repro.core.scaling import fast_mode_scales
from repro.crt.constants import build_constant_table
from repro.errors import ConfigurationError, ValidationError
from repro.workloads import phi_pair


class TestPrepare:
    def test_prepare_a_contents(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(12)
        prep = prepare_a(a, config=config)
        assert prep.side == "A"
        assert prep.shape == a.shape
        assert prep.num_moduli == 12
        assert prep.inner_dim == a.shape[1]
        assert prep.phase_key == "convert_A"
        assert prep.slices.dtype == np.int8
        assert prep.slices.shape == (12,) + a.shape
        assert prep.convert_seconds > 0.0
        # The cached scale is exactly the fast-mode mu.
        table = build_constant_table(12, 64)
        mu, _ = fast_mode_scales(a, b, table)
        np.testing.assert_array_equal(prep.scale_exp, mu)

    def test_prepare_b_contents(self, small_pair):
        _, b = small_pair
        prep = prepare_b(b, config=Ozaki2Config.for_dgemm(9))
        assert prep.side == "B"
        assert prep.inner_dim == b.shape[0]
        assert prep.phase_key == "convert_B"
        assert prep.slices.shape == (9,) + b.shape

    def test_prepare_validates_operand(self):
        with pytest.raises(ValidationError):
            prepare_a(np.ones((2, 3, 4)))
        with pytest.raises(ValidationError):
            prepare_a(np.array([[np.inf, 1.0]]))

    def test_prepare_accurate_mode_returns_accurate_operand(self, small_pair):
        # Historically rejected: accurate-mode final scales couple both
        # operands.  The prescale split stores the N-independent half
        # (mu', A-bar) at preparation time instead.
        a, _ = small_pair
        config = Ozaki2Config.for_dgemm(12, mode="accurate")
        prep = prepare_a(a, config=config)
        assert isinstance(prep, AccurateOperand)
        assert prep.side == "A"
        assert prep.shape == a.shape
        assert prep.num_moduli == 12
        assert prep.prescale.exp_prime.shape == (a.shape[0],)
        assert not prep.prescale.magnitude.flags.writeable

    def test_accurate_prepared_mode_mismatch_rejected(self, small_pair):
        a, b = small_pair
        accurate = Ozaki2Config.for_dgemm(12, mode="accurate")
        fast = Ozaki2Config.for_dgemm(12)
        with pytest.raises(ConfigurationError, match="mode"):
            ozaki2_gemm(prepare_a(a, config=accurate), b, config=fast)
        with pytest.raises(ConfigurationError, match="mode"):
            ozaki2_gemm(prepare_a(a, config=fast), b, config=accurate)

    def test_invalid_side_rejected(self):
        with pytest.raises(ConfigurationError):
            ResidueOperand(
                side="C",
                scale_exp=np.zeros(2, dtype=np.intc),
                slices=np.zeros((2, 2, 2), dtype=np.int8),
                config=Ozaki2Config(),
            )


def _oracle_residues(prep: ResidueOperand, kernel: str) -> ResidueOperand:
    """``prep`` with its residue stack recomputed by the oracle's ``kernel``."""
    side = "left" if prep.side == "A" else "right"
    x_prime = truncate_scaled(prep.source, prep.scale_exp, side)
    slices = np.stack(oracle.residues(x_prime, table_for(prep.config), kernel))
    return dataclasses.replace(prep, slices=slices)


class TestBitIdentity:
    @pytest.mark.parametrize("kernel", oracle.KERNELS)
    @pytest.mark.parametrize(
        "precision, num_moduli", [("fp64", 15), ("fp64", 8), ("fp32", 8)]
    )
    def test_prepared_matches_unprepared(self, kernel, precision, num_moduli):
        """Prepared operands give the unprepared bits, also when their
        residues come from the paper's fast FMA ``rmod`` (congruent residues
        give the same ``U_i``)."""
        a, b = phi_pair(21, 34, 17, phi=0.7, seed=5)
        config = Ozaki2Config(precision=precision, num_moduli=num_moduli)
        reference = ozaki2_gemm(a, b, config=config)
        pa, pb = prepare_a(a, config), prepare_b(b, config)
        if kernel == "fast_fma":
            pa, pb = _oracle_residues(pa, kernel), _oracle_residues(pb, kernel)
        for lhs, rhs in ((pa, b), (a, pb), (pa, pb)):
            c = ozaki2_gemm(lhs, rhs, config=config)
            assert c.tobytes() == reference.tobytes()

    @given(
        m=st.integers(1, 24),
        k=st.integers(1, 32),
        n=st.integers(1, 24),
        num_moduli=st.integers(2, 20),
        prepare_side=st.sampled_from(["A", "B", "AB"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_prepared_byte_identical_property(self, m, k, n, num_moduli, prepare_side, seed):
        """For random shapes/N, prepared A and/or B returns output
        byte-identical to the unprepared call (the tentpole guarantee)."""
        a, b = phi_pair(m, k, n, phi=0.5, seed=seed)
        config = Ozaki2Config.for_dgemm(num_moduli)
        reference = ozaki2_gemm(a, b, config=config)
        lhs = prepare_a(a, config) if "A" in prepare_side else a
        rhs = prepare_b(b, config) if "B" in prepare_side else b
        assert ozaki2_gemm(lhs, rhs, config=config).tobytes() == reference.tobytes()

    @given(
        m=st.integers(1, 16),
        k=st.integers(1, 24),
        n=st.integers(1, 16),
        num_moduli=st.integers(2, 16),
        executor=st.sampled_from(["thread", "process"]),
        parallelism=st.sampled_from([1, 2]),
        prepare_side=st.sampled_from(["A", "B", "AB"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_accurate_prepared_byte_identical_across_executors(
        self, m, k, n, num_moduli, executor, parallelism, prepare_side, seed
    ):
        """Accurate-mode prepared operands return output byte-identical to
        the unprepared call under every executor — the prescale split
        stores exactly what a fresh preparation would compute, and the
        coupled finalize runs the same arithmetic either way."""
        a, b = phi_pair(m, k, n, phi=0.5, seed=seed)
        config = Ozaki2Config.for_dgemm(
            num_moduli, mode="accurate", executor=executor, parallelism=parallelism
        )
        reference = ozaki2_gemm(a, b, config=config)
        lhs = prepare_a(a, config) if "A" in prepare_side else a
        rhs = prepare_b(b, config) if "B" in prepare_side else b
        assert ozaki2_gemm(lhs, rhs, config=config).tobytes() == reference.tobytes()

    def test_prepared_with_runtime_knobs(self, small_pair):
        """Runtime knobs (parallelism, tiling) may differ from the preparing
        config — they do not affect the cached residues."""
        a, b = small_pair
        base = Ozaki2Config.for_dgemm(10)
        prep = prepare_a(a, config=base)
        reference = ozaki2_gemm(a, b, config=base)
        for variant in (
            base.replace(parallelism=3),
            base.replace(memory_budget_mb=0.01),
        ):
            c = ozaki2_gemm(prep, b, config=variant)
            np.testing.assert_array_equal(c, reference)

    def test_prepared_with_k_blocking(self, monkeypatch):
        """Prepared slices feed the k-blocked execution path unchanged."""
        import repro.core.gemm as gemm_mod

        a, b = phi_pair(12, 96, 10, seed=8)
        config = Ozaki2Config.for_dgemm(8)
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 32)
        reference = ozaki2_gemm(a, b, config=config, return_details=True)
        assert reference.num_k_blocks == 3
        c = ozaki2_gemm(prepare_a(a, config), b, config=config)
        np.testing.assert_array_equal(c, reference.value)


class TestResolveCache:
    """The resolve_for derivation cache is an LRU bounded in memory, not
    an identity: eviction must never change bits, only cost."""

    def test_cache_never_exceeds_bound(self, small_pair):
        from repro.core.operand import _RESOLVE_CACHE_ENTRIES

        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        for count in range(2, 15):
            prep.resolve_for(count)
            assert len(prep._resolved_cache) <= _RESOLVE_CACHE_ENTRIES

    def test_hit_returns_cached_object(self, small_pair):
        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        first = prep.resolve_for(8)
        assert prep.resolve_for(8) is first

    def test_self_count_short_circuits(self, small_pair):
        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        # Even after the seed entry is evicted by churn, resolving back to
        # the operand's own count is an identity, never a re-derivation.
        for count in range(2, 12):
            prep.resolve_for(count)
        assert prep.resolve_for(15) is prep

    def test_evicted_count_rederives_bit_identical(self, small_pair):
        from repro.core.operand import _RESOLVE_CACHE_ENTRIES

        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        first = prep.resolve_for(4)
        # Churn enough distinct counts to evict 4 from the LRU.
        for count in range(5, 5 + _RESOLVE_CACHE_ENTRIES + 1):
            prep.resolve_for(count)
        assert 4 not in prep._resolved_cache
        again = prep.resolve_for(4)
        assert again is not first
        np.testing.assert_array_equal(again.scale_exp, first.scale_exp)
        np.testing.assert_array_equal(again.slices, first.slices)

    def test_lru_keeps_recently_used(self, small_pair):
        from repro.core.operand import _RESOLVE_CACHE_ENTRIES

        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        prep.resolve_for(4)
        for count in range(5, 4 + _RESOLVE_CACHE_ENTRIES):
            prep.resolve_for(4)  # touch 4: it stays most-recently-used
            prep.resolve_for(count)
        assert 4 in prep._resolved_cache

    def test_derived_operands_share_one_cache(self, small_pair):
        a, _ = small_pair
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(15))
        derived = prep.resolve_for(8)
        assert derived._resolved_cache is prep._resolved_cache
        # A ladder walking through the derived operand fills the same
        # bounded cache, not a second unbounded one.
        assert derived.resolve_for(6) is prep.resolve_for(6)


class TestPhaseReporting:
    def test_prepared_sides_report_zero_convert(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(10)
        result = ozaki2_gemm(prepare_a(a, config), b, config=config, return_details=True)
        assert result.phase_times.seconds["convert_A"] == 0.0
        assert result.phase_times.seconds["convert_B"] > 0.0
        both = ozaki2_gemm(
            prepare_a(a, config), prepare_b(b, config), config=config, return_details=True
        )
        assert both.phase_times.seconds["convert_A"] == 0.0
        assert both.phase_times.seconds["convert_B"] == 0.0
        assert both.phase_times.seconds["matmul"] > 0.0

    @pytest.mark.parametrize("route", ["gemm", "gemv"])
    def test_rederived_side_reports_its_conversion(self, small_pair, route):
        """A prepared side re-derived at the call's auto count pays a
        conversion, and the call's convert_A phase shows it."""
        a, b = small_pair
        loose = Ozaki2Config(num_moduli="auto", target_accuracy=1e-6)
        tight = loose.replace(target_accuracy=1e-12)
        prep = prepare_a(a, loose)
        if route == "gemm":
            result = ozaki2_gemm(prep, b, config=tight, return_details=True)
        else:
            result = prepared_gemv(prep, b[:, 0], tight, return_details=True)
        count = result.config.num_moduli
        assert count != prep.num_moduli
        derived = prep.resolve_for(count)
        assert result.phase_times.seconds["convert_A"] >= derived.convert_seconds > 0.0

    def test_details_carry_cached_scales(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(10)
        prep = prepare_a(a, config)
        result = ozaki2_gemm(prep, b, config=config, return_details=True)
        np.testing.assert_array_equal(result.mu_exp, prep.scale_exp)


class TestCompatibility:
    def test_wrong_side_rejected(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(8)
        with pytest.raises(ValidationError, match="B side"):
            ozaki2_gemm(prepare_b(b, config), b, config=config)
        with pytest.raises(ValidationError, match="A side"):
            ozaki2_gemm(a, prepare_a(a, config), config=config)

    def test_moduli_mismatch_rejected(self, small_pair):
        a, b = small_pair
        prep = prepare_a(a, Ozaki2Config.for_dgemm(10))
        with pytest.raises(ConfigurationError, match="num_moduli"):
            ozaki2_gemm(prep, b, config=Ozaki2Config.for_dgemm(12))

    def test_precision_mismatch_rejected(self):
        a, b = phi_pair(8, 8, 8, seed=0)
        prep = prepare_a(a, Ozaki2Config.for_dgemm(8))
        with pytest.raises(ConfigurationError, match="precision"):
            ozaki2_gemm(prep, b, config=Ozaki2Config.for_sgemm(8))

    def test_accurate_multiplication_rejected(self, small_pair):
        a, b = small_pair
        prep = prepare_a(a, Ozaki2Config.for_dgemm(12))
        with pytest.raises(ConfigurationError, match="accurate"):
            ozaki2_gemm(prep, b, config=Ozaki2Config.for_dgemm(12, mode="accurate"))

    def test_inner_dim_mismatch_rejected(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(8)
        with pytest.raises(ValidationError, match="inner dimensions"):
            ozaki2_gemm(prepare_a(a, config), np.ones((3, 4)), config=config)
        with pytest.raises(ValidationError, match="inner dimensions"):
            ozaki2_gemm(np.ones((4, 3)), prepare_b(b, config), config=config)

    def test_raw_partner_still_validated(self, small_pair):
        a, b = small_pair
        config = Ozaki2Config.for_dgemm(8)
        bad = b.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            ozaki2_gemm(prepare_a(a, config), bad, config=config)

    def test_compatibility_mode_is_enum_identity(self, small_pair):
        """ComputeMode round-trips through strings without breaking reuse."""
        a, b = small_pair
        prep = prepare_a(a, Ozaki2Config.for_dgemm(8, mode="fast"))
        c = ozaki2_gemm(prep, b, config=Ozaki2Config.for_dgemm(8, mode=ComputeMode.FAST))
        np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(8)))


class TestNoReferenceCycles:
    """Dropped operands free their residues by reference counting alone:
    no operand is strongly reachable from itself (the resolve_for cache is
    owned by the root, and derived operands reach it through a weakref)."""

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_prepared_operand(self, small_pair):
        prep = prepare_a(small_pair[0], config=Ozaki2Config.for_dgemm(10))
        alive = weakref.ref(prep)
        del prep
        assert alive() is None

    def test_derived_operand(self, small_pair):
        prep = prepare_a(small_pair[0], config=Ozaki2Config.for_dgemm(15))
        derived = prep.resolve_for(8)
        assert derived.resolve_for(15) is prep
        alive_root, alive_derived = weakref.ref(prep), weakref.ref(derived)
        del derived
        assert alive_derived() is not None  # the root's cache holds it
        del prep
        assert alive_root() is None and alive_derived() is None

    def test_derived_operand_outlives_its_root(self, small_pair):
        prep = prepare_a(small_pair[0], config=Ozaki2Config.for_dgemm(15))
        derived = prep.resolve_for(8)
        del prep
        again = derived.resolve_for(15)  # re-derived, bit-identical
        fresh = prepare_a(small_pair[0], config=Ozaki2Config.for_dgemm(15))
        np.testing.assert_array_equal(again.slices, fresh.slices)
        alive = weakref.ref(derived)
        del derived, again
        assert alive() is None

    def test_pickled_operands_start_their_own_cache(self, small_pair):
        import pickle

        prep = prepare_a(small_pair[0], config=Ozaki2Config.for_dgemm(15))
        derived = prep.resolve_for(8)
        for operand in (prep, derived):
            copy = pickle.loads(pickle.dumps(operand))
            np.testing.assert_array_equal(copy.slices, operand.slices)
            assert copy._resolved_cache == {}
            np.testing.assert_array_equal(copy.resolve_for(6).slices,
                                          prep.resolve_for(6).slices)

    def test_session_cached_operand_after_close(self, small_pair):
        from repro.session import Session

        session = Session(Ozaki2Config.for_dgemm(10))
        prep = session.prepare(small_pair[0], side="A")
        session.gemv(small_pair[0], np.ones(small_pair[0].shape[1]))
        alive = weakref.ref(prep)
        del prep
        assert alive() is not None
        session.close()
        assert alive() is None
