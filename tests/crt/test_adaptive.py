"""Unit tests of the accuracy-driven moduli selection model."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.config import MAX_MODULI, Ozaki2Config
from repro.crt.adaptive import (
    DEFAULT_TARGET_ACCURACY,
    elementwise_error_bound,
    relative_error_bound,
    select_num_moduli,
)
from repro.errors import ConfigurationError, ValidationError


class TestRelativeBound:
    def test_decreases_with_moduli(self):
        bounds = [relative_error_bound(256, n, 64) for n in range(2, MAX_MODULI + 1)]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:], strict=False))

    def test_grows_with_k(self):
        assert relative_error_bound(4096, 10, 64) > relative_error_bound(16, 10, 64)

    def test_magnitude_invariance_of_absolute_bound(self):
        # The absolute bound scales exactly with k*max|A|*max|B|.
        base = elementwise_error_bound(128, 1.0, 1.0, 12, 64)
        scaled = elementwise_error_bound(128, 8.0, 0.25, 12, 64)
        assert scaled == pytest.approx(base * 8.0 * 0.25)

    def test_zero_operand_bound_is_zero(self):
        assert elementwise_error_bound(128, 0.0, 1.0, 12, 64) == 0.0

    @pytest.mark.parametrize("bits, tiny", [(64, 2.0**-1074), (32, 2.0**-149)])
    def test_bound_covers_rounding_into_a_subnormal_output(self, bits, tiny):
        # The relative terms vanish at subnormal magnitudes (fp64 B·1e-318
        # underflows them to 0); the final rounding still misses by up to
        # half the format's smallest subnormal.
        assert elementwise_error_bound(64, 4.0, 4e-318, 15, bits) >= tiny
        sel = select_num_moduli(64, 4.0, 4e-318, bits)
        assert sel.bound >= tiny and sel.num_moduli == select_num_moduli(64, 1, 1, bits).num_moduli

    def test_natural_scale_does_not_overflow_early(self):
        # k·max|A| alone overflows; k·max|A|·max|B| does not.
        bound = elementwise_error_bound(64, 1e307, 1e-10, 15, 64)
        assert bound == pytest.approx(relative_error_bound(64, 15, 64) * 64 * 1e297)

    @pytest.mark.parametrize("bad_bits", [16, 128, 0])
    def test_rejects_bad_precision(self, bad_bits):
        with pytest.raises(ConfigurationError):
            relative_error_bound(128, 10, bad_bits)

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            relative_error_bound(128, 10, 64, mode="turbo")

    def test_modes_share_the_same_margin_shape(self):
        # Both mode margins derive from the same 0.51*log2(k) law and stay
        # within a bit of each other, so the selected N rarely differs.
        for k in (1, 16, 1024):
            fast = relative_error_bound(k, 10, 64, mode="fast")
            accu = relative_error_bound(k, 10, 64, mode="accurate")
            assert fast / 2.0 <= accu <= fast * 2.0


class TestSelection:
    def test_monotone_in_target(self):
        previous = None
        for target in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            sel = select_num_moduli(256, 1.0, 1.0, 64, target=target)
            if previous is not None:
                assert sel.num_moduli >= previous
            previous = sel.num_moduli

    def test_never_exceeds_max_moduli(self):
        sel = select_num_moduli(2**16, 1.0, 1.0, 64, target=1e-15)
        assert sel.num_moduli <= MAX_MODULI
        assert not sel.met  # unreachable target clamps instead of raising

    def test_met_selection_bound_meets_target(self):
        sel = select_num_moduli(512, 3.0, 0.5, 64, target=1e-8)
        assert sel.met
        assert sel.relative_bound <= 1e-8
        assert sel.bound == pytest.approx(sel.relative_bound * 512 * 3.0 * 0.5)

    def test_default_targets_match_precision(self):
        d = select_num_moduli(128, 1.0, 1.0, 64)
        s = select_num_moduli(128, 1.0, 1.0, 32)
        assert d.target == DEFAULT_TARGET_ACCURACY[64]
        assert s.target == DEFAULT_TARGET_ACCURACY[32]
        assert s.num_moduli < d.num_moduli

    def test_small_k_selects_fewer_than_dgemm_default(self):
        sel = select_num_moduli(16, 1.0, 1.0, 64)
        assert sel.num_moduli < 15

    def test_zero_operand_short_circuits(self):
        sel = select_num_moduli(128, 0.0, 5.0, 64)
        assert sel.num_moduli == 2
        assert sel.met and sel.bound == 0.0

    def test_underflowing_scale_is_not_a_zero_operand(self):
        # Two subnormal-sized operands: k·max|A|·max|B| underflows to 0, but
        # the partner-independent count must not collapse to the minimum.
        sel = select_num_moduli(64, 4e-312, 4e-312, 64)
        assert sel.num_moduli == select_num_moduli(64, 1.0, 1.0, 64).num_moduli
        assert sel.bound == 2.0**-1074

    def test_magnitude_invariant_selection(self):
        a = select_num_moduli(256, 1.0, 1.0, 64).num_moduli
        b = select_num_moduli(256, 2.0**40, 2.0**-37, 64).num_moduli
        assert a == b

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_bad_target(self, bad):
        with pytest.raises(ConfigurationError, match="target"):
            select_num_moduli(128, 1.0, 1.0, 64, target=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_max_abs(self, bad):
        with pytest.raises(ConfigurationError, match="max"):
            select_num_moduli(128, bad, 1.0, 64)

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigurationError, match="k must be positive"):
            select_num_moduli(0, 1.0, 1.0, 64)


class TestClampWarning:
    @pytest.fixture(autouse=True)
    def _reset_latch(self, monkeypatch):
        # The warning is once-per-process; each test gets a fresh latch.
        import repro.crt.adaptive as adaptive_mod

        monkeypatch.setattr(adaptive_mod, "_CLAMP_WARNING_EMITTED", False)

    def test_clamped_selection_warns_once_per_process(self):
        with pytest.warns(RuntimeWarning, match="unreachable"):
            sel = select_num_moduli(2**16, 1.0, 1.0, 64, target=1e-15)
        assert not sel.met and sel.num_moduli == MAX_MODULI
        # Second clamped selection: latched, silent (a solver loop
        # re-selecting every iteration must not spam).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = select_num_moduli(2**16, 1.0, 1.0, 64, target=1e-15)
        assert not again.met

    def test_warning_names_the_callers_line(self, monkeypatch):
        """Every route attributes the clamp warning to the caller's code,
        not to a line of the library."""
        import repro.crt.adaptive as adaptive_mod
        from repro.core.gemm import ozaki2_gemm
        from repro.core.gemv import prepared_gemv
        from repro.workloads import phi_pair

        a, b = phi_pair(6, 8, 6, phi=0.5, seed=1)
        config = Ozaki2Config(num_moduli="auto", target_accuracy=1e-15)
        calls = (
            lambda: ozaki2_gemm(a, b, config=config),
            lambda: prepared_gemv(a, b[:, 0], config=config),
            lambda: select_num_moduli(2**16, 1.0, 1.0, 64, target=1e-15),
        )
        for call in calls:
            monkeypatch.setattr(adaptive_mod, "_CLAMP_WARNING_EMITTED", False)
            with pytest.warns(RuntimeWarning, match="unreachable") as record:
                call()
            assert [w.filename for w in record] == [__file__]

    def test_met_selection_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sel = select_num_moduli(256, 1.0, 1.0, 64, target=1e-8)
        assert sel.met

    def test_result_bound_met_false_on_clamp(self):
        from repro.core.gemm import ozaki2_gemm
        from repro.workloads import phi_pair

        a, b = phi_pair(6, 8, 6, phi=0.5, seed=1)
        config = Ozaki2Config(num_moduli="auto", target_accuracy=1e-15)
        with pytest.warns(RuntimeWarning, match="unreachable"):
            result = ozaki2_gemm(a, b, config=config, return_details=True)
        assert result.bound_met is False
        assert result.config.num_moduli == MAX_MODULI

    def test_result_bound_met_true_paths(self):
        from repro.core.gemm import ozaki2_gemm
        from repro.workloads import phi_pair

        a, b = phi_pair(6, 8, 6, phi=0.5, seed=1)
        auto = ozaki2_gemm(
            a,
            b,
            config=Ozaki2Config(num_moduli="auto", target_accuracy=1e-8),
            return_details=True,
        )
        assert auto.bound_met is True
        # Fixed-count runs carry no selection diagnostic: vacuously met.
        fixed = ozaki2_gemm(
            a, b, config=Ozaki2Config(num_moduli=10), return_details=True
        )
        assert fixed.bound_met is True


class TestConfigIntegration:
    def test_auto_accepted_and_normalised(self):
        cfg = Ozaki2Config(num_moduli="AUTO")
        assert cfg.num_moduli == "auto"
        assert cfg.moduli_is_auto
        assert cfg.method_name == "OS II-fast-auto"

    def test_resolved_returns_concrete(self):
        cfg = Ozaki2Config(num_moduli="auto", target_accuracy=1e-8)
        concrete = cfg.resolved(11)
        assert concrete.num_moduli == 11
        assert not concrete.moduli_is_auto
        assert concrete.target_accuracy == 1e-8

    def test_rejects_unknown_string(self):
        with pytest.raises(ConfigurationError, match="num_moduli"):
            Ozaki2Config(num_moduli="automatic")

    @pytest.mark.parametrize(
        "bad, degenerate_class",
        [
            (0.0, "zero or negative"),
            (-0.5, "zero or negative"),
            (1.0, "no accuracy at all"),
            (float("nan"), "NaN"),
            (float("inf"), "infinite"),
            (float("-inf"), "infinite"),
        ],
    )
    def test_rejects_degenerate_target_accuracy(self, bad, degenerate_class):
        # Degenerate targets are a *validation* failure (caller handed a
        # nonsensical value) and the message names the degenerate class —
        # a NaN reaching the selection math would silently fail every
        # comparison, a zero would clamp to MAX_MODULI "by accident".
        with pytest.raises(ValidationError, match="target_accuracy") as exc:
            Ozaki2Config(target_accuracy=bad)
        assert degenerate_class in str(exc.value)

    def test_fixed_configs_unchanged(self):
        cfg = Ozaki2Config(num_moduli=14)
        assert cfg.num_moduli == 14 and not cfg.moduli_is_auto


class TestMeasuredErrorWithinBound:
    @pytest.mark.parametrize("phi", [0.5, 2.0])
    @pytest.mark.parametrize("num_moduli", [6, 10, 14])
    def test_fast_mode_bound_holds(self, phi, num_moduli):
        from repro.accuracy import reference_gemm
        from repro.core.gemm import ozaki2_gemm
        from repro.workloads import phi_pair

        a, b = phi_pair(64, 48, 56, phi=phi, seed=3)
        c = ozaki2_gemm(a, b, Ozaki2Config(num_moduli=num_moduli))
        err = float(np.max(np.abs(c - reference_gemm(a, b))))
        bound = elementwise_error_bound(
            48, float(np.max(np.abs(a))), float(np.max(np.abs(b))), num_moduli, 64
        )
        assert err <= bound

    def test_accurate_mode_bound_holds(self):
        from repro.accuracy import reference_gemm
        from repro.core.gemm import ozaki2_gemm
        from repro.workloads import phi_pair

        a, b = phi_pair(48, 64, 40, phi=1.0, seed=5)
        c = ozaki2_gemm(a, b, Ozaki2Config(num_moduli=9, mode="accurate"))
        err = float(np.max(np.abs(c - reference_gemm(a, b))))
        bound = elementwise_error_bound(
            64,
            float(np.max(np.abs(a))),
            float(np.max(np.abs(b))),
            9,
            64,
            mode="accurate",
        )
        assert err <= bound
