"""Unit tests for the CLI parser and assorted small behaviours not covered
by the module-specific suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser
from repro.core.gemm import PHASE_KEYS, PhaseTimes
from repro.perfmodel.breakdown import PHASE_ORDER
from repro.perfmodel.costmodel import method_cost
from repro.types import FP32


class TestCliParser:
    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert args.only is None
        assert args.full is False

    def test_accuracy_defaults(self):
        args = build_parser().parse_args(["accuracy"])
        assert args.precision == "fp64"
        assert args.m == 256 and args.n == 256

    def test_throughput_custom_args(self):
        args = build_parser().parse_args(
            ["throughput", "--gpus", "GH200", "--sizes", "2048", "--target", "fp32"]
        )
        assert args.gpus == "GH200"
        assert args.target == "fp32"

    def test_gemm_requires_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gemm"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_selection_model_flag(self):
        args = build_parser().parse_args(["run", "--moduli", "auto"])
        assert args.selection_model == "calibrated"
        args = build_parser().parse_args(
            ["run", "--moduli", "auto", "--selection-model", "rigorous"]
        )
        assert args.selection_model == "rigorous"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--selection-model", "vibes"])


class TestCliErrorExit:
    @pytest.mark.parametrize("bad", ["0", "-1e-3", "nan", "inf"])
    def test_degenerate_target_is_one_line_error_exit_2(self, bad, capsys):
        # A degenerate target must not traceback: main() maps ReproError
        # to a single stderr line and exit code 2 (scriptable failure).
        from repro.cli import main

        code = main(["run", "--moduli", "auto", f"--target-accuracy={bad}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "target_accuracy" in captured.err
        assert len(captured.err.strip().splitlines()) == 1


class TestPhaseNamingConsistency:
    def test_cost_model_phases_subset_of_breakdown_order(self):
        """Every phase name the cost model emits must be known to the
        breakdown renderer, for every method family."""
        for method, target in (
            ("DGEMM", "fp64"),
            ("TF32GEMM", FP32),
            ("BF16x9", FP32),
            ("cuMpSGEMM", FP32),
            ("ozIMMU_EF-8", "fp64"),
            ("OS II-fast-12", "fp64"),
            ("OS II-accu-8", FP32),
        ):
            cost = method_cost(method, 64, 64, 64, target=target)
            for phase in cost.phases:
                assert phase.name in PHASE_ORDER

    def test_algorithm_phase_keys_match_breakdown_order(self):
        """The wall-clock phase keys of the implementation appear in the
        model's display order, so CPU and modelled breakdowns line up."""
        for key in PHASE_KEYS:
            assert key in PHASE_ORDER

    def test_phase_times_accepts_unknown_key(self):
        times = PhaseTimes()
        times.add("custom", 1.0)
        assert times.seconds["custom"] == 1.0
        assert times.total == pytest.approx(sum(times.seconds.values()))


class TestOzaki2ResultDiagnostics:
    def test_counters_scale_linearly_with_moduli(self, rng):
        from repro import Ozaki2Config
        from repro.core.gemm import ozaki2_gemm

        a = rng.standard_normal((24, 40))
        b = rng.standard_normal((40, 16))
        small = ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(8), return_details=True)
        large = ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(16), return_details=True)
        assert large.ledger.mac_ops == 2 * small.ledger.mac_ops
        assert large.ledger.matmul_calls == 2 * small.ledger.matmul_calls

    def test_mu_nu_are_powers_of_two(self, rng):
        from repro.core.gemm import ozaki2_gemm

        a = rng.standard_normal((12, 20)) * 1e5
        b = rng.standard_normal((20, 8)) * 1e-5
        result = ozaki2_gemm(a, b, return_details=True)
        # The scales are carried as integer exponents: 2**e is a power of
        # two by construction, and representable for these magnitudes.
        for exps in (result.mu_exp, result.nu_exp):
            assert exps.dtype == np.intc
            mantissa, _ = np.frexp(np.ldexp(1.0, exps))
            assert np.all(mantissa == 0.5)
