"""Tests for the conclusion's extensions (dd / mixed GEMM), the LU app
and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy import max_relative_error, reference_gemm
from repro.apps import blocked_lu, lu_backward_error, lu_with_method
from repro.cli import main as cli_main
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.errors import ConfigurationError, ValidationError
from repro.extensions import dd_gemm, mixed_gemm
from repro.workloads import phi_pair


class TestDdGemm:
    def test_more_accurate_than_fp64_gemm(self):
        a, b = phi_pair(24, 64, 20, phi=0.5, seed=1)
        ref = reference_gemm(a, b)
        hi, lo = dd_gemm(a, b)
        dd_err = max_relative_error(hi + lo, ref)
        # hi alone should already be at FP64 level; hi+lo matches the
        # reference to the last bit of float64.
        fp64_err = max_relative_error(a @ b, ref)
        assert dd_err <= fp64_err
        assert dd_err <= 1e-15

    def test_lo_part_is_small_correction(self):
        a, b = phi_pair(16, 32, 12, phi=0.5, seed=2)
        hi, lo = dd_gemm(a, b)
        nonzero = hi != 0
        assert np.all(np.abs(lo[nonzero]) <= np.abs(hi[nonzero]) * 2.0**-50)

    def test_captures_beyond_fp64_bits(self):
        # Product whose exact value needs more than 53 bits: (2^30 + 1)^2.
        a = np.array([[2.0**30 + 1.0]])
        b = np.array([[2.0**30 + 1.0]])
        hi, lo = dd_gemm(a, b, num_slices=16)
        exact = (2**30 + 1) ** 2
        assert int(hi[0, 0]) + int(lo[0, 0]) == exact

    def test_fewer_slices_lower_precision(self):
        a, b = phi_pair(16, 32, 12, phi=0.5, seed=3)
        ref = reference_gemm(a, b)
        err_few = max_relative_error(sum(dd_gemm(a, b, num_slices=6)), ref)
        err_many = max_relative_error(sum(dd_gemm(a, b, num_slices=16)), ref)
        assert err_many <= err_few

    def test_invalid_slices(self):
        with pytest.raises(ConfigurationError):
            dd_gemm(np.ones((2, 2)), np.ones((2, 2)), num_slices=2)


class TestMixedGemm:
    def test_fp32_times_fp64(self):
        a64, b64 = phi_pair(24, 48, 20, phi=0.5, seed=4)
        a32 = a64.astype(np.float32)
        ref = reference_gemm(a32.astype(np.float64), b64)
        c = mixed_gemm(a32, b64, "fp32", "fp64")
        assert c.dtype == np.float64
        assert max_relative_error(c, ref) < 1e-9

    def test_fp16_times_fp32_targets_fp32(self):
        a, b = phi_pair(20, 40, 16, phi=0.5, precision="fp32", seed=5)
        c = mixed_gemm(a, b, "fp16", "fp32")
        assert c.dtype == np.float32
        # the reference must also see the FP16-rounded A
        from repro.formats.lowprec import round_to_fp16

        ref = reference_gemm(round_to_fp16(a).astype(np.float64), b.astype(np.float64))
        assert max_relative_error(c, ref) < 1e-3

    def test_explicit_output_format_and_moduli(self):
        a, b = phi_pair(16, 32, 12, phi=0.5, seed=6)
        c = mixed_gemm(a, b, "fp64", "fp64", out_format="fp32", num_moduli=8)
        assert c.dtype == np.float32

    def test_invalid_formats(self):
        with pytest.raises(ConfigurationError):
            mixed_gemm(np.ones((2, 2)), np.ones((2, 2)), "int8", "fp64")
        with pytest.raises(ConfigurationError):
            mixed_gemm(np.ones((2, 2)), np.ones((2, 2)), "fp64", "fp64", out_format="fp16")

    def test_default_moduli_keep_native_accuracy(self):
        # Section 5.1's phi = 0.5, k = 1024 setting: the default 15 / 8
        # moduli reach native DGEMM / SGEMM accuracy.
        a, b = phi_pair(64, 1024, 64, phi=0.5, seed=10)
        ref = reference_gemm(a, b)
        c = mixed_gemm(a, b, "fp64", "fp64")
        assert max_relative_error(c, ref) <= 10 * max_relative_error(a @ b, ref)
        a32, b32 = a.astype(np.float32), b.astype(np.float32)
        ref32 = reference_gemm(a32, b32)
        c32 = mixed_gemm(a32, b32, "fp32", "fp32")
        assert c32.dtype == np.float32
        native32 = np.matmul(a32, b32, dtype=np.float32)
        assert max_relative_error(c32, ref32) <= max_relative_error(native32, ref32)

    def test_auto_moduli_pass_through(self):
        a, b = phi_pair(16, 32, 12, phi=0.5, seed=6)
        want = ozaki2_gemm(a, b, Ozaki2Config(num_moduli="auto"))
        assert np.array_equal(mixed_gemm(a, b, "fp64", "fp64", num_moduli="auto"), want)


class TestLuApp:
    def test_native_lu_small_backward_error(self, rng):
        a = rng.standard_normal((96, 96))
        p, lower, upper = blocked_lu(a, block=32)
        assert lu_backward_error(a, p, lower, upper) < 1e-13
        # L unit lower triangular, U upper triangular.
        assert np.allclose(np.diag(lower), 1.0)
        assert np.allclose(np.triu(lower, 1), 0.0)
        assert np.allclose(np.tril(upper, -1), 0.0)

    def test_emulated_lu_matches_native(self, rng):
        a = rng.standard_normal((80, 80))
        err_native, _ = lu_with_method(a, method="DGEMM", block=32)
        err_emulated, _ = lu_with_method(a, method="OS II-fast-15", block=32)
        assert err_emulated < 10 * max(err_native, 1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            blocked_lu(np.ones((4, 6)))

    def test_singular_detected(self):
        with pytest.raises(ValidationError):
            blocked_lu(np.zeros((8, 8)), block=4)

    def test_pivoting_permutes_rows(self, rng):
        a = rng.standard_normal((40, 40))
        a[[0, 20], :] = a[[20, 0], :]
        p, lower, upper = blocked_lu(a, block=16, pivot=True)
        assert lu_backward_error(a, p, lower, upper) < 1e-13
        assert not np.array_equal(p, np.eye(40)) or True  # permutation may or may not be identity


class TestCli:
    def test_figures_subcommand(self, capsys):
        assert cli_main(["figures", "--only", "1,headline"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Headline claims" in out

    def test_figures_unknown_id(self, capsys):
        assert cli_main(["figures", "--only", "42"]) == 2

    def test_accuracy_subcommand(self, capsys):
        code = cli_main(
            [
                "accuracy",
                "--methods",
                "DGEMM,OS II-fast-12",
                "--phi",
                "0.5",
                "--k",
                "64",
                "--m",
                "32",
                "--n",
                "24",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "OS II-fast-12" in out

    def test_throughput_subcommand(self, capsys):
        assert cli_main(["throughput", "--sizes", "1024", "--gpus", "GH200"]) == 0
        assert "GH200" in capsys.readouterr().out

    def test_run_subcommand_with_prepared_a(self, capsys):
        code = cli_main(
            ["run", "--size", "48", "--batch", "3", "--prepare-a", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prepared=A" in out
        assert "max_rel_error" in out

    def test_run_subcommand_with_prepared_both(self, capsys):
        assert cli_main(["run", "--size", "32", "--batch", "2", "--prepare-a", "--prepare-b"]) == 0
        assert "prepared=AB" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--size", "32", "--parallel", "-2"],
            ["run", "--size", "32", "--memory-budget-mb", "0"],
            ["run", "--size", "32", "--memory-budget-mb", "-1.5"],
        ],
    )
    def test_run_invalid_runtime_knobs_exit_nonzero_one_line(self, argv, capsys):
        """Invalid knobs must produce a one-line error and a non-zero exit,
        not a traceback."""
        code = cli_main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_solve_subcommand_jacobi(self, capsys):
        code = cli_main(["solve", "--solver", "jacobi", "--size", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "jacobi(OS II-fast-15)" in out
        assert "converged            True" in out

    def test_solve_subcommand_cg(self, capsys):
        code = cli_main(
            ["solve", "--solver", "cg", "--size", "32", "--tol", "1e-8", "--moduli", "12"]
        )
        assert code == 0
        assert "cg(OS II-fast-12)" in capsys.readouterr().out

    def test_solve_subcommand_ir(self, capsys):
        assert cli_main(["solve", "--solver", "ir", "--size", "40"]) == 0
        assert "ir(" in capsys.readouterr().out

    def test_solve_positional_solver_form(self, capsys):
        code = cli_main(["solve", "cg", "--size", "32", "--tol", "1e-8"])
        assert code == 0
        assert "cg(OS II-fast-15)" in capsys.readouterr().out

    def test_solve_cg_with_ilu0_precond(self, capsys):
        code = cli_main(["solve", "cg", "--precond", "ilu0", "--size", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pcg+ilu0(OS II-fast-15)" in out
        assert "precondition once" in out

    def test_solve_pcg_defaults_to_ilu0_on_ill_conditioned_family(self, capsys):
        code = cli_main(["solve", "pcg", "--size", "48"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pcg+ilu0(OS II-fast-15)" in out
        assert "ill_spd" in out

    def test_solve_jacobi_with_ssor_precond(self, capsys):
        code = cli_main(
            ["solve", "jacobi", "--size", "48", "--precond", "ssor", "--omega", "1.2"]
        )
        assert code == 0
        assert "jacobi+ssor(OS II-fast-15)" in capsys.readouterr().out

    def test_solve_fp32_default_tolerance_is_reachable(self, capsys):
        """fp32 emulation has a ~1e-7 residual floor; the default tolerance
        must scale with the precision so fp32 solves can succeed."""
        code = cli_main(["solve", "--solver", "jacobi", "--size", "48",
                         "--precision", "fp32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged            True" in out
        assert "tol 1.0e-05" in out

    def test_solve_non_convergence_exits_nonzero(self, capsys):
        code = cli_main(
            ["solve", "--solver", "jacobi", "--size", "48", "--max-iter", "1",
             "--tol", "1e-15"]
        )
        assert code == 1
        assert "did not reach" in capsys.readouterr().err

    def test_gemm_subcommand(self, tmp_path, capsys, rng):
        a = rng.standard_normal((12, 16))
        b = rng.standard_normal((16, 8))
        pa, pb, pc = tmp_path / "a.npy", tmp_path / "b.npy", tmp_path / "c.npy"
        np.save(pa, a)
        np.save(pb, b)
        code = cli_main(
            ["gemm", str(pa), str(pb), "--method", "OS II-fast-14", "--out", str(pc), "--check"]
        )
        assert code == 0
        saved = np.load(pc)
        assert np.allclose(saved, a @ b, rtol=1e-8)
        assert "max relative error" in capsys.readouterr().out
