"""Tests for the experiment sweeps and per-figure entry points.

Accuracy-bearing figures are exercised at tiny sizes; the assertions check
the *relationships* the paper reports (orderings, crossovers, phase
behaviour), not absolute numbers.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import (
    accuracy_sweep,
    breakdown_sweep,
    cpu_wallclock_sweep,
    gemv_line6_sweep,
    gemv_route_sweep,
    power_sweep,
    preconditioner_sweep,
    prepared_reuse_sweep,
    throughput_sweep,
)
from repro.harness.figures import (
    EVAL_GPUS,
    FigureResult,
    figure1,
    figure4,
    figure5,
    figure6,
    figure8,
    headline_claims,
)


class TestSweeps:
    def test_accuracy_sweep_rows(self):
        rows = accuracy_sweep(
            methods=("DGEMM", "OS II-fast-12"),
            phis=(0.5,),
            ks=(64,),
            m=48,
            n=40,
            precision="fp64",
            seed=0,
        )
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"precision", "phi", "m", "k", "n", "method", "max_rel_error"}
            assert row["max_rel_error"] >= 0

    def test_throughput_sweep_rows(self):
        rows = throughput_sweep(("DGEMM", "OS II-fast-15"), ("GH200",), (1024, 8192))
        assert len(rows) == 4
        assert all(row["tflops"] > 0 for row in rows)

    def test_power_sweep_rows(self):
        rows = power_sweep(("SGEMM", "OS II-fast-8"), ("A100",), (4096,), target="fp32")
        assert len(rows) == 2
        assert all(row["gflops_per_watt"] > 0 for row in rows)

    def test_breakdown_sweep_fractions(self):
        rows = breakdown_sweep(("OS II-fast-15",), ("GH200",), (2048,))
        total = sum(row["fraction"] for row in rows)
        assert total == pytest.approx(1.0)

    def test_cpu_wallclock_sweep(self):
        rows = cpu_wallclock_sweep(("DGEMM", "OS II-fast-8"), (64,), target="fp64")
        assert len(rows) == 2
        assert all(row["seconds"] > 0 and row["effective_gflops"] > 0 for row in rows)

    def test_prepared_reuse_sweep(self):
        rows = prepared_reuse_sweep(
            48, reuse_counts=(1, 3), num_moduli=8, repeats=1
        )
        assert [row["reuse"] for row in rows] == [1, 3]
        for row in rows:
            assert row["bit_identical"]
            assert row["seconds_prepared"] > 0 and row["seconds_unprepared"] > 0
            assert row["amortised_prepared"] == pytest.approx(
                row["seconds_prepared"] / row["reuse"]
            )
            assert row["method"] == "OS II-fast-8"

    def test_gemv_route_sweep(self):
        rows = gemv_route_sweep(48, num_moduli=8, iters=2, repeats=1)
        assert [row["route"] for row in rows] == ["gemm-n1", "gemv-fast"]
        for row in rows:
            assert row["bit_identical"] and row["ledger_equal"]
            assert row["per_iter_seconds"] == pytest.approx(
                row["seconds_total"] / row["iters"]
            )
            assert row["method"] == "OS II-fast-8"
            # Every phase key of the GEMM breakdown is attached.
            assert {f"phase_{k}" for k in ("scale", "matmul", "unscale")} <= set(row)
        gemm_row = rows[0]
        assert gemm_row["speedup_vs_gemm"] == pytest.approx(1.0)

    def test_gemv_line6_sweep(self):
        rows = gemv_line6_sweep([24], cases=(("fp64", 10), ("fp64", 15), ("fp32", 8)),
                                iters=2, repeats=1)
        assert [(row["precision"], row["method"]) for row in rows] == [
            ("fp64", "OS II-fast-10"), ("fp64", "OS II-fast-15"), ("fp32", "OS II-fast-8")
        ]
        assert [row["fp64_route"] for row in rows] == [True, False, True]
        assert [row["digits"] for row in rows] == [4, 0, 2]
        assert [row["panel_rows"] for row in rows] == [0, 0, 0]
        for row in rows:
            assert row["bit_identical"] and row["ledger_equal"]
            assert row["speedup"] == pytest.approx(row["int8_ms"] / row["fp64_ms"])

    def test_preconditioner_sweep(self):
        rows = preconditioner_sweep(size=32, kinds=("none", "ilu0"), cond=1e2)
        by_kind = {row["precond"]: row for row in rows}
        assert set(by_kind) == {"none", "ilu0"}
        assert all(row["converged"] for row in rows)
        assert by_kind["ilu0"]["iterations"] < by_kind["none"]["iterations"]
        assert by_kind["none"]["iters_vs_cg"] == pytest.approx(1.0)


class TestFigureEntryPoints:
    def test_figure1_contains_eval_gpus_and_trend(self):
        result = figure1()
        assert isinstance(result, FigureResult)
        names = {row["gpu"] for row in result.rows}
        assert {"A100", "H100", "RTX5080"} <= names
        # INT8:FP64 ratio grows over the NVIDIA datacentre generations.
        by_name = {row["gpu"]: row for row in result.rows}
        assert by_name["H100"]["int8_tops"] > by_name["A100"]["int8_tops"] > by_name["V100"]["int8_tops"]
        assert "Figure 1" in result.render()

    def test_figure4_dgemm_crossover_on_gh200(self):
        result = figure4(quick=True, gpus=("GH200",))
        rows = {(r["method"], r["n"]): r["tflops"] for r in result.rows}
        # Small n: native DGEMM wins; large n: OS II-fast-14 wins (Figure 4).
        assert rows[("DGEMM", 1024)] > rows[("OS II-fast-14", 1024)]
        assert rows[("OS II-fast-14", 16384)] > rows[("DGEMM", 16384)]
        # OS II beats ozIMMU at every size shown.
        for n in (1024, 4096, 16384):
            assert rows[("OS II-fast-14", n)] > rows[("ozIMMU_EF-9", n)]

    def test_figure5_sgemm_ordering_on_gh200(self):
        result = figure5(quick=True, gpus=("GH200",))
        rows = {(r["method"], r["n"]): r["tflops"] for r in result.rows}
        n = 16384
        # OS II sits between SGEMM and TF32GEMM (Section 5.2).
        assert rows[("SGEMM", n)] < rows[("OS II-fast-8", n)] < rows[("TF32GEMM", n)]
        # Speedup over SGEMM in the paper's 2.3-3.0x ballpark (allow 1.5-4x).
        speedup = rows[("OS II-fast-8", n)] / rows[("SGEMM", n)]
        assert 1.5 < speedup < 4.0

    def test_figure6_matmul_fraction_grows(self):
        result = figure6(quick=True, gpus=("GH200",))
        fast_rows = [r for r in result.rows if r["method"] == "OS II-fast-15" and r["phase"] == "matmul"]
        by_n = {r["n"]: r["fraction"] for r in fast_rows}
        assert by_n[16384] > by_n[1024]

    def test_figure8_power_ordering(self):
        result = figure8(quick=True, gpus=("GH200",))
        rows = {(r["method"], r["n"]): r["gflops_per_watt"] for r in result.rows}
        n = 16384
        assert rows[("OS II-fast-15", n)] > rows[("DGEMM", n)] > rows[("ozIMMU_EF-9", n)]

    def test_headline_claims_match_paper_bands(self):
        result = headline_claims()
        dgemm_rows = [r for r in result.rows if r["claim"].startswith("DGEMM")]
        sgemm_rows = [r for r in result.rows if r["claim"].startswith("SGEMM")]
        # Paper: ~1.4x DGEMM speedup, +20-43% power; allow generous bands.
        best_dgemm = max(r["speedup_vs_native"] for r in dgemm_rows)
        assert 1.1 < best_dgemm < 2.0
        assert any(0.1 < r["power_gain_vs_native"] < 1.0 for r in dgemm_rows)
        # Paper: >2x vs prior emulation.
        assert all(r["speedup_vs_prior"] > 2.0 for r in dgemm_rows)
        # Paper: 2.3-3.0x SGEMM speedup, +103-154% power; allow 1.5-4x / 0.5-4.
        best_sgemm = max(r["speedup_vs_native"] for r in sgemm_rows)
        assert 1.5 < best_sgemm < 4.0
        assert any(0.5 < r["power_gain_vs_native"] < 4.0 for r in sgemm_rows)

    def test_eval_gpu_tuple(self):
        assert EVAL_GPUS == ("A100", "GH200", "RTX5080")
