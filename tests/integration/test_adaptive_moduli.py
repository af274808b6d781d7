"""Integration tests of the adaptive-moduli subsystem.

Covers the wiring the unit/property suites do not: per-item selection in
the batched runtime, the engine ledger's per-call moduli histogram, the
progressive solver ladder, prepared-operand re-derivation corner cases,
the accumulation workspace cache, the parallelism="auto" clamp, the cost
model's predicted savings, and the CLI surfaces.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import algorithm1_oracle as oracle
from repro.apps.solvers import (
    cg_solve,
    iterative_refinement_solve,
    jacobi_solve,
)
from repro.cli import main
from repro.config import MAX_MODULI, Ozaki2Config
from repro.core.accumulation import accumulate_residue_products
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import ResidueOperand, prepare_a
from repro.crt.constants import build_constant_table
from repro.engines.base import OpCounter
from repro.engines.int8 import Int8MatrixEngine
from repro.errors import ConfigurationError
from repro.perfmodel import adaptive_moduli_savings
from repro.runtime import ozaki2_gemm_batched
from repro.workloads import linear_system, phi_pair


AUTO = Ozaki2Config(num_moduli="auto")


class TestBatchedAuto:
    def test_per_item_selection_mixed_shapes(self):
        a1, b1 = phi_pair(48, 16, 40, phi=0.5, seed=0)
        a2, b2 = phi_pair(32, 300, 24, phi=0.5, seed=1)
        results = ozaki2_gemm_batched(
            [a1, a2], [b1, b2], config=AUTO, return_details=True
        )
        counts = [r.config.num_moduli for r in results]
        assert all(2 <= c <= MAX_MODULI for c in counts)
        # Each item must be bitwise the fixed-count run at its own count.
        for (a, b), result in zip([(a1, b1), (a2, b2)], results, strict=True):
            fixed = ozaki2_gemm(a, b, Ozaki2Config(num_moduli=result.config.num_moduli))
            assert np.array_equal(result.value, fixed)
        # Per-item ledgers carry the per-call count histogram.
        for result in results:
            assert result.ledger.emulated_calls == {result.config.num_moduli: 1}

    def test_same_object_aliasing_still_shares_conversion(self):
        a, b = phi_pair(40, 24, 40, phi=0.5, seed=2)
        results = ozaki2_gemm_batched([a, a], [b, b], config=AUTO, return_details=True)
        assert np.array_equal(results[0].value, results[1].value)
        # The aliased item reports a zero-cost convert phase.
        assert results[1].phase_times.seconds["convert_A"] == 0.0

    def test_prepared_sides_in_auto_batch(self):
        a, b1 = phi_pair(40, 24, 32, phi=0.5, seed=3)
        b2 = phi_pair(40, 24, 32, phi=0.5, seed=4)[1]
        prep = prepare_a(a, config=AUTO)
        results = ozaki2_gemm_batched([prep, prep], [b1, b2], config=AUTO)
        loop = [ozaki2_gemm(a, bx, config=AUTO) for bx in (b1, b2)]
        assert all(np.array_equal(x, y) for x, y in zip(results, loop, strict=True))


class TestEmulatedLedger:
    def test_gemm_and_gemv_routes_record_identically(self):
        a, b = phi_pair(32, 20, 1, phi=0.5, seed=5)
        prep = prepare_a(a)
        gemm_engine, gemv_engine = Int8MatrixEngine(), Int8MatrixEngine()
        ozaki2_gemm(prep, b, engine=gemm_engine)
        prepared_gemv(prep, b[:, 0], engine=gemv_engine)
        assert gemm_engine.counter.emulated_calls == {15: 1}
        assert gemm_engine.counter == gemv_engine.counter

    def test_counter_dict_arithmetic(self):
        first, second = OpCounter(), OpCounter()
        first.record_emulated(15, count=2)
        second.record_emulated(15)
        second.record_emulated(10)
        merged = first.merge(second)
        assert merged.emulated_calls == {15: 3, 10: 1}
        delta = merged.difference(first)
        assert delta.emulated_calls == {15: 1, 10: 1}
        snapshot = merged.copy()
        snapshot.record_emulated(15)
        assert merged.emulated_calls == {15: 3, 10: 1}  # copy is independent
        merged.reset()
        assert merged.emulated_calls == {}

    def test_ledger_equals_oracle_ledger(self):
        a, b = phi_pair(24, 16, 24, phi=0.5, seed=6)
        engine = Int8MatrixEngine()
        ozaki2_gemm(a, b, Ozaki2Config(), engine=engine)
        assert engine.counter == oracle.gemm(a, b, Ozaki2Config())[1]


class TestProgressiveSolvers:
    def test_progressive_cg_matches_residual_check(self):
        a, b, _ = linear_system(96, kind="ill_spd", cond=1e3, seed=0)
        fixed = cg_solve(a, b, tol=1e-8)
        prog = cg_solve(a, b, tol=1e-8, progressive=True)
        assert fixed.converged and prog.converged
        assert prog.residual_norm <= 1e-8
        assert prog.method.startswith("cg-prog(")
        # Ladder invariants: non-descending, ends at the full count, and
        # the convergence claim came from a full-count iteration.
        assert prog.moduli_history == sorted(prog.moduli_history)
        assert prog.moduli_history[-1] == fixed.moduli_history[-1] == 15
        assert len(prog.moduli_history) == prog.iterations

    def test_progressive_jacobi_and_ir(self):
        a, b, x_true = linear_system(64, kind="diag_dominant", seed=1)
        jac = jacobi_solve(a, b, tol=1e-10, progressive=True)
        assert jac.converged and jac.moduli_history[-1] == 15
        assert np.allclose(jac.value, x_true, atol=1e-6)
        ir = iterative_refinement_solve(a, b, progressive=True)
        assert ir.converged and ir.moduli_history[-1] == 15

    def test_plain_solves_record_constant_history(self):
        a, b, _ = linear_system(48, kind="spd", seed=2)
        result = cg_solve(a, b, tol=1e-8)
        assert set(result.moduli_history) == {15}
        assert "prog" not in result.method

    def test_progressive_with_auto_full_count(self):
        a, b, _ = linear_system(48, kind="spd", seed=3)
        result = cg_solve(
            a, b, tol=1e-8, config=Ozaki2Config(num_moduli="auto"), progressive=True
        )
        assert result.converged
        # The full count is the auto selection, and the ladder tops out there.
        assert result.moduli_history[-1] == int(result.method.split("-")[-1].rstrip(")"))


class TestResolveFor:
    def test_widening_is_supported(self):
        a = phi_pair(24, 16, 8, phi=0.5, seed=7)[0]
        prep = prepare_a(a, config=Ozaki2Config(num_moduli=8))
        widened = prep.resolve_for(14)
        fresh = prepare_a(a, config=Ozaki2Config(num_moduli=14))
        assert np.array_equal(widened.slices, fresh.slices)
        assert np.array_equal(widened.scale_exp, fresh.scale_exp)

    def test_cache_returns_same_object(self):
        a = phi_pair(16, 12, 8, phi=0.5, seed=8)[0]
        prep = prepare_a(a)
        assert prep.resolve_for(15) is prep
        derived = prep.resolve_for(10)
        assert prep.resolve_for(10) is derived
        # The cache is shared across derivations of the same source.
        assert derived.resolve_for(15) is not None

    def test_hand_constructed_operand_cannot_re_derive(self):
        a = phi_pair(12, 10, 8, phi=0.5, seed=9)[0]
        prep = prepare_a(a)
        bare = ResidueOperand(
            side="A", scale_exp=prep.scale_exp, slices=prep.slices, config=prep.config
        )
        with pytest.raises(ConfigurationError, match="re-derived"):
            bare.resolve_for(10)
        # ... and auto selection against it fails with a clear message.
        with pytest.raises(Exception, match="max-abs"):
            ozaki2_gemm(bare, phi_pair(12, 10, 8, seed=9)[1], config=AUTO)

    def test_operand_config_must_be_concrete(self):
        a = phi_pair(12, 10, 8, phi=0.5, seed=10)[0]
        prep = prepare_a(a)
        with pytest.raises(ConfigurationError, match="concrete"):
            ResidueOperand(
                side="A", scale_exp=prep.scale_exp, slices=prep.slices, config=AUTO
            )

    def test_fixed_count_mismatch_still_rejected(self):
        a, b = phi_pair(12, 10, 8, phi=0.5, seed=11)
        prep = prepare_a(a, config=Ozaki2Config(num_moduli=10))
        with pytest.raises(ConfigurationError, match="num_moduli"):
            ozaki2_gemm(prep, b, config=Ozaki2Config(num_moduli=12))


class TestAccumulationWorkspace:
    def test_workspace_reuse_is_value_safe(self):
        table = build_constant_table(6, 64)
        rng = np.random.default_rng(0)
        stacks = [
            rng.integers(-(2**20), 2**20, size=(6, 9, 7)).astype(np.int64)
            for _ in range(3)
        ]
        got = [accumulate_residue_products(s, table) for s in stacks]
        reference = [oracle.accumulate(list(s), table) for s in stacks]
        for (c1v, c2v), (c1r, c2r) in zip(got, reference, strict=True):
            assert np.array_equal(c1v, c1r)
            assert np.array_equal(c2v, c2r)

    def test_shapes_do_not_cross_contaminate(self):
        table = build_constant_table(4, 64)
        small = np.ones((4, 2, 3), dtype=np.int64)
        large = 7 * np.ones((4, 5, 5), dtype=np.int64)
        c1_small_first, _ = accumulate_residue_products(small, table)
        accumulate_residue_products(large, table)
        c1_small_again, _ = accumulate_residue_products(small, table)
        assert np.array_equal(c1_small_first, c1_small_again)


class TestParallelismAuto:
    def test_auto_clamps_to_cpu_count(self):
        import os

        assert Ozaki2Config(parallelism="auto").parallelism == max(
            1, os.cpu_count() or 1
        )

    def test_oversubscription_warns(self):
        import os

        workers = (os.cpu_count() or 1) + 123
        with pytest.warns(RuntimeWarning, match="over-subscribes"):
            Ozaki2Config(parallelism=workers)
        # Deduplication is the warnings module's default per-call-site
        # behaviour, so standard filters keep full control.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            Ozaki2Config(parallelism=workers)
            Ozaki2Config(parallelism=workers)
        assert len([w for w in caught if issubclass(w.category, RuntimeWarning)]) == 2

    def test_oversubscription_warning_names_the_caller(self):
        import os

        workers = (os.cpu_count() or 1) + 7
        constructions = (
            lambda: Ozaki2Config(parallelism=workers),
            lambda: Ozaki2Config().replace(parallelism=workers),
            lambda: Ozaki2Config.for_dgemm(parallelism=workers),
        )
        for construct in constructions:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                construct()
            assert [w.filename for w in caught] == [__file__]

    def test_bad_string_rejected(self):
        with pytest.raises(ConfigurationError, match="parallelism"):
            Ozaki2Config(parallelism="many")


class TestCostModelSavings:
    def test_predicted_savings_monotone(self):
        saving = adaptive_moduli_savings(256, 32, 256, 15, 10)
        assert saving["predicted_ops_speedup"] > 1.0
        assert saving["predicted_bytes_speedup"] > 1.0
        equal = adaptive_moduli_savings(256, 32, 256, 15, 15)
        assert equal["predicted_ops_speedup"] == pytest.approx(1.0)


class TestCli:
    def test_run_moduli_auto(self, capsys):
        assert main(["run", "--size", "48", "--moduli", "auto", "--check"]) == 0
        out = capsys.readouterr().out
        assert "OS II-fast-" in out

    def test_run_rejects_bad_moduli(self):
        with pytest.raises(SystemExit):
            main(["run", "--size", "32", "--moduli", "lots"])

    def test_solve_progressive_cg(self, capsys):
        code = main(
            ["solve", "cg", "--size", "64", "--progressive", "--tol", "1e-8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "moduli schedule" in out

    def test_solve_auto_moduli(self, capsys):
        assert main(["solve", "jacobi", "--size", "48", "--moduli", "auto"]) == 0
        out = capsys.readouterr().out
        assert "OS II-fast-" in out
