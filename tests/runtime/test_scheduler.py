"""Tests for the worker-pool scheduler: determinism, clones, ledger merging."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Ozaki2Config
from repro.core.gemm import PhaseTimes, ozaki2_gemm
from repro.engines.base import OpCounter
from repro.engines.int8 import Int8MatrixEngine
from repro.runtime.plan import build_plan
from repro.runtime.scheduler import Scheduler, execute_plan
from repro.workloads import phi_pair


class TestEngineClone:
    def test_clone_preserves_settings_fresh_counter(self):
        engine = Int8MatrixEngine(use_blas=False, strict_k=False)
        engine.matmul(np.ones((2, 3)), np.ones((3, 2)))
        clone = engine.clone()
        assert clone.use_blas is False
        assert clone.strict_k is False
        assert clone.counter.matmul_calls == 0
        assert engine.counter.matmul_calls == 1
        clone.matmul(np.ones((2, 3)), np.ones((3, 2)))
        assert engine.counter.matmul_calls == 1  # independent ledgers


class TestOpCounterArithmetic:
    def test_absorb_and_difference(self):
        a = OpCounter()
        a.record_matmul(4, 5, 6, in_bytes=1, out_bytes=4)
        snapshot = a.copy()
        b = OpCounter()
        b.record_matmul(2, 2, 2, in_bytes=1, out_bytes=4)
        b.record_elementwise(10, in_bytes=8, out_bytes=8)
        a.absorb(b)
        assert a.matmul_calls == 2
        assert a.mac_ops == 4 * 5 * 6 + 8
        assert a.elementwise_ops == 10
        delta = a.difference(snapshot)
        assert delta.as_dict() == b.as_dict()
        assert snapshot.matmul_calls == 1  # copy is independent


class TestSchedulerMap:
    def test_serial_map_uses_primary_engine(self):
        sched = Scheduler(parallelism=1)
        engines = sched.map(lambda eng, _: id(eng), range(4))
        assert set(engines) == {id(sched.engine)}
        assert not sched.is_parallel

    def test_parallel_map_preserves_order(self):
        with Scheduler(parallelism=4) as sched:
            out = sched.map(lambda eng, i: i * i, range(20))
        assert out == [i * i for i in range(20)]

    def test_parallel_counters_merge_to_serial_totals(self):
        a_s = np.ones((3, 4, 5), dtype=np.int8)
        b_s = np.ones((3, 5, 6), dtype=np.int8)

        def task(engine, i):
            return engine.matmul(a_s[i], b_s[i])

        with Scheduler(parallelism=3) as sched:
            sched.map(task, range(3))
            sched.merge_counters()
            assert sched.engine.counter.matmul_calls == 3
            assert sched.engine.counter.mac_ops == 3 * 4 * 6 * 5

    def test_merge_counters_idempotent(self):
        with Scheduler(parallelism=2) as sched:
            sched.map(
                lambda eng, i: eng.matmul(np.ones((2, 2)), np.ones((2, 2))), range(4)
            )
            sched.merge_counters()
            first = sched.engine.counter.matmul_calls
            sched.merge_counters()
            assert sched.engine.counter.matmul_calls == first == 4

    def test_closed_scheduler_rejects_work(self):
        sched = Scheduler(parallelism=2)
        sched.close()
        with pytest.raises(RuntimeError):
            sched.map(lambda eng, i: i, [1])


class TestExecutePlanDeterminism:
    @pytest.fixture
    def slices(self, rng):
        n_mod, m, k, n = 6, 24, 40, 20
        a_s = rng.integers(-100, 100, size=(n_mod, m, k)).astype(np.int8)
        b_s = rng.integers(-100, 100, size=(n_mod, k, n)).astype(np.int8)
        return a_s, b_s

    def _run(self, a_s, b_s, *, parallelism, memory_budget_mb=None, max_block_k=64):
        from repro.crt.constants import build_constant_table

        n_mod, m, k = a_s.shape
        n = b_s.shape[2]
        table = build_constant_table(n_mod, 64)
        plan = build_plan(
            m,
            k,
            n,
            n_mod,
            max_block_k=max_block_k,
            memory_budget_mb=memory_budget_mb,
            parallelism=parallelism,
        )
        times = PhaseTimes()
        with Scheduler(parallelism=parallelism) as sched:
            c_pp = execute_plan(sched, plan, a_s, b_s, table, times)
            calls = sched.engine.counter.matmul_calls
        return c_pp, times, calls, plan

    def test_parallel_bit_identical_to_serial(self, slices):
        a_s, b_s = slices
        serial, _, serial_calls, _ = self._run(a_s, b_s, parallelism=1)
        for workers in (2, 4, 8):
            parallel, _, calls, _ = self._run(a_s, b_s, parallelism=workers)
            np.testing.assert_array_equal(parallel, serial)
            assert calls == serial_calls

    def test_tiled_bit_identical_and_counts(self, slices):
        a_s, b_s = slices
        serial, _, _, _ = self._run(a_s, b_s, parallelism=1)
        tiled, _, calls, plan = self._run(
            a_s, b_s, parallelism=3, memory_budget_mb=0.003
        )
        np.testing.assert_array_equal(tiled, serial)
        assert plan.num_tiles > 1
        assert calls == plan.total_tasks

    def test_phase_times_populated(self, slices):
        a_s, b_s = slices
        _, times, _, _ = self._run(a_s, b_s, parallelism=2)
        assert times.seconds["matmul"] > 0.0
        assert times.seconds["accumulate"] > 0.0
        assert times.seconds["reconstruct"] > 0.0

    def test_shape_mismatch_rejected(self, slices):
        a_s, b_s = slices
        from repro.crt.constants import build_constant_table

        table = build_constant_table(a_s.shape[0], 64)
        plan = build_plan(99, a_s.shape[2], b_s.shape[2], a_s.shape[0])
        with Scheduler() as sched:
            with pytest.raises(ValueError):
                execute_plan(sched, plan, a_s, b_s, table)


class TestGemmLevelParallelism:
    def test_gemm_parallel_matches_serial_bitwise(self):
        a, b = phi_pair(48, 96, 40, phi=0.5, seed=21)
        serial = ozaki2_gemm(a, b, config=Ozaki2Config.for_dgemm(15, parallelism=1))
        # Worker counts must be explicit positives at the config level (the
        # CLI's --parallel 0 convenience maps to os.cpu_count() before this).
        for workers in (2, 3, 4):
            parallel = ozaki2_gemm(
                a, b, config=Ozaki2Config.for_dgemm(15, parallelism=workers)
            )
            np.testing.assert_array_equal(parallel, serial)

    def test_gemm_accurate_mode_parallel_matches_serial(self):
        a, b = phi_pair(32, 64, 28, phi=1.0, seed=22)
        config = Ozaki2Config.for_dgemm(12, mode="accurate")
        serial = ozaki2_gemm(a, b, config=config)
        parallel = ozaki2_gemm(a, b, config=config.replace(parallelism=4))
        np.testing.assert_array_equal(parallel, serial)

    def test_gemm_counter_same_under_parallelism(self):
        a, b = phi_pair(24, 48, 24, phi=0.5, seed=23)
        serial = ozaki2_gemm(
            a, b, config=Ozaki2Config.for_dgemm(9), return_details=True
        )
        parallel = ozaki2_gemm(
            a, b, config=Ozaki2Config.for_dgemm(9, parallelism=4), return_details=True
        )
        assert (
            parallel.ledger.as_dict() == serial.ledger.as_dict()
        )

    def test_external_scheduler_reuse(self):
        a, b = phi_pair(24, 32, 24, phi=0.5, seed=24)
        config = Ozaki2Config.for_dgemm(8, parallelism=2)
        expected = ozaki2_gemm(a, b, config=config)
        with Scheduler(parallelism=2) as sched:
            c1 = ozaki2_gemm(a, b, config=config, scheduler=sched)
            c2 = ozaki2_gemm(a, b, config=config, scheduler=sched)
            np.testing.assert_array_equal(c1, expected)
            np.testing.assert_array_equal(c2, expected)
            # Two GEMMs' worth of calls on one shared ledger.
            assert sched.engine.counter.matmul_calls == 16
