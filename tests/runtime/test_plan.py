"""Tests for execution planning (tiles, k-blocks, parallelism resolution)."""

from __future__ import annotations

import pytest

from repro.config import Ozaki2Config
from repro.runtime.plan import (
    ExecutionPlan,
    build_plan,
    modulus_chunk_ranges,
    plan_for_config,
    resolve_parallelism,
)


class TestResolveParallelism:
    def test_none_and_one_are_serial(self):
        assert resolve_parallelism(None) == 1
        assert resolve_parallelism(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_parallelism(0) >= 1

    def test_literal_counts(self):
        assert resolve_parallelism(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_parallelism(-2)


class TestKBlocks:
    def test_single_block_without_blocking_need(self):
        plan = build_plan(8, 100, 8, 4, max_block_k=128)
        assert plan.k_ranges == ((0, 100),)
        assert plan.num_k_blocks == 1

    def test_blocks_cover_k_exactly(self):
        plan = build_plan(8, 300, 8, 4, max_block_k=128)
        assert plan.k_ranges == ((0, 128), (128, 256), (256, 300))
        assert plan.num_k_blocks == 3

    def test_task_counts(self):
        plan = build_plan(8, 300, 8, 5, max_block_k=128)
        assert plan.tasks_per_tile == 15
        assert plan.total_tasks == 15


class TestMemoryBudgetTiling:
    def test_no_budget_single_tile(self):
        plan = build_plan(512, 64, 384, 15)
        assert plan.m_tiles == ((0, 512),)
        assert plan.n_tiles == ((0, 384),)
        assert plan.num_tiles == 1

    def test_budget_forces_tiling(self):
        plan = build_plan(256, 64, 256, 15, memory_budget_mb=0.25)
        assert plan.num_tiles > 1

    def test_tiles_partition_output(self):
        plan = build_plan(200, 32, 130, 8, memory_budget_mb=0.05)
        covered = set()
        for (m0, m1), (n0, n1) in plan.tiles():
            assert 0 <= m0 < m1 <= 200
            assert 0 <= n0 < n1 <= 130
            for i in range(m0, m1):
                for j in range(n0, n1):
                    assert (i, j) not in covered
                    covered.add((i, j))
        assert len(covered) == 200 * 130

    def test_tile_workspace_respects_budget(self):
        budget_mb = 0.125
        num_moduli = 12
        plan = build_plan(512, 32, 512, num_moduli, memory_budget_mb=budget_mb)
        per_element = num_moduli * 17 + 24
        for (m0, m1), (n0, n1) in plan.tiles():
            assert (m1 - m0) * (n1 - n0) * per_element <= budget_mb * 2**20

    def test_tiny_budget_still_plans(self):
        plan = build_plan(4, 4, 4, 2, memory_budget_mb=1e-6)
        assert plan.num_tiles == 16  # 1x1 tiles, never fails

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            build_plan(0, 4, 4, 2)
        with pytest.raises(ValueError):
            build_plan(4, 4, 4, 2, max_block_k=0)


class TestModulusChunks:
    def test_serial_is_one_fused_chunk(self):
        assert modulus_chunk_ranges(15, 1) == ((0, 15),)

    @pytest.mark.parametrize("n_mod", [2, 7, 15, 20])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8, 32])
    def test_chunks_partition_the_moduli(self, n_mod, workers):
        chunks = modulus_chunk_ranges(n_mod, workers)
        # Contiguous, ordered, exhaustive, no empty chunks.
        assert chunks[0][0] == 0 and chunks[-1][1] == n_mod
        for (lo, hi), (lo2, _) in zip(chunks, chunks[1:], strict=False):
            assert hi == lo2
        assert all(hi > lo for lo, hi in chunks)
        assert len(chunks) == min(n_mod, max(1, workers))
        # Near-equal sizes: max and min differ by at most one modulus.
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_invalid_moduli_count_rejected(self):
        with pytest.raises(ValueError):
            modulus_chunk_ranges(0, 2)


class TestPlanForConfig:
    def test_reads_runtime_knobs_from_config(self):
        config = Ozaki2Config(parallelism=3, memory_budget_mb=0.1, num_moduli=6)
        plan = plan_for_config(64, 32, 64, config)
        assert isinstance(plan, ExecutionPlan)
        assert plan.parallelism == 3
        assert plan.num_moduli == 6
        assert plan.num_tiles > 1

    def test_defaults_are_serial_single_tile(self):
        plan = plan_for_config(64, 32, 64, Ozaki2Config())
        assert plan.parallelism == 1
        assert plan.num_tiles == 1
        assert plan.num_k_blocks == 1
