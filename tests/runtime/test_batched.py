"""Tests for the batched GEMM API: loop equivalence, ledgers, recurring arrays."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import Ozaki2Config
from repro.core.gemm import GemmResult, ozaki2_gemm
from repro.engines.int8 import Int8MatrixEngine
from repro.runtime import Scheduler, ozaki2_gemm_batched
from repro.workloads import phi_pair


def _mixed_batch(seed: int = 0):
    """8 problems of mixed sizes (with repeated shapes to exercise grouping)."""
    shapes = [
        (32, 48, 24),
        (32, 48, 24),
        (16, 20, 12),
        (64, 32, 8),
        (32, 48, 24),
        (16, 20, 12),
        (8, 8, 8),
        (40, 64, 56),
    ]
    As, Bs = [], []
    for j, (m, k, n) in enumerate(shapes):
        a, b = phi_pair(m, k, n, phi=0.5, seed=seed + j)
        As.append(a)
        Bs.append(b)
    return As, Bs


class TestBatchedEquivalence:
    def test_batched_bit_identical_to_serial_loop_8_mixed(self):
        As, Bs = _mixed_batch()
        config = Ozaki2Config.for_dgemm(15)
        batched = ozaki2_gemm_batched(As, Bs, config=config)
        assert len(batched) == 8
        for a, b, c in zip(As, Bs, batched, strict=True):
            np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=config))

    def test_batched_parallel_bit_identical(self):
        As, Bs = _mixed_batch(seed=100)
        config = Ozaki2Config.for_dgemm(10, parallelism=4)
        serial_cfg = config.replace(parallelism=1)
        batched = ozaki2_gemm_batched(As, Bs, config=config)
        for a, b, c in zip(As, Bs, batched, strict=True):
            np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=serial_cfg))

    def test_batched_sgemm(self):
        As, Bs = [], []
        for j in range(3):
            a, b = phi_pair(24, 32, 20, phi=0.5, precision="fp32", seed=j)
            As.append(a)
            Bs.append(b)
        config = Ozaki2Config.for_sgemm(8)
        batched = ozaki2_gemm_batched(As, Bs, config=config)
        for a, b, c in zip(As, Bs, batched, strict=True):
            assert c.dtype == np.float32
            np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=config))

    def test_batched_accurate_mode(self):
        As, Bs = _mixed_batch(seed=50)
        As, Bs = As[:3], Bs[:3]
        config = Ozaki2Config.for_dgemm(12, mode="accurate")
        batched = ozaki2_gemm_batched(As, Bs, config=config)
        for a, b, c in zip(As, Bs, batched, strict=True):
            np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=config))

    def test_batched_with_memory_budget(self):
        As, Bs = _mixed_batch(seed=7)
        config = Ozaki2Config.for_dgemm(8, memory_budget_mb=0.01)
        reference_cfg = config.replace(memory_budget_mb=None)
        batched = ozaki2_gemm_batched(As, Bs, config=config)
        for a, b, c in zip(As, Bs, batched, strict=True):
            np.testing.assert_array_equal(c, ozaki2_gemm(a, b, config=reference_cfg))


    @pytest.mark.parametrize("mode", ["fast", "accurate"])
    def test_items_block_k_by_the_gemm_module_limit(self, mode, monkeypatch):
        """Batched items read the same k-block limit as ozaki2_gemm."""
        import repro.core.gemm as gemm_mod

        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 16)
        As, Bs = _mixed_batch(seed=7)
        config = Ozaki2Config.for_dgemm(9, mode=mode)
        results = ozaki2_gemm_batched(As, Bs, config=config, return_details=True)
        for a, b, r in zip(As, Bs, results, strict=True):
            loop = ozaki2_gemm(a, b, config=config, return_details=True)
            assert r.num_k_blocks == loop.num_k_blocks == -(-a.shape[1] // 16)
            np.testing.assert_array_equal(r.value, loop.value)
            assert r.ledger.as_dict() == loop.ledger.as_dict()


class TestBatchedDetails:
    def test_per_item_results_and_counters(self):
        As, Bs = _mixed_batch(seed=9)
        config = Ozaki2Config.for_dgemm(9, parallelism=2)
        results = ozaki2_gemm_batched(As, Bs, config=config, return_details=True)
        assert all(isinstance(r, GemmResult) for r in results)
        for a, b, r in zip(As, Bs, results, strict=True):
            assert r.value.shape == (a.shape[0], b.shape[1])
            # Fast mode, no k-blocking: exactly N INT8 GEMMs per item.
            assert r.ledger.matmul_calls == 9
            assert r.ledger.mac_ops == 9 * a.shape[0] * a.shape[1] * b.shape[1]
            assert r.num_k_blocks == 1
            assert r.method_name == "OS II-fast-9"

    def test_accurate_mode_counters_match_loop(self):
        """Accurate mode issues an extra engine GEMM during scaling; the
        per-item batched ledgers must attribute it, matching a serial loop."""
        As, Bs = _mixed_batch(seed=13)
        As, Bs = As[:3], Bs[:3]
        config = Ozaki2Config.for_dgemm(8, mode="accurate")
        batched = ozaki2_gemm_batched(As, Bs, config=config, return_details=True)
        for a, b, r in zip(As, Bs, batched, strict=True):
            loop = ozaki2_gemm(a, b, config=config, return_details=True)
            assert r.ledger.as_dict() == loop.ledger.as_dict()
            assert r.ledger.matmul_calls == 9  # N GEMMs + 1 scale GEMM

    def test_batch_ledger_lands_on_primary_engine(self):
        As, Bs = _mixed_batch(seed=3)
        engine = Int8MatrixEngine()
        ozaki2_gemm_batched(
            As, Bs, config=Ozaki2Config.for_dgemm(7, parallelism=3), engine=engine
        )
        assert engine.counter.matmul_calls == 7 * len(As)

    def test_phase_times_cover_all_phases(self):
        As, Bs = _mixed_batch(seed=4)
        results = ozaki2_gemm_batched(
            As, Bs, config=Ozaki2Config.for_dgemm(8), return_details=True
        )
        for r in results:
            for key in ("scale", "convert_A", "convert_B", "matmul", "unscale"):
                assert r.phase_times.seconds[key] > 0.0


class TestBatchedPrepared:
    """Prepared operands and shared-matrix reuse inside a batch."""

    def test_prepared_items_bit_identical(self):
        from repro.core.operand import prepare_a, prepare_b

        config = Ozaki2Config.for_dgemm(10)
        a, b = phi_pair(24, 32, 20, phi=0.5, seed=40)
        a2, b2 = phi_pair(24, 32, 20, phi=0.5, seed=41)
        pa, pb = prepare_a(a, config), prepare_b(b, config)
        batched = ozaki2_gemm_batched([pa, pa, a2], [pb, b2, pb], config=config)
        for (x, y), c in zip([(a, b), (a, b2), (a2, b)], batched, strict=True):
            np.testing.assert_array_equal(c, ozaki2_gemm(x, y, config=config))

    def test_prepared_items_report_zero_convert(self):
        from repro.core.operand import prepare_a

        config = Ozaki2Config.for_dgemm(8)
        a, b = phi_pair(16, 24, 12, phi=0.5, seed=42)
        results = ozaki2_gemm_batched(
            [prepare_a(a, config), a], [b, b], config=config, return_details=True
        )
        assert results[0].phase_times.seconds["convert_A"] == 0.0
        assert results[1].phase_times.seconds["convert_A"] > 0.0
        np.testing.assert_array_equal(results[0].value, results[1].value)

    def test_shared_matrix_object_converted_once(self, monkeypatch):
        """Items passing the same array object share one conversion pass."""
        import repro.core.operand as operand_mod
        import repro.runtime.scheduler as scheduler_mod

        calls = []
        # A recurring array converts in its preparation, any other in the
        # scheduler's conversion of its own GEMM.
        for module in (operand_mod, scheduler_mod):

            def counting(x, scale, side, original=module.truncate_scaled):
                calls.append(side)
                return original(x, scale, side)

            monkeypatch.setattr(module, "truncate_scaled", counting)
        config = Ozaki2Config.for_dgemm(8)
        a, b = phi_pair(16, 24, 12, phi=0.5, seed=43)
        _, b2 = phi_pair(16, 24, 12, phi=0.5, seed=44)
        ozaki2_gemm_batched([a, a, a], [b, b2, b], config=config)
        # One left-side truncation for the shared A, two right-side ones
        # (b appears twice as the same object and is shared as well).
        assert calls.count("left") == 1
        assert calls.count("right") == 2

    def test_recurring_array_scaled_once(self, monkeypatch):
        """A fast-mode array that recurs in a batch is scaled once, same bits."""
        import repro.core.gemm as gemm_mod
        import repro.core.operand as operand_mod

        calls = {"A": 0, "B": 0}
        originals = {"A": gemm_mod.fast_mode_scale_a, "B": gemm_mod.fast_mode_scale_b}
        prescale = operand_mod.fast_mode_prescale

        def counting(side):
            def scale(x, table):
                calls[side] += 1
                return originals[side](x, table)

            return scale

        def counting_prescale(x, axis):
            # A recurring array is scaled by its preparation (rows: the A side).
            calls["A" if axis == 1 else "B"] += 1
            return prescale(x, axis=axis)

        monkeypatch.setattr(gemm_mod, "fast_mode_scale_a", counting("A"))
        monkeypatch.setattr(gemm_mod, "fast_mode_scale_b", counting("B"))
        monkeypatch.setattr(operand_mod, "fast_mode_prescale", counting_prescale)
        config = Ozaki2Config.for_dgemm(8)
        a, b = phi_pair(16, 24, 12, phi=0.5, seed=47)
        bs = [b, phi_pair(16, 24, 12, phi=0.5, seed=48)[1], b, b]
        batched = ozaki2_gemm_batched([a] * 4, bs, config=config)
        assert calls == {"A": 1, "B": 2}
        monkeypatch.undo()
        for got, rhs in zip(batched, bs, strict=True):
            assert np.array_equal(got, ozaki2_gemm(a, rhs, config=config))

    @pytest.mark.parametrize(
        "config",
        [
            Ozaki2Config.for_dgemm(9),
            Ozaki2Config.for_dgemm(9, mode="accurate"),
            Ozaki2Config(num_moduli="auto"),
        ],
        ids=["fast", "accurate", "auto"],
    )
    def test_item_ledgers_and_phases_match_loop(self, config, monkeypatch):
        """Each item reports what its own ozaki2_gemm call reports: value,
        selection and ledger; a recurring array's preparation is charged to
        the convert phase of its first user."""
        import repro.runtime.batched as batched_mod
        from repro.core.operand import prepare_a

        prepared = {}

        def capture(prepare):
            def wrapper(x, *args):
                prepared[id(x)] = operand = prepare(x, *args)
                return operand

            return wrapper

        monkeypatch.setattr(batched_mod, "prepare_a", capture(batched_mod.prepare_a))
        monkeypatch.setattr(batched_mod, "prepare_b", capture(batched_mod.prepare_b))
        a, b = phi_pair(20, 28, 16, phi=0.5, seed=50)
        a2, b2 = phi_pair(20, 28, 16, phi=0.5, seed=51)
        # a recurs on the A side (items 0, 2), b on the B side (items 0, 1);
        # item 1 passes a caller-prepared A.
        As, Bs = [a, prepare_a(a2, config), a, a2], [b, b, b2, b2]
        results = ozaki2_gemm_batched(As, Bs, config=config, return_details=True)
        for r, x, y in zip(results, As, Bs, strict=True):
            loop = ozaki2_gemm(x, y, config=config, return_details=True)
            np.testing.assert_array_equal(r.value, loop.value)
            assert r.config == loop.config
            assert r.moduli_selection == loop.moduli_selection
            assert r.ledger.as_dict() == loop.ledger.as_dict()

        seconds = [r.phase_times.seconds for r in results]
        assert seconds[0]["convert_A"] >= prepared[id(a)].convert_seconds > 0.0
        assert seconds[0]["convert_B"] >= prepared[id(b)].convert_seconds > 0.0
        if config.mode.value == "fast":
            # Later users multiply the cached residues, like any prepared side.
            assert seconds[2]["convert_A"] == seconds[1]["convert_B"] == 0.0

    def test_shared_matrix_bit_identical_to_loop(self):
        config = Ozaki2Config.for_dgemm(9)
        a, b = phi_pair(20, 28, 16, phi=0.5, seed=45)
        _, b2 = phi_pair(20, 28, 16, phi=0.5, seed=46)
        batched = ozaki2_gemm_batched([a, a], [b, b2], config=config)
        np.testing.assert_array_equal(batched[0], ozaki2_gemm(a, b, config=config))
        np.testing.assert_array_equal(batched[1], ozaki2_gemm(a, b2, config=config))

    def test_shared_matrix_not_deduped_in_accurate_mode(self):
        """Accurate-mode scales depend on the partner, so identical A objects
        must still convert per item — results must match the serial loop."""
        config = Ozaki2Config.for_dgemm(10, mode="accurate")
        a, b = phi_pair(16, 20, 12, phi=0.5, seed=47)
        _, b2 = phi_pair(16, 20, 12, phi=0.5, seed=48)
        batched = ozaki2_gemm_batched([a, a], [b, b2], config=config)
        np.testing.assert_array_equal(batched[0], ozaki2_gemm(a, b, config=config))
        np.testing.assert_array_equal(batched[1], ozaki2_gemm(a, b2, config=config))

    def test_prepared_rejects_accurate_mode(self):
        from repro.core.operand import prepare_a
        from repro.errors import ConfigurationError

        config = Ozaki2Config.for_dgemm(10)
        a, b = phi_pair(8, 8, 8, phi=0.5, seed=49)
        prep = prepare_a(a, config)
        with pytest.raises(ConfigurationError):
            ozaki2_gemm_batched([prep], [b], config=config.replace(mode="accurate"))


class TestBatchedValidation:
    def test_empty_batch(self):
        assert ozaki2_gemm_batched([], []) == []

    def test_empty_batch_with_details_and_config(self):
        """Regression: an empty batch returns [] cleanly for every flavour
        (no shape-grouping or scheduler setup on zero items)."""
        config = Ozaki2Config.for_dgemm(8, parallelism=2, memory_budget_mb=1.0)
        assert ozaki2_gemm_batched([], [], config=config) == []
        assert ozaki2_gemm_batched([], [], config=config, return_details=True) == []

    def test_empty_numpy_sequences(self):
        """Empty numpy arrays as the batch containers are not ambiguous."""
        assert ozaki2_gemm_batched(np.empty((0, 4, 4)), np.empty((0, 4, 4))) == []

    def test_single_item_batch_identical_to_gemm(self):
        """Regression: a batch of one goes through the same pipeline as
        ozaki2_gemm — same bits, same op ledger, same k-block count."""
        a, b = phi_pair(24, 32, 20, phi=0.5, seed=60)
        for config in (
            Ozaki2Config.for_dgemm(11),
            Ozaki2Config.for_dgemm(9, mode="accurate"),
            Ozaki2Config.for_sgemm(8),
        ):
            single = ozaki2_gemm_batched([a], [b], config=config, return_details=True)
            assert len(single) == 1
            loop = ozaki2_gemm(a, b, config=config, return_details=True)
            np.testing.assert_array_equal(single[0].value, loop.value)
            assert single[0].ledger.as_dict() == loop.ledger.as_dict()
            assert single[0].num_k_blocks == loop.num_k_blocks

    def test_length_mismatch(self):
        a, b = phi_pair(8, 8, 8, phi=0.5, seed=0)
        with pytest.raises(ValueError):
            ozaki2_gemm_batched([a, a], [b])

    def test_invalid_item_rejected(self):
        a, b = phi_pair(8, 8, 8, phi=0.5, seed=0)
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            ozaki2_gemm_batched([a, np.ones((3, 4))], [b, np.ones((5, 6))])

    def test_external_scheduler_not_closed(self):
        As, Bs = _mixed_batch(seed=2)
        with Scheduler(parallelism=2) as sched:
            first = ozaki2_gemm_batched(
                As[:2], Bs[:2], config=Ozaki2Config.for_dgemm(6), scheduler=sched
            )
            second = ozaki2_gemm_batched(
                As[:2], Bs[:2], config=Ozaki2Config.for_dgemm(6), scheduler=sched
            )
        for c1, c2 in zip(first, second, strict=True):
            np.testing.assert_array_equal(c1, c2)
