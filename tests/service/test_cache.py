"""OperandCache semantics: LRU order, byte bound, bit-identity, fingerprints."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.config import Ozaki2Config
from repro.core.operand import matrix_fingerprint, prepare_a
from repro.errors import ValidationError
from repro.service import cache as cache_module
from repro.service.cache import OperandCache, cache_key, precond_key
from repro.workloads import spd_matrix


@pytest.fixture
def cfg():
    return Ozaki2Config.for_dgemm(num_moduli=10)


def _matrix(seed: int, n: int = 16) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, n))


def _entry_bytes(cfg) -> int:
    return prepare_a(_matrix(0), config=cfg).nbytes


class TestFingerprint:
    """The fingerprint hashes *logical* contents, not memory layout."""

    def test_equal_content_equal_fingerprint(self):
        a = _matrix(1)
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())

    def test_different_content_different_fingerprint(self):
        assert matrix_fingerprint(_matrix(1)) != matrix_fingerprint(_matrix(2))

    def test_fortran_order_view_matches_copy(self):
        a = _matrix(3)
        f_ordered = np.asfortranarray(a)
        assert not f_ordered.flags["C_CONTIGUOUS"]
        assert matrix_fingerprint(f_ordered) == matrix_fingerprint(a)

    def test_transpose_view_matches_its_copy(self):
        a = np.random.default_rng(4).standard_normal((12, 20))
        transposed = a.T  # non-contiguous view
        assert not transposed.flags["C_CONTIGUOUS"]
        assert matrix_fingerprint(transposed) == matrix_fingerprint(
            np.ascontiguousarray(a.T)
        )
        # ... and differs from the un-transposed matrix.
        assert matrix_fingerprint(transposed) != matrix_fingerprint(
            np.ascontiguousarray(a)
        )

    def test_sliced_view_matches_its_copy(self):
        a = _matrix(5, n=32)
        view = a[::2, 1::3]
        assert not view.flags["C_CONTIGUOUS"]
        assert matrix_fingerprint(view) == matrix_fingerprint(view.copy())

    def test_shape_is_part_of_the_identity(self):
        flat = np.arange(12, dtype=np.float64)
        assert matrix_fingerprint(flat.reshape(3, 4)) != matrix_fingerprint(
            flat.reshape(4, 3)
        )

    def test_strided_prepare_round_trips_through_cache(self, cfg):
        """A cached entry keyed on a view serves the view's logical matrix."""
        a = _matrix(6, n=32)
        view = a[::2, ::2]
        cache = OperandCache(capacity_bytes=1 << 20)
        cold, _ = cache.get_or_prepare(view, "A", cfg)
        warm, _ = cache.get_or_prepare(view.copy(), "A", cfg)
        assert warm is cold
        direct = prepare_a(np.ascontiguousarray(view), config=cfg)
        assert np.array_equal(cold.slices, direct.slices)
        assert np.array_equal(cold.scale_exp, direct.scale_exp)


class TestKeying:
    def test_key_separates_sides_and_recipes(self, cfg):
        fp = "f" * 32
        assert cache_key("A", fp, cfg) != cache_key("B", fp, cfg)
        assert cache_key("A", fp, cfg) != cache_key(
            "A", fp, cfg.replace(num_moduli=12)
        )

    def test_auto_configs_share_by_target(self, cfg):
        fp = "f" * 32
        auto = cfg.replace(num_moduli="auto")
        # Runtime knobs (the memory budget here) never enter the key.
        assert cache_key("A", fp, auto) == cache_key(
            "A", fp, auto.replace(memory_budget_mb=64)
        )
        assert cache_key("A", fp, auto) != cache_key("A", fp, cfg)


class TestLRU:
    def test_eviction_is_least_recently_used(self, cfg):
        entry = _entry_bytes(cfg)
        cache = OperandCache(capacity_bytes=2 * entry + entry // 2)
        a, b, c = _matrix(10), _matrix(11), _matrix(12)
        cache.get_or_prepare(a, "A", cfg)
        cache.get_or_prepare(b, "A", cfg)
        # Touch a: now b is the least recently used.
        cache.get_or_prepare(a, "A", cfg)
        cache.get_or_prepare(c, "A", cfg)
        assert cache_key("A", matrix_fingerprint(a), cfg) in cache
        assert cache_key("A", matrix_fingerprint(b), cfg) not in cache
        assert cache_key("A", matrix_fingerprint(c), cfg) in cache
        assert cache.counter.cache_evictions == 1

    def test_hit_is_bit_identical_to_cold_miss(self, cfg):
        a = _matrix(13)
        cache = OperandCache(capacity_bytes=1 << 20)
        cold, converted = cache.get_or_prepare(a, "A", cfg)
        warm, reconverted = cache.get_or_prepare(a, "A", cfg)
        direct = prepare_a(np.ascontiguousarray(a), config=cfg)
        assert warm is cold  # the cached operand IS the cold conversion
        # Only the miss reports that it paid the conversion.
        assert converted and not reconverted
        assert np.array_equal(warm.slices, direct.slices)
        assert np.array_equal(warm.scale_exp, direct.scale_exp)
        assert cache.counter.cache_hits == 1
        assert cache.counter.cache_misses == 1

    def test_oversized_entry_is_served_but_not_stored(self, cfg):
        entry = _entry_bytes(cfg)
        cache = OperandCache(capacity_bytes=entry // 2)
        operand, _ = cache.get_or_prepare(_matrix(14), "A", cfg)
        assert operand.num_moduli == cfg.num_moduli
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_zero_capacity_always_converts(self, cfg):
        cache = OperandCache(capacity_bytes=0)
        first, _ = cache.get_or_prepare(_matrix(15), "A", cfg)
        second, _ = cache.get_or_prepare(_matrix(15), "A", cfg)
        assert first is not second
        assert np.array_equal(first.slices, second.slices)
        assert cache.counter.cache_hits == 0
        assert cache.counter.cache_misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValidationError):
            OperandCache(capacity_bytes=-1)

    def test_clear_counts_evictions_and_zeroes_residency(self, cfg):
        cache = OperandCache(capacity_bytes=1 << 20)
        cache.get_or_prepare(_matrix(16), "A", cfg)
        cache.get_or_prepare(_matrix(17), "A", cfg)
        inserted = cache.counter.cache_bytes_inserted
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.counter.cache_evictions == 2
        assert cache.counter.cache_bytes_evicted == inserted


class TestConcurrency:
    def test_byte_bound_holds_under_concurrent_traffic(self, cfg):
        entry = _entry_bytes(cfg)
        capacity = int(3.5 * entry)
        cache = OperandCache(capacity_bytes=capacity)
        matrices = [_matrix(20 + i) for i in range(8)]
        errors = []

        def worker(offset: int) -> None:
            try:
                for i in range(16):
                    m = matrices[(offset + i) % len(matrices)]
                    operand, _ = cache.get_or_prepare(m, "A", cfg)
                    assert operand.num_moduli == cfg.num_moduli
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.current_bytes <= capacity
        assert len(cache) <= capacity // entry
        stats = cache.stats()
        assert stats["bytes_inserted"] - stats["bytes_evicted"] == stats[
            "current_bytes"
        ]

    def test_concurrent_same_key_misses_collapse(self, cfg):
        cache = OperandCache(capacity_bytes=1 << 24)
        a = np.random.default_rng(30).standard_normal((256, 256))
        barrier = threading.Barrier(4)
        results = []

        def worker() -> None:
            barrier.wait()
            results.append(cache.get_or_prepare(a, "A", cfg)[0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # One conversion, everyone else waited on the latch and hit.
        assert cache.counter.cache_misses == 1
        assert cache.counter.cache_hits == 3
        assert all(op is results[0] for op in results)

    def test_concurrent_same_key_factorisations_collapse(self, monkeypatch):
        cache = OperandCache(capacity_bytes=1 << 24)
        a = spd_matrix(128, seed=31)
        fingerprint = matrix_fingerprint(a)
        factored = []
        real = cache_module.make_preconditioner

        def spy(*args, **kwargs):
            factored.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "make_preconditioner", spy)
        barrier = threading.Barrier(6)
        results = []

        def worker() -> None:
            barrier.wait()
            results.append(cache.get_or_factor(fingerprint, a, "ilu0"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert factored == ["ilu0"]
        assert [built for _, built in results].count(True) == 1
        assert all(precond is results[0][0] for precond, _ in results)
        assert cache.counter.cache_misses == 1
        assert cache.counter.cache_hits == 5


class TestPreconditioners:
    def test_key_carries_omega_for_ssor_only(self):
        fp = matrix_fingerprint(_matrix(40))
        assert precond_key(fp, "ssor", 1.0) != precond_key(fp, "ssor", 1.5)
        assert precond_key(fp, "ilu0", 1.0) == precond_key(fp, "ilu0", 1.5)
        assert precond_key(fp, "ilu0") != precond_key(fp, "ssor")

    def test_factors_share_the_budget_and_the_lru(self, cfg):
        a = spd_matrix(16, seed=41)
        fp = matrix_fingerprint(a)
        precond, built = OperandCache(capacity_bytes=1 << 20).get_or_factor(fp, a, "ssor")
        assert built
        # Room for exactly one set of factors: the second kind evicts the first.
        cache = OperandCache(capacity_bytes=precond.nbytes)
        cache.get_or_factor(fp, a, "ssor")
        cache.get_or_factor(fp, a, "ssor", omega=1.5)
        assert precond_key(fp, "ssor", 1.0) not in cache
        assert precond_key(fp, "ssor", 1.5) in cache
        assert cache.current_bytes == precond.nbytes
        assert cache.counter.cache_evictions == 1

    def test_get_or_prepare_memoises_the_key_fingerprint(self, cfg, monkeypatch):
        cache = OperandCache(capacity_bytes=1 << 20)
        a = _matrix(42)
        operand, _ = cache.get_or_prepare(a, "A", cfg)
        monkeypatch.setattr(
            "repro.core.operand.matrix_fingerprint",
            lambda x: pytest.fail("the operand hashed its source again"),
        )
        assert operand.fingerprint == cache_module.matrix_fingerprint(a)
