"""The FP64 line-6 route of prepared GEMVs (:mod:`repro.core.gemv`).

A prepared fast-mode A side keeps its truncated ``A'`` when a digit fits
(:func:`repro.core.operand.fp64_digit_width`); on the BLAS INT8 engine the
GEMV then computes line 6 as one exact FP64 DGEMM of ``A'`` against
balanced digits of ``x'``.  These tests pin that the route returns the INT8
route's bits, moduli count and ledger (the INT8 route forced through the
integer reference engine), that its DGEMM is exact at the bound the digit
width is derived from, and that it runs only where it should.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.core.gemv as gemv_mod
from repro.config import Ozaki2Config
from repro.core.conversion import truncate_scaled
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import (
    FP64_ROUTE_MIN_DIGIT_BITS,
    fp64_digit_width,
    prepare_a,
    prepare_b,
    table_for,
)
from repro.core.scaling import scale_exponent_budget
from repro.crt.constants import build_constant_table
from repro.engines.int8 import Int8MatrixEngine
from repro.workloads import phi_pair

SHAPES = [(1, 1), (7, 3), (64, 257), (200, 1024), (33, 4096)]
PHIS = [0.5, 2.0, 8.0]
X_SCALES = {"fp64": (1.0, 1e-300, 1e300, 0.0), "fp32": (1.0, 1e-30, 1e30, 0.0)}
GRID_CONFIGS = (
    [Ozaki2Config(num_moduli=n) for n in (2, 4, 6, 8, 10, 11, 12, 13, 15, "auto")]
    + [Ozaki2Config(num_moduli="auto", target_accuracy=t) for t in (1e-6, 1e-12)]
    + [Ozaki2Config(precision="fp32", num_moduli=n) for n in (2, 3, 5, 8, "auto")]
)


class _Double(Int8MatrixEngine):
    """A test double: same arithmetic, but not the BLAS engine itself."""


@pytest.fixture
def route_calls(monkeypatch):
    """Count the GEMVs that took the FP64 route."""
    calls = []
    original = gemv_mod._fp64_residue_products

    def spy(*args):
        calls.append(args[0].shape)
        return original(*args)

    monkeypatch.setattr(gemv_mod, "_fp64_residue_products", spy)
    return calls


def _matrix(m, k, phi, precision, seed):
    a, b = phi_pair(m, k, 1, phi=phi, precision=precision, seed=seed)
    a = a.astype(np.float64)
    if phi == 8.0 and m >= 3:
        a[0] = 0.0
        a[1] *= 1e-200 if precision == "fp64" else 1e-30
    v = b[:, 0].astype(np.float64)
    return a, v / np.max(np.abs(v))


def _assert_routes_agree(operand, x, config):
    """Route on the BLAS engine == INT8 route on the integer reference."""
    with np.errstate(over="ignore"):
        got = prepared_gemv(operand, x, config, Int8MatrixEngine(), return_details=True)
        want = prepared_gemv(
            operand, x, config, Int8MatrixEngine(use_blas=False), return_details=True
        )
    assert got.value.tobytes() == want.value.tobytes()
    assert got.config.num_moduli == want.config.num_moduli
    assert got.ledger.as_dict() == want.ledger.as_dict()


class TestBitIdentityWithInt8Route:
    @pytest.mark.parametrize("config", GRID_CONFIGS, ids=lambda c: c.method_name)
    def test_grid(self, config, route_calls):
        precision = config.precision.name
        cases = 0
        for shape_index, (m, k) in enumerate(SHAPES):
            for phi in PHIS:
                a, v = _matrix(m, k, phi, precision, seed=shape_index)
                prep = prepare_a(a, config)
                for scale in X_SCALES[precision]:
                    _assert_routes_agree(prep, v * scale, config)
                    cases += 1
        assert cases == 60
        if not config.moduli_is_auto:
            admitted = sum(fp64_digit_width(table_for(config), k) >= FP64_ROUTE_MIN_DIGIT_BITS
                           for _, k in SHAPES)
            assert len(route_calls) == 12 * admitted
            assert admitted == (0 if config.num_moduli == 15 else
                                2 if config.num_moduli == 13 else 5)

    def test_every_admitted_count(self, route_calls):
        a, v = _matrix(48, 300, 2.0, "fp64", seed=5)
        counts = [n for n in range(2, 21)
                  if fp64_digit_width(build_constant_table(n, 64), 300)
                  >= FP64_ROUTE_MIN_DIGIT_BITS]
        assert counts == list(range(2, counts[-1] + 1)) and counts[-1] >= 12
        fixed = [Ozaki2Config(num_moduli=n) for n in counts]
        fixed += [Ozaki2Config(precision="fp32", num_moduli=n) for n in range(2, 9)]
        auto = [Ozaki2Config(num_moduli="auto", target_accuracy=target, selection_model=model)
                for model in ("rigorous", "calibrated") for target in (1e-8, 1e-12)]
        for config in fixed + auto:
            _assert_routes_agree(prepare_a(a, config), v, config)
        assert len(route_calls) >= len(fixed) + 1

    def test_matches_the_n1_gemm_route(self, route_calls):
        a, v = _matrix(40, 90, 0.5, "fp64", seed=2)
        config = Ozaki2Config(num_moduli=10)
        prep = prepare_a(a, config)
        gemv = prepared_gemv(prep, v, config, Int8MatrixEngine(), return_details=True)
        gemm = ozaki2_gemm(prep, v[:, None], config, Int8MatrixEngine(), return_details=True)
        assert gemv.value.tobytes() == gemm.value.ravel().tobytes()
        assert gemv.ledger.as_dict() == gemm.ledger.as_dict()
        assert len(route_calls) == 1


class TestExactness:
    @pytest.mark.parametrize("k", [1, 5, 64, 1000, 4096])
    def test_dgemm_exact_at_the_one_norm_bound(self, k):
        """Rows of ``A'`` at ``‖a'‖₁ = √k·2^α`` against digits all at
        ``±2^(w−1)``: the DGEMM equals the exact integer product, at
        magnitudes within a factor 2 of ``2^53``."""
        rng = np.random.default_rng(k)
        admitted = 0
        for bits in (64, 32):
            for n in range(2, 21):
                table = build_constant_table(n, bits)
                width = fp64_digit_width(table, k)
                if width < FP64_ROUTE_MIN_DIGIT_BITS:
                    continue
                admitted += 1
                alpha = scale_exponent_budget(table, "fast")
                norm1 = math.floor(math.sqrt(k) * 2.0**alpha * (1 - 2.0**-40))
                base, extra = divmod(norm1, k)
                row = np.array([base + 1] * extra + [base] * (k - extra), dtype=np.float64)
                signs = np.stack([np.ones(k), -np.ones(k), rng.choice([-1.0, 1.0], k),
                                  (-1.0) ** np.arange(k)])
                a_prime = np.asfortranarray(signs * row)
                digit = 2.0 ** (width - 1)
                digits = np.stack([np.full(k, digit), np.full(k, -digit),
                                   rng.choice([-digit, digit], k)])
                t = digits @ a_prime.T
                exact = [[sum(int(s) * int(x) for s, x in zip(d, r, strict=True))
                          for r in a_prime] for d in digits]
                assert t.astype(np.int64).tolist() == exact
                assert 2.0**52 * 0.99 < np.max(np.abs(t)) <= 2.0**53
        assert admitted >= 10

    @pytest.mark.parametrize("n, k", [(10, 1024), (12, 64), (11, 4096), (2, 7)])
    def test_residue_stack_congruent_at_the_bound(self, n, k):
        """``x'`` entries at ``±⌊2^α⌋`` and ``A'`` at the 1-norm bound: the
        route's stack is ``A'x' mod p_i`` for every modulus, exactly."""
        table = build_constant_table(n, 64)
        width = fp64_digit_width(table, k)
        alpha = scale_exponent_budget(table, "fast")
        rng = np.random.default_rng(n)
        top = math.floor(2.0**alpha)
        x_prime = rng.choice([-top, top, 0, 1, top - 1], k).astype(np.float64)
        base = math.floor(math.sqrt(k) * 2.0**alpha * (1 - 2.0**-40)) // k
        a_prime = np.asfortranarray(rng.choice([-base, base], (6, k)).astype(np.float64))
        y = gemv_mod._fp64_residue_products(a_prime, x_prime, table, width)
        exact = [sum(int(a) * int(x) for a, x in zip(r, x_prime, strict=True)) for r in a_prime]
        for i, p in enumerate(table.moduli):
            assert [int(v) % p for v in y[i]] == [c % p for c in exact]
        assert np.all(np.abs(y) < 2.0**53)


class TestWhenTheRouteRuns:
    def test_k_blocked_products_record_the_gemm_ledger(self, route_calls):
        rng = np.random.default_rng(17)
        config = Ozaki2Config(num_moduli=10)
        for k, blocks in ((2**17 - 1, 1), (2**17 + 1, 2)):
            a, x = rng.standard_normal((3, k)), rng.standard_normal(k)
            prep = prepare_a(a, config)
            gemv = prepared_gemv(prep, x, config, Int8MatrixEngine(), return_details=True)
            gemm = ozaki2_gemm(prep, x[:, None], config, Int8MatrixEngine(),
                               return_details=True)
            assert gemm.num_k_blocks == blocks
            assert gemv.value.tobytes() == gemm.value.ravel().tobytes()
            assert gemv.ledger.as_dict() == gemm.ledger.as_dict()
            assert gemv.ledger.matmul_calls == 10 * blocks
        assert len(route_calls) == 2

    @pytest.mark.parametrize(
        "engine", [Int8MatrixEngine(use_blas=False), _Double()], ids=["integer", "double"]
    )
    def test_other_engines_keep_matvec_stack(self, engine, route_calls):
        a, v = _matrix(20, 30, 0.5, "fp64", seed=1)
        prep = prepare_a(a, Ozaki2Config(num_moduli=10))
        prepared_gemv(prep, v, engine=engine)
        assert route_calls == []
        assert engine.counter.matmul_calls == 10

    def test_raw_and_accurate_sides_keep_the_int8_route(self, route_calls):
        a, v = _matrix(20, 30, 0.5, "fp64", seed=1)
        fast = Ozaki2Config(num_moduli=10)
        prepared_gemv(a, v, fast)
        accurate = fast.replace(mode="accurate")
        prepared_gemv(prepare_a(a, accurate), v, accurate)
        assert route_calls == []


class TestKeptAPrime:
    def test_a_side_keeps_its_truncation(self):
        a, _ = _matrix(30, 50, 2.0, "fp64", seed=3)
        prep = prepare_a(a, Ozaki2Config(num_moduli=10))
        kept = prep._a_prime
        assert kept.flags.f_contiguous and not kept.flags.writeable
        np.testing.assert_array_equal(kept, truncate_scaled(a, prep.scale_exp, side="left"))
        assert prep.nbytes == (prep.slices.nbytes + prep.scale_exp.nbytes
                               + a.nbytes + kept.nbytes)

    def test_only_where_a_digit_fits(self):
        a, _ = _matrix(30, 1024, 2.0, "fp64", seed=4)
        assert fp64_digit_width(table_for(Ozaki2Config(num_moduli=13)), 1024) < 1
        assert prepare_a(a, Ozaki2Config(num_moduli=15))._a_prime is None
        assert prepare_b(a.T, Ozaki2Config(num_moduli=10))._a_prime is None

    def test_derived_operands_keep_their_own(self):
        a, _ = _matrix(30, 50, 2.0, "fp64", seed=5)
        prep = prepare_a(a, Ozaki2Config(num_moduli=15))
        derived = prep.resolve_for(12)
        fresh = prepare_a(a, Ozaki2Config(num_moduli=12))
        np.testing.assert_array_equal(derived._a_prime, fresh._a_prime)
        assert derived.resolve_for(15)._a_prime is None
