"""Unit tests for the residue-GEMV fast path (:mod:`repro.core.gemv`)."""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
import repro.core.gemm as gemm_mod
from repro.config import Ozaki2Config
from repro.core.gemm import PHASE_KEYS, ozaki2_gemm
from repro.core.gemv import GemvResult, prepared_gemv
from repro.core.operand import prepare_a, prepare_b
from repro.engines.int8 import Int8MatrixEngine
from repro.errors import ConfigurationError, ValidationError
from repro.workloads import phi_pair


def _problem(m=33, k=47, seed=0, precision="fp64"):
    a, b = phi_pair(m, k, 1, phi=0.5, precision=precision, seed=seed)
    return a, b[:, 0]


class TestBitIdentityWithGemmRoute:
    @pytest.mark.parametrize("mode", ["fast", "accurate"])
    @pytest.mark.parametrize("precision, moduli", [("fp64", 15), ("fp64", 4), ("fp32", 8)])
    def test_raw_matrix(self, mode, precision, moduli):
        config = Ozaki2Config(precision=precision, num_moduli=moduli, mode=mode)
        a, v = _problem(precision=precision, seed=moduli)
        ref = ozaki2_gemm(a, v[:, None], config=config)
        out = prepared_gemv(a, v, config=config)
        assert out.ndim == 1
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out, ref.ravel())

    def test_prepared_operand(self):
        config = Ozaki2Config.for_dgemm(15)
        a, v = _problem(seed=3)
        prep = prepare_a(a, config=config)
        np.testing.assert_array_equal(
            prepared_gemv(prep, v),
            np.asarray(ozaki2_gemm(prep, v[:, None], config=config)).ravel(),
        )

    def test_fast_fma_residue_kernel(self):
        """The n = 1 product of Algorithm 1 with the paper's kernels (fast
        FMA ``rmod``, ``__mulhi`` ``mod``) gives the GEMV's bits."""
        config = Ozaki2Config()
        a, v = _problem(seed=7)
        fast, _ = oracle.gemm(a, v[:, None], config, kernel="fast_fma")
        np.testing.assert_array_equal(prepared_gemv(a, v, config=config), fast.ravel())

    def test_k_blocked_path(self, monkeypatch):
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 16)
        a, v = _problem(m=9, k=50, seed=11)
        np.testing.assert_array_equal(
            prepared_gemv(a, v), ozaki2_gemm(a, v[:, None]).ravel()
        )


class TestOpLedger:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_ledger_equals_gemm_route(self, parallelism):
        config = Ozaki2Config(parallelism=parallelism)
        a, v = _problem(seed=17)
        gemv_engine = Int8MatrixEngine()
        prepared_gemv(a, v, config=config, engine=gemv_engine)
        gemm_engine = Int8MatrixEngine()
        ozaki2_gemm(a, v[:, None], config=config, engine=gemm_engine)
        assert gemv_engine.counter.as_dict() == gemm_engine.counter.as_dict()


class TestGemvResult:
    def test_details_fields(self):
        config = Ozaki2Config.for_dgemm(15)
        a, v = _problem(seed=19)
        prep = prepare_a(a, config=config)
        result = prepared_gemv(prep, v, config=config, return_details=True)
        assert isinstance(result, GemvResult)
        assert result.method_name == "OS II-fast-15"
        assert result.value.shape == (a.shape[0],)
        assert result.nu_exp.shape == (1,)
        np.testing.assert_array_equal(result.mu_exp, prep.scale_exp)
        assert set(result.phase_times.seconds) == set(PHASE_KEYS)
        # Prepared A skips its convert phase; the engine performed N GEMVs.
        assert result.phase_times.seconds["convert_A"] == 0.0
        assert result.ledger.matmul_calls == 15

    def test_default_config_comes_from_operand(self):
        a, v = _problem(seed=23)
        prep = prepare_a(a, config=Ozaki2Config.for_dgemm(4))
        result = prepared_gemv(prep, v, return_details=True)
        assert result.config is prep.config


class TestValidation:
    def test_rejects_2d_x(self):
        a, v = _problem()
        with pytest.raises(ValidationError, match="1-D vector"):
            prepared_gemv(a, v[:, None])

    def test_rejects_b_side_operand(self):
        config = Ozaki2Config()
        a, v = _problem(m=40, k=40)
        prep_b = prepare_b(a, config=config)
        with pytest.raises(ValidationError, match="prepared for the B side"):
            prepared_gemv(prep_b, v)

    def test_prepared_operand_rejects_accurate_mode(self):
        a, v = _problem()
        prep = prepare_a(a)
        with pytest.raises(ConfigurationError, match="accurate"):
            prepared_gemv(prep, v, config=Ozaki2Config(mode="accurate"))

    def test_inner_dim_mismatch_matches_gemm_message(self):
        a, v = _problem(m=6, k=8)
        bad = np.ones(5)
        with pytest.raises(ValidationError, match=r"inner dimensions do not match"):
            prepared_gemv(a, bad)

    def test_non_finite_vector_rejected_as_b_side(self):
        a, v = _problem()
        v = v.copy()
        v[3] = np.nan
        with pytest.raises(ValidationError, match="B contains non-finite"):
            prepared_gemv(a, v)
