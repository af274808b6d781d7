"""Tests for repro.config (Ozaki2Config, ComputeMode)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import (
    ComputeMode,
    DEFAULT_MODULI_DGEMM,
    DEFAULT_MODULI_SGEMM,
    MAX_K_WITHOUT_BLOCKING,
    MAX_MODULI,
    Ozaki2Config,
)
from repro.errors import ConfigurationError
from repro.types import FP32, FP64


class TestComputeMode:
    @pytest.mark.parametrize(
        "value, expected",
        [
            ("fast", ComputeMode.FAST),
            ("f", ComputeMode.FAST),
            ("accurate", ComputeMode.ACCURATE),
            ("accu", ComputeMode.ACCURATE),
            ("a", ComputeMode.ACCURATE),
            (ComputeMode.FAST, ComputeMode.FAST),
        ],
    )
    def test_parse(self, value, expected):
        assert ComputeMode.parse(value) is expected

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            ComputeMode.parse("turbo")


class TestOzaki2Config:
    def test_defaults(self):
        cfg = Ozaki2Config()
        assert cfg.precision is FP64
        assert cfg.num_moduli == DEFAULT_MODULI_DGEMM
        assert cfg.mode is ComputeMode.FAST
        assert cfg.is_dgemm and not cfg.is_sgemm
        # Validation, k-blocking and the residue kernels are not knobs.
        assert len(dataclasses.fields(Ozaki2Config)) == 9

    def test_for_dgemm_and_sgemm(self):
        d = Ozaki2Config.for_dgemm()
        s = Ozaki2Config.for_sgemm()
        assert d.is_dgemm and d.num_moduli == DEFAULT_MODULI_DGEMM
        assert s.is_sgemm and s.num_moduli == DEFAULT_MODULI_SGEMM

    def test_precision_coercion_from_string(self):
        cfg = Ozaki2Config(precision="fp32", num_moduli=8)
        assert cfg.precision is FP32

    def test_mode_coercion_from_string(self):
        cfg = Ozaki2Config(mode="accu")
        assert cfg.mode is ComputeMode.ACCURATE

    def test_method_name(self):
        assert Ozaki2Config.for_dgemm(14).method_name == "OS II-fast-14"
        assert Ozaki2Config.for_sgemm(7, mode="accurate").method_name == "OS II-accu-7"

    @pytest.mark.parametrize("bad_n", [0, 1, MAX_MODULI + 1, 100, -3])
    def test_num_moduli_bounds(self, bad_n):
        with pytest.raises(ConfigurationError):
            Ozaki2Config(num_moduli=bad_n)

    def test_non_target_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            Ozaki2Config(precision="fp16")

    def test_replace_returns_new_config(self):
        cfg = Ozaki2Config.for_dgemm(14)
        other = cfg.replace(num_moduli=16)
        assert other.num_moduli == 16
        assert cfg.num_moduli == 14
        assert other.precision is cfg.precision

    def test_constants(self):
        assert MAX_MODULI == 20
        assert MAX_K_WITHOUT_BLOCKING == 2**17


class TestRuntimeKnobValidation:
    """Invalid runtime knobs fail at construction, not deep in the runtime."""

    @pytest.mark.parametrize("bad_workers", [0, -1, -8])
    def test_parallelism_must_be_positive(self, bad_workers):
        with pytest.raises(ConfigurationError, match="parallelism"):
            Ozaki2Config(parallelism=bad_workers)

    def test_parallelism_accepts_positive_counts(self):
        assert Ozaki2Config(parallelism=1).parallelism == 1
        assert Ozaki2Config(parallelism=16).parallelism == 16

    @pytest.mark.parametrize("bad_budget", [0.0, -1.0, -0.5, float("nan")])
    def test_memory_budget_must_be_positive(self, bad_budget):
        with pytest.raises(ConfigurationError, match="memory_budget_mb"):
            Ozaki2Config(memory_budget_mb=bad_budget)

    def test_memory_budget_none_and_positive_accepted(self):
        assert Ozaki2Config(memory_budget_mb=None).memory_budget_mb is None
        assert Ozaki2Config(memory_budget_mb=0.25).memory_budget_mb == 0.25

    def test_replace_revalidates(self):
        cfg = Ozaki2Config(parallelism=2)
        with pytest.raises(ConfigurationError):
            cfg.replace(parallelism=0)
        with pytest.raises(ConfigurationError):
            cfg.replace(memory_budget_mb=-2.0)
