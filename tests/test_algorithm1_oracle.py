"""Every production route against the literal Algorithm 1 of ``algorithm1_oracle``.

GEMM, GEMV and batched calls; fp64 and fp32; fast and accurate mode; the
exact and the paper's fast residue kernels; the serial, thread, process and
auto executors; raw and prepared operands; k-blocked and tiled plans.  Each
run must return the oracle's output bits and its ``mac_ops``, and every
untiled run its whole op ledger (a tiled plan splits each product into more,
smaller engine calls).
"""

from __future__ import annotations

import numpy as np
import pytest

import algorithm1_oracle as oracle
import repro.core.gemm as gemm_mod
import repro.core.gemv as gemv_mod
import repro.runtime.plan as plan_mod
from repro.apps.solvers import prepared_matvec
from repro.config import MAX_K_WITHOUT_BLOCKING, Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import prepare_a, prepare_b
from repro.engines.int8 import Int8MatrixEngine
from repro.runtime.batched import ozaki2_gemm_batched
from repro.workloads import phi_pair

CONFIGS = [
    Ozaki2Config(precision=precision, num_moduli=n, mode=mode, residue_kernel=kernel)
    for precision, n in (("fp64", 15), ("fp64", 20), ("fp32", 8))
    for mode in ("fast", "accurate")
    for kernel in ("exact", "fast_fma")
]
IDS = [
    f"{c.precision.name}-{c.num_moduli}-{c.mode.value}-{c.residue_kernel.value}"
    for c in CONFIGS
]

#: ``(parallelism, executor)`` per route; "auto" is pushed onto the process
#: side of PROCESS_MIN_MACS by the ``executor`` fixture.
EXECUTORS = {
    "serial": (1, "thread"),
    "thread": (2, "thread"),
    "process": (2, "process"),
    "auto": (2, "auto"),
}


@pytest.fixture(params=list(EXECUTORS))
def executor(request, monkeypatch):
    monkeypatch.setattr(plan_mod, "PROCESS_MIN_MACS", 1)
    return EXECUTORS[request.param]


def _pair(config, shape=(37, 70, 29), seed=3):
    m, k, n = shape
    return phi_pair(m, k, n, phi=1.0, precision=config.precision.name, seed=seed)


def _prepared(a, b, config):
    return prepare_a(a, config), prepare_b(b, config)


def _assert_matches(value, ledger, want, want_ledger, tiled=False):
    assert value.dtype == want.dtype
    np.testing.assert_array_equal(value.view(np.uint8), want.view(np.uint8))
    assert ledger.mac_ops == want_ledger.mac_ops
    if not tiled:
        assert ledger.as_dict() == want_ledger.as_dict()


@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_gemm(config, executor):
    parallelism, name = executor
    run = config.replace(parallelism=parallelism, executor=name)
    a, b = _pair(config)
    want, ledger = oracle.gemm(a, b, config)
    for lhs, rhs in ((a, b), _prepared(a, b, config)):
        result = ozaki2_gemm(lhs, rhs, config=run, return_details=True)
        _assert_matches(result.value, result.ledger, want, ledger)


@pytest.mark.parametrize("budget", [None, 0.02])
def test_k_blocked_and_tiled(executor, budget, monkeypatch):
    monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 32)
    parallelism, name = executor
    for config in (CONFIGS[0], CONFIGS[3], CONFIGS[10]):
        run = config.replace(parallelism=parallelism, executor=name, memory_budget_mb=budget)
        a, b = _pair(config, shape=(41, 100, 35), seed=5)
        want, ledger = oracle.gemm(a, b, config, block=32)
        for lhs, rhs in ((a, b), _prepared(a, b, config)):
            result = ozaki2_gemm(lhs, rhs, config=run, return_details=True)
            assert result.num_k_blocks == 4
            _assert_matches(result.value, result.ledger, want, ledger, tiled=bool(budget))


@pytest.mark.parametrize("block", [MAX_K_WITHOUT_BLOCKING, 16])
@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_gemv(config, block, monkeypatch):
    monkeypatch.setattr(gemv_mod, "MAX_K_WITHOUT_BLOCKING", block)
    a, b = _pair(config, shape=(45, 50, 1), seed=7)
    v = b[:, 0]
    want, ledger = oracle.gemm(a, b, config, block=block)
    prep = prepare_a(a, config)
    for lhs in (a, prep):
        result = prepared_gemv(lhs, v, config=config, return_details=True)
        _assert_matches(result.value, result.ledger, want[:, 0], ledger)
    engine = Int8MatrixEngine()
    value = prepared_matvec(prep, v, config, engine)
    _assert_matches(value, engine.counter, want[:, 0].astype(np.float64), ledger)


def test_batched(executor):
    parallelism, name = executor
    config = CONFIGS[0].replace(parallelism=parallelism, executor=name)
    a0, b0 = _pair(config, seed=1)
    a1, b1 = _pair(config, seed=2)
    a_prep = prepare_a(a0, config)
    results = ozaki2_gemm_batched(
        [a0, a1, a_prep, a1], [b0, b1, b0, b0], config=config, return_details=True
    )
    for result, (a, b) in zip(results, [(a0, b0), (a1, b1), (a0, b0), (a1, b0)], strict=True):
        _assert_matches(result.value, result.ledger, *oracle.gemm(a, b, CONFIGS[0]))
