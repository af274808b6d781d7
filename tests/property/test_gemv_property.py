"""Property test: the residue-GEMV fast path never changes a single bit.

:func:`repro.core.gemv.prepared_gemv` is an execution strategy, not a
numerical change: the same ``N`` residue products, the same fixed-order
accumulation, just issued without the GEMM plan/scheduler machinery.  So
for *any* problem shape, moduli count, precision, compute mode and
prepared/unprepared left operand, its result must equal the ``n = 1`` GEMM
route bitwise, and the op ledgers of the two routes must be identical — at
every parallelism setting (the fast path has nothing to fan out, but the
ledger totals of the GEMM route are chunking-invariant, so equality must
hold for serial and parallel configurations alike).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import algorithm1_oracle as oracle
from repro.config import ComputeMode, Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import prepare_a
from repro.engines.int8 import Int8MatrixEngine
from repro.workloads.generators import phi_matrix

COMMON_SETTINGS = dict(max_examples=40, deadline=None)

dims = st.integers(min_value=1, max_value=24)
moduli = st.integers(min_value=2, max_value=16)
modes = st.sampled_from([ComputeMode.FAST, ComputeMode.ACCURATE])
precisions = st.sampled_from(["fp64", "fp32"])
workers = st.sampled_from([1, 4])


@given(
    m=dims,
    k=dims,
    num_moduli=moduli,
    mode=modes,
    precision=precisions,
    prepared=st.booleans(),
    parallelism=workers,
    seed=st.integers(0, 2**16),
)
@settings(**COMMON_SETTINGS)
def test_gemv_fast_path_is_bit_identical_to_n1_gemm(
    m, k, num_moduli, mode, precision, prepared, parallelism, seed
):
    if precision == "fp32":
        num_moduli = min(num_moduli, 10)

    config = Ozaki2Config(
        precision=precision,
        num_moduli=num_moduli,
        mode=mode,
        parallelism=parallelism,
    )
    a = phi_matrix(m, k, phi=0.5, precision=precision, seed=seed)
    v = phi_matrix(k, 1, phi=0.5, precision=precision, seed=seed + 1)[:, 0]
    left = prepare_a(a, config=config) if prepared else a

    gemv_engine = Int8MatrixEngine()
    fast = prepared_gemv(left, v, config=config, engine=gemv_engine)

    gemm_engine = Int8MatrixEngine()
    reference = ozaki2_gemm(left, v[:, None], config=config, engine=gemm_engine)

    np.testing.assert_array_equal(fast, np.asarray(reference).ravel())
    assert gemv_engine.counter.as_dict() == gemm_engine.counter.as_dict()


@given(
    k=dims,
    num_moduli=st.integers(min_value=2, max_value=16),
    parallelism=workers,
    seed=st.integers(0, 2**16),
)
@settings(**COMMON_SETTINGS)
def test_solver_matvec_matches_oracle(k, num_moduli, parallelism, seed):
    """prepared_matvec returns the oracle's bits at every parallelism."""
    from repro.apps.solvers import prepared_matvec

    config = Ozaki2Config.for_dgemm(num_moduli, parallelism=parallelism)
    a = phi_matrix(k, k, phi=0.5, seed=seed)
    v = phi_matrix(k, 1, phi=0.5, seed=seed + 1)[:, 0]
    prep = prepare_a(a, config=config)
    want, _ = oracle.gemm(a, v[:, None], config)
    got = prepared_matvec(prep, v, config)
    np.testing.assert_array_equal(got.view(np.uint8), want[:, 0].view(np.uint8))
