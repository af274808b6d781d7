"""Property tests: auto-N selection is a configuration choice, not arithmetic.

Two guarantees across modes, precisions and shapes:

* an ``num_moduli="auto"`` run is **bitwise identical** to a fixed-count
  run at the selected count (the fixed route is the comparator), and the
  selection never exceeds ``MAX_MODULI``;
* the auto result stays within the model's guaranteed accuracy bound of
  the fixed ``N = 15`` (DGEMM default) result: both sit within their
  respective a-priori bounds of the true product, so their difference is
  bounded by the *sum* of the two bounds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.config import MAX_MODULI, ComputeMode, Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a, prepare_b
from repro.crt.adaptive import elementwise_error_bound
from repro.workloads.generators import phi_matrix

COMMON_SETTINGS = dict(max_examples=30, deadline=None)

dims = st.integers(min_value=1, max_value=24)
modes = st.sampled_from([ComputeMode.FAST, ComputeMode.ACCURATE])
precisions = st.sampled_from(["fp64", "fp32"])
targets = st.sampled_from([None, 1e-4, 1e-8, 1e-11])


@given(
    m=dims,
    k=dims,
    n=dims,
    mode=modes,
    precision=precisions,
    target=targets,
    prepared=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(**COMMON_SETTINGS)
def test_auto_is_bitwise_fixed_at_selected_count_and_within_bound(
    m, k, n, mode, precision, target, prepared, seed
):
    if precision == "fp32":
        # fp32 targets below the 32-bit tables' reach just clamp; keep the
        # sweep in the meaningful range.
        assume(target is None or target >= 1e-8)

    auto_config = Ozaki2Config(
        precision=precision, num_moduli="auto", mode=mode, target_accuracy=target
    )
    a = phi_matrix(m, k, phi=0.5, seed=seed)
    b = phi_matrix(k, n, phi=0.5, seed=seed + 1)

    if prepared:
        lhs, rhs = prepare_a(a, config=auto_config), prepare_b(b, config=auto_config)
    else:
        lhs, rhs = a, b
    result = ozaki2_gemm(lhs, rhs, config=auto_config, return_details=True)

    selected = result.config.num_moduli
    assert 2 <= selected <= MAX_MODULI
    assert result.moduli_selection is not None
    assert result.moduli_selection.num_moduli == selected

    # Comparator: the fixed-count route at the selected count, raw inputs.
    fixed = ozaki2_gemm(
        a, b, config=Ozaki2Config(precision=precision, num_moduli=selected, mode=mode)
    )
    assert np.array_equal(result.c, fixed)

    # Accuracy: |auto - fixed15| is bounded by the sum of both bounds
    # (each is within its own bound of the true product).
    bits = 64 if precision == "fp64" else 32
    n15 = 15 if precision == "fp64" else 8
    fixed15 = ozaki2_gemm(
        a, b, config=Ozaki2Config(precision=precision, num_moduli=n15, mode=mode)
    )
    max_a = float(np.max(np.abs(a)))
    max_b = float(np.max(np.abs(b)))
    allowance = elementwise_error_bound(
        k, max_a, max_b, selected, bits, mode=mode.value
    ) + elementwise_error_bound(k, max_a, max_b, n15, bits, mode=mode.value)
    diff = float(np.max(np.abs(result.c.astype(np.float64) - fixed15.astype(np.float64))))
    assert diff <= allowance


@given(
    m=dims,
    k=dims,
    target=st.sampled_from([1e-4, 1e-8]),
    seed=st.integers(0, 2**16),
)
@settings(**COMMON_SETTINGS)
def test_resolve_for_equals_fresh_prepare(m, k, target, seed):
    """Re-deriving a prepared operand at a reduced count is bitwise a fresh
    preparation at that count (the slice-down regression of the adaptive
    subsystem)."""
    a = phi_matrix(m, k, phi=0.5, seed=seed)
    prep = prepare_a(a, config=Ozaki2Config(num_moduli=15))
    sel = prepare_a(a, config=Ozaki2Config(num_moduli="auto", target_accuracy=target))
    reduced = prep.resolve_for(sel.num_moduli)
    fresh = prepare_a(a, config=Ozaki2Config(num_moduli=sel.num_moduli))
    assert np.array_equal(reduced.scale, fresh.scale)
    assert np.array_equal(reduced.slices, fresh.slices)
    # And the auto preparation itself equals the fresh one at its count.
    assert np.array_equal(sel.scale, fresh.scale) or sel.num_moduli != fresh.num_moduli
    assert np.array_equal(sel.slices, prep.resolve_for(sel.num_moduli).slices)
