"""Operand pairs whose power-of-two scales lie beyond the float64 range.

Every case is a finite fp64 or fp32 product that a native GEMM computes:
operands near the top or the bottom of the exponent range, subnormals, rows
or columns spanning 1e-300…1e300, and zero lines next to huge entries.  As
float factors, their scales overflow (``2**1050`` for a row of magnitude
1e-300) or their reciprocals do; as integer exponents they are ordinary
numbers.  ``tests/test_range_corpus.py`` runs every case on every library
route.  The corpus is test-only: no library module or workload uses it.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np

#: ``(m, k, n)`` of every case.
SHAPE = (40, 64, 24)


class Case(NamedTuple):
    name: str
    precision: str  # "fp64" or "fp32"
    a: np.ndarray
    b: np.ndarray


def _standard_pair(seed: int) -> "tuple[np.ndarray, np.ndarray]":
    m, k, n = SHAPE
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, k)), rng.standard_normal((k, n))


def cases() -> List[Case]:
    """The corpus, in a fixed order (fresh arrays on every call)."""
    m, _, n = SHAPE
    a, b = _standard_pair(2026)
    zero_lines_a, zero_lines_b = a * 1e300, b.copy()
    zero_lines_a[3] = 0.0  # a zero row of A ...
    zero_lines_a[:, 10] = 0.0  # ... and a zero column of A
    zero_lines_b[:, 4] = 0.0  # a zero column of B ...
    zero_lines_b[7] = 0.0  # ... and a zero row of B
    span_m = np.logspace(-300, 300, m)
    span_n = np.logspace(-300, 300, n)
    fp64 = [
        Case("a_1e300", "fp64", a * 1e300, b),
        Case("a_1e307_b_1e-10", "fp64", a * 1e307, b * 1e-10),
        Case("b_1e-300", "fp64", a, b * 1e-300),
        Case("b_1e-310_subnormal", "fp64", a, b * 1e-310),
        Case("b_1e-318_subnormal", "fp64", a, b * 1e-318),
        Case("a_1e-312_all_subnormal", "fp64", a * 1e-312, b),
        Case("a_rows_span_1e-300_1e300", "fp64", a * span_m[:, None], b),
        Case("b_cols_span_1e-300_1e300", "fp64", a, b * span_n[None, :]),
        Case("zero_lines_next_to_1e300", "fp64", zero_lines_a, zero_lines_b),
        Case("a_1e200_b_1e-200", "fp64", a * 1e200, b * 1e-200),
    ]
    a32, b32 = (x.astype(np.float32) for x in _standard_pair(2027))
    flt_max = float(np.finfo(np.float32).max)
    near_max = (a32 / np.max(np.abs(a32)) * np.float32(flt_max / SHAPE[1])).astype(np.float32)
    fp32 = [
        Case("a_near_flt_max_over_k", "fp32", near_max, b32 / np.max(np.abs(b32))),
        Case("b_1e-40_subnormal", "fp32", a32, (b32 * np.float32(1e-40)).astype(np.float32)),
        Case("b_1e-44_subnormal", "fp32", a32, (b32.astype(np.float64) * 1e-44).astype(np.float32)),
    ]
    return fp64 + fp32
