"""Accuracy measurement: high-precision reference GEMM and error metrics.

Figure 3 of the paper plots the maximum elementwise relative error of each
emulation method against a high-precision reference.  This subpackage
provides that reference (a compensated double-double GEMM, ~106 bits) and
the error metrics used by the harness.
"""

from __future__ import annotations

from .metrics import ErrorSummary, max_relative_error, relative_errors, summarize_errors
from .reference import exact_int_gemm, reference_gemm

__all__ = [
    "ErrorSummary",
    "max_relative_error",
    "relative_errors",
    "summarize_errors",
    "exact_int_gemm",
    "reference_gemm",
]
