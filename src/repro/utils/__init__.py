"""Low-level numerical utilities shared across the library.

Submodules
----------
``fp``
    Exponent helpers (scales as integer exponents applied by ``ldexp``),
    round-up-mode reductions.
``fma``
    Error-free transformations (``two_sum``, ``two_prod``, Dekker split) and
    a software fused multiply-add built on top of them.
``doubledouble``
    Double-double (~106-bit) addition, the accumulator of the accuracy
    reference and of the double-double GEMM extension.
``validation``
    Input validation shared by all public entry points.
"""

from __future__ import annotations

from .fma import fast_two_sum, fma, split, two_prod, two_sum
from .fp import exponent_floor, round_up_sum_of_squares
from .doubledouble import dd_add
from .validation import check_gemm_operands, ensure_2d, require_finite

__all__ = [
    "fast_two_sum",
    "fma",
    "split",
    "two_prod",
    "two_sum",
    "exponent_floor",
    "round_up_sum_of_squares",
    "dd_add",
    "check_gemm_operands",
    "ensure_2d",
    "require_finite",
]
