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
    Array double-double (~106-bit) arithmetic used by the accuracy reference
    and by the accumulation analysis.
``validation``
    Input validation shared by all public entry points.
"""

from __future__ import annotations

from .fma import fast_two_sum, fma, split, two_prod, two_sum
from .fp import (
    exponent_floor,
    next_power_of_two_exponent,
    round_up_sum_of_squares,
    ufp,
)
from .doubledouble import (
    dd_add,
    dd_add_fp,
    dd_from_fp,
    dd_mul,
    dd_mul_fp,
    dd_sum,
    dd_to_fp,
    dd_two_sum,
)
from .validation import check_gemm_operands, ensure_2d, require_finite

__all__ = [
    "fast_two_sum",
    "fma",
    "split",
    "two_prod",
    "two_sum",
    "exponent_floor",
    "next_power_of_two_exponent",
    "round_up_sum_of_squares",
    "ufp",
    "dd_add",
    "dd_add_fp",
    "dd_from_fp",
    "dd_mul",
    "dd_mul_fp",
    "dd_sum",
    "dd_to_fp",
    "dd_two_sum",
    "check_gemm_operands",
    "ensure_2d",
    "require_finite",
]
