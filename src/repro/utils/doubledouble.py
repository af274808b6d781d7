"""Double-double (~106-bit) addition on arrays.

A double-double number represents a value as an unevaluated sum of two
float64 values ``hi + lo`` with ``|lo| <= ulp(hi)/2``, held as a pair
``(hi, lo)`` of equally-shaped float64 arrays; no wrapper class is used so
that intermediate results stay cheap.  The accuracy reference GEMM
(:mod:`repro.accuracy.reference`) and the double-double GEMM extension
(:mod:`repro.extensions.ddgemm`) accumulate with :func:`dd_add`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .fma import fast_two_sum, two_sum

__all__ = ["dd_add"]

DD = Tuple[np.ndarray, np.ndarray]


def dd_add(x: DD, y: DD) -> DD:
    """Accurate double-double addition (Bailey's algorithm)."""
    xh, xl = x
    yh, yl = y
    s, e = two_sum(xh, yh)
    t, f = two_sum(xl, yl)
    e = e + t
    s, e = fast_two_sum(s, e)
    e = e + f
    return fast_two_sum(s, e)
