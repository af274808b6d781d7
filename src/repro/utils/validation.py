"""Input validation shared by every public entry point.

Validation failures raise :class:`~repro.errors.ValidationError`, which is a
``ValueError`` subclass so that callers used to NumPy semantics can catch it
with either exception type.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ValidationError

__all__ = ["as_number", "ensure_2d", "require_finite", "check_operand", "check_gemm_operands"]


def as_number(value, name: str, cast: type):
    """``cast(value)``; a service request may carry any JSON value here."""
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


def ensure_2d(x, name: str = "matrix") -> np.ndarray:
    """Return ``x`` as a 2-D float array, raising on other ranks."""
    arr = np.asarray(x)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValidationError(
            f"{name} has a zero dimension (shape {arr.shape}); GEMM operands "
            "must be non-empty — degenerate m/k/n products are rejected rather "
            "than silently returning empty or all-zero results"
        )
    return arr


def check_operand(
    x, name: str = "matrix", dtype=np.float64, check_finite: bool = True
) -> np.ndarray:
    """Validate and coerce a single GEMM operand.

    Applies exactly the per-side checks of :func:`check_gemm_operands`
    (2-D, non-empty, cast to ``dtype``, contiguous, optionally finite) so a
    side validated on its own — e.g. while preparing a
    :class:`~repro.core.operand.ResidueOperand` — is bit-identical to one
    validated through the pair entry point.
    """
    x = ensure_2d(x, name)
    x = np.ascontiguousarray(x, dtype=dtype)
    if check_finite:
        require_finite(x, name)
    return x


def require_finite(x: np.ndarray, name: str = "matrix") -> None:
    """Raise if ``x`` contains NaN or infinity."""
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{name} contains non-finite values (NaN or Inf)")


def check_gemm_operands(
    a, b, dtype=np.float64, check_finite: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce GEMM operands.

    Checks that ``a`` and ``b`` are non-empty 2-D arrays with a matching
    inner dimension, casts them to ``dtype`` and (optionally) checks
    finiteness.  Returns the coerced pair.
    """
    a = check_operand(a, "A", dtype=dtype, check_finite=False)
    b = check_operand(b, "B", dtype=dtype, check_finite=False)
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
        )
    if check_finite:
        require_finite(a, "A")
        require_finite(b, "B")
    return a, b
