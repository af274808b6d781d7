"""Preconditioners factored once, applied every iteration.

The solvers of :mod:`repro.apps.solvers` already treat the *system matrix*
as a convert-once object (:func:`repro.core.operand.prepare_a`: scales,
truncation and INT8 residues cached before the first iteration).  A
preconditioner is the same pattern one level up: an approximation ``M ≈ A``
whose factorisation (including the inversion of its triangular sweeps) is
computed **once**, before the iteration starts, so every per-step
application ``z = M⁻¹ r`` is O(n²) matvec work — shrinking the effective
condition number for the price of a few cheap passes per iteration: fewer
iterations, hence fewer emulated matrix–vector products.

Two classic factorisations are provided, plus the identity:

* :class:`ILU0Preconditioner` — incomplete LU with zero fill-in: the
  factorisation runs Gaussian elimination but only updates entries inside
  the sparsity pattern of ``A`` (for a structurally dense matrix it
  degenerates to the exact LU, the strongest — and most expensive — member
  of the family).
* :class:`SSORPreconditioner` — symmetric successive over-relaxation:
  ``M = ω/(2−ω) · (D/ω + L) D⁻¹ (D/ω + U)``, assembled from the
  lower/upper triangles of ``A`` itself, so "factoring" is just splitting.
  For symmetric ``A`` and ``ω ∈ (0, 2)``, ``M`` is symmetric positive
  definite — the textbook requirement for preconditioned CG.
* :class:`IdentityPreconditioner` — ``M = I``; turns
  :func:`~repro.apps.solvers.pcg_solve` back into plain CG and is the
  ``--precond none`` default on the CLI.

Preconditioner *applications* run in exact float64 NumPy — they steer the
iteration; only the matrix–vector products against the system matrix go
through the emulated GEMV/GEMM.

A factored preconditioner is reusable across solves exactly like a prepared
operand: :meth:`repro.session.Session.solve` keeps it in the session's
:class:`~repro.service.cache.OperandCache` (accounted at :attr:`Preconditioner.
nbytes`), so repeated solves against one matrix factor it once.  The ILU(0)
factorisation itself applies each step's rank-1 update in place, one row
block at a time, masked to the pattern through the ufunc's ``where=``; every
entry sees the same ``fl(a − fl(l·u))`` sequence, in the same step order, as
the textbook masked outer-product loop, so the factors are bit-identical to
it.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ValidationError
from ..utils.validation import ensure_2d

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "ILU0Preconditioner",
    "SSORPreconditioner",
    "make_preconditioner",
    "PRECONDITIONER_KINDS",
]

#: Preconditioner kinds accepted by :func:`make_preconditioner` and the CLI.
PRECONDITIONER_KINDS = ("none", "ilu0", "ssor")

#: Rows per in-place ILU(0) update block: the block's products stay
#: cache-resident between the multiply and the subtract.
_ROW_BLOCK = 64


class Preconditioner:
    """Base class: a factored ``M ≈ A`` with an ``apply`` solve.

    Attributes
    ----------
    kind:
        Registry name (``"none"``, ``"ilu0"``, ``"ssor"``).
    factor_seconds:
        One-time wall-clock cost of the factorisation — the analogue of
        :attr:`repro.core.operand.ResidueOperand.convert_seconds` for the
        prepared system matrix.
    """

    kind: str = "none"

    def __init__(self) -> None:
        self.factor_seconds = 0.0

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Return ``z = M⁻¹ r`` (must not modify ``r``)."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the factorisation retains (its cache size)."""
        return sum(int(v.nbytes) for v in vars(self).values() if isinstance(v, np.ndarray))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


class IdentityPreconditioner(Preconditioner):
    """``M = I``: the no-op preconditioner (plain CG / plain sweeps)."""

    kind = "none"

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r


def _check_square(a: np.ndarray) -> np.ndarray:
    a = ensure_2d(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValidationError(
            f"preconditioners need a square matrix, got {a.shape}"
        )
    return np.asarray(a, dtype=np.float64)


class ILU0Preconditioner(Preconditioner):
    """Incomplete LU with zero fill-in, factored once at construction.

    Runs right-looking Gaussian elimination without pivoting, but keeps
    every entry *outside* the sparsity pattern of ``A`` at exactly zero
    (zero fill-in).  Each step's rank-1 update is applied in place, row
    block by row block, through one preallocated product buffer; the
    pattern mask goes to the ufuncs as ``where=`` (dropped when ``A`` is
    structurally dense), so no full trailing-block temporary is ever
    materialised.  The triangular factors are **inverted once** at
    construction — the whole point of a factored-once preconditioner is
    that the per-iteration ``apply`` must be cheap, so the O(n³) work is
    paid up front and ``z = U⁻¹ (L⁻¹ r)`` is two O(n²) BLAS matvecs per
    step, not two dense solves.

    For a structurally dense ``A`` the pattern constraint never binds and
    the factorisation is the exact ``A = L·U`` — the preconditioned
    iteration then converges in a handful of steps, paying one O(n³)
    factorisation up front.  A zero pivot (possible without pivoting)
    raises :class:`~repro.errors.ValidationError` at construction, not
    mid-iteration.
    """

    kind = "ilu0"

    def __init__(self, a: np.ndarray) -> None:
        super().__init__()
        a = _check_square(a)
        start = time.perf_counter()
        n = a.shape[0]
        pattern = a != 0.0
        dense = bool(pattern.all())
        lu = a.copy()
        products = np.empty(min(_ROW_BLOCK, n - 1) * (n - 1))
        for kk in range(n - 1):
            pivot = lu[kk, kk]
            if pivot == 0.0:
                raise ValidationError(
                    f"ILU(0) hit a zero pivot at position {kk}; the matrix "
                    "needs pivoting — use SSOR or no preconditioner"
                )
            # Multipliers for rows below the pivot, only inside the pattern.
            col = np.where(pattern[kk + 1 :, kk], lu[kk + 1 :, kk] / pivot, 0.0)
            lu[kk + 1 :, kk] = col
            # Schur-complement update in place, masked to the pattern (zero
            # fill-in): outside it an entry keeps its value, which is what
            # subtracting a masked-out +0.0 would leave.
            row = lu[kk, kk + 1 :]
            width = n - 1 - kk
            for r0 in range(kk + 1, n, _ROW_BLOCK):
                r1 = min(r0 + _ROW_BLOCK, n)
                inside = True if dense else pattern[r0:r1, kk + 1 :]
                block = products[: (r1 - r0) * width].reshape(r1 - r0, width)
                np.multiply(col[r0 - kk - 1 : r1 - kk - 1, None], row, out=block, where=inside)
                target = lu[r0:r1, kk + 1 :]
                np.subtract(target, block, out=target, where=inside)
        if lu[n - 1, n - 1] == 0.0:
            raise ValidationError(
                f"ILU(0) hit a zero pivot at position {n - 1}; the matrix "
                "needs pivoting — use SSOR or no preconditioner"
            )
        # Only the inverses are retained: the factors themselves are never
        # read by apply(), and at solver scale each would pin another n²
        # float64 array for the (reusable) preconditioner's lifetime.
        self._lower_inv = np.linalg.inv(np.tril(lu, -1) + np.eye(n))
        self._upper_inv = np.linalg.inv(np.triu(lu))
        self.factor_seconds = time.perf_counter() - start

    def apply(self, r: np.ndarray) -> np.ndarray:
        y = self._lower_inv @ np.asarray(r, dtype=np.float64)
        return self._upper_inv @ y


class SSORPreconditioner(Preconditioner):
    """Symmetric SOR preconditioner ``M = ω/(2−ω)·(D/ω + L) D⁻¹ (D/ω + U)``.

    ``D``/``L``/``U`` are the diagonal and strict triangles of ``A``;
    factoring inverts the two triangular sweeps once, so every ``apply``
    is a forward matvec, a diagonal scaling and a backward matvec — all
    O(n²) BLAS work:

        ``z = (2−ω)/ω · (D/ω + U)⁻¹ D (D/ω + L)⁻¹ r``

    For symmetric ``A`` with a positive diagonal and ``ω ∈ (0, 2)``, ``M``
    is symmetric positive definite, so it is a valid CG preconditioner.
    ``ω = 1`` (the default) is symmetric Gauss–Seidel.
    """

    kind = "ssor"

    def __init__(self, a: np.ndarray, omega: float = 1.0) -> None:
        super().__init__()
        a = _check_square(a)
        omega = float(omega)
        if not 0.0 < omega < 2.0:
            raise ValidationError(
                f"SSOR relaxation omega must lie in (0, 2), got {omega}"
            )
        diag = np.diag(a).copy()
        if np.any(diag == 0.0):
            raise ValidationError("SSOR requires a zero-free diagonal")
        start = time.perf_counter()
        self._omega = omega
        self._diag = diag
        # As in ILU(0), only the inverted sweeps are retained.
        self._lower_inv = np.linalg.inv(np.tril(a, -1) + np.diag(diag / omega))
        self._upper_inv = np.linalg.inv(np.triu(a, 1) + np.diag(diag / omega))
        self.factor_seconds = time.perf_counter() - start

    def apply(self, r: np.ndarray) -> np.ndarray:
        y = self._lower_inv @ np.asarray(r, dtype=np.float64)
        y = self._diag * y
        z = self._upper_inv @ y
        return ((2.0 - self._omega) / self._omega) * z


def make_preconditioner(
    a: np.ndarray, kind: "str | Preconditioner" = "none", omega: float = 1.0
) -> Preconditioner:
    """Factor a preconditioner for ``a`` by registry name.

    ``kind`` is one of :data:`PRECONDITIONER_KINDS` (case-insensitive) or an
    already-factored :class:`Preconditioner`, which is passed through — the
    factor-once analogue of handing a solver a prepared
    :class:`~repro.core.operand.ResidueOperand`.
    """
    if isinstance(kind, Preconditioner):
        return kind
    key = str(kind).strip().lower()
    if key in ("none", ""):
        return IdentityPreconditioner()
    if key == "ilu0":
        return ILU0Preconditioner(a)
    if key == "ssor":
        return SSORPreconditioner(a, omega=omega)
    raise ValidationError(
        f"unknown preconditioner {kind!r}; expected one of {PRECONDITIONER_KINDS}"
    )
