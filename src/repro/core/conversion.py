"""Conversion of scaled inputs to integer matrices and INT8 residues.

Covers lines 2–5 of Algorithm 1:

* ``A' = trunc(diag(μ)·A)`` and ``B' = trunc(B·diag(ν))`` — truncation
  toward zero after the power-of-two scaling, given by the exponents of
  ``μ``/``ν`` (:func:`truncate_scaled`), and
* ``A'_i = rmod(A', p_i)``, ``B'_i = rmod(B', p_i)`` for every modulus,
  cast to INT8 (:func:`residue_slices`), by the one production kernel,
  :func:`repro.crt.residues.residues_to_int8`.  The paper's FMA kernel of
  Section 4.2 (:func:`repro.crt.residues.rmod_fast_fma`) is a reference
  function: its residues are congruent to these, so it gives the same bits.
"""

from __future__ import annotations

import numpy as np

from ..crt.constants import CRTConstantTable
from ..crt.residues import residues_to_int8
from ..utils.fp import ldexp_lines

__all__ = ["truncate_scaled", "residue_slices"]


def truncate_scaled(x: np.ndarray, exps: np.ndarray, side: str) -> np.ndarray:
    """``trunc(diag(2^exps)·X)`` (side="left") or ``trunc(X·diag(2^exps))`` (side="right").

    The scale is given by its integer exponents and applied with ``ldexp``,
    so the scaling is exact (only the exponent of each entry changes) for
    any scale the range of float64 can take; the truncation rounds toward
    zero, exactly as ``trunc`` in the paper.  The result is a float64
    matrix whose entries are integers (possibly larger than 2^53 in
    magnitude for large ``N``).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    scaled = ldexp_lines(np.asarray(x, dtype=np.float64), exps, 1 if side == "left" else 0)
    return np.trunc(scaled, out=scaled)


def residue_slices(
    x_prime: np.ndarray, table: CRTConstantTable, out: np.ndarray | None = None
) -> np.ndarray:
    """INT8 residue stack ``[rmod(X', p_1), ..., rmod(X', p_N)]``.

    Returns an ``(N, *X'.shape)`` INT8 array (lines 4–5 of Algorithm 1),
    written into ``out`` when one is given; see
    :func:`repro.crt.residues.residues_to_int8`.
    """
    return residues_to_int8(x_prime, table.moduli, out)
