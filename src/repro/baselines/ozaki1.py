"""Ozaki scheme I on INT8 matrix engines (the ``ozIMMU_EF-S`` baseline).

Ozaki scheme I [Ozaki et al. 2012] splits the *significands* of the inputs
into ``S`` slices such that every cross product of slices is exact on the
low-precision engine, then sums the slice products in high precision.  The
INT8 incarnation (ozIMMU [Ootomo et al. 2024], accelerated in
[Uchino et al. 2025]) is the strongest prior DGEMM-emulation baseline in the
paper's evaluation (Figures 4, 6, 8).

Implementation outline (error-free / "EF" variant):

1. every row of ``A`` (column of ``B``) is scaled by a power of two so its
   largest magnitude lies in ``[1/2, 1)``;
2. each scaled element is cut into ``S`` consecutive chunks of ``w`` bits
   (``w = min(7, ⌊(31 − ⌈log2 k⌉)/2⌋)``), each an INT8 integer, so a single
   INT8 GEMM of any two chunks accumulates exactly in INT32;
3. the products ``D^A_s · D^B_t`` for ``s + t ≤ S + 1`` are evaluated on the
   INT8 engine (``S(S+1)/2`` GEMMs) and combined in FP64 with weights
   ``2^{-(s+t)w}``;
4. the row/column scalings are undone.

The per-element truncation error after ``S`` slices is ``2^{-S·w}`` relative
to the row scale, so ``S ≈ 8–9`` reaches FP64-level accuracy — requiring
``S(S+1)/2 ≈ 36–45`` INT8 GEMMs where Ozaki scheme II needs ``N ≈ 14–15``.
That gap is exactly the ">2x higher performance" headline of the paper.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..config import MAX_K_WITHOUT_BLOCKING
from ..engines.base import MatrixEngine
from ..engines.int8 import Int8MatrixEngine
from ..errors import ConfigurationError
from ..utils.fp import ldexp_lines, ldexp_unscale, max_exponents
from ..utils.validation import check_gemm_operands

__all__ = ["Ozaki1Config", "slice_width", "split_into_slices", "ozimmu_gemm"]


@dataclasses.dataclass(frozen=True)
class Ozaki1Config:
    """Configuration of an Ozaki scheme I emulated GEMM.

    Parameters
    ----------
    num_slices:
        Number of significand slices ``S`` (2..16).  DGEMM-level accuracy
        needs 8–9 slices for HPL-like matrices.
    full_products:
        If True, evaluate all ``S*S`` slice products instead of the
        triangular ``S(S+1)/2`` subset.  The triangular subset (default)
        matches ozIMMU_EF and the operation counts used in the paper.
    """

    num_slices: int = 9
    full_products: bool = False

    def __post_init__(self) -> None:
        s = int(self.num_slices)
        if not (2 <= s <= 16):
            raise ConfigurationError(f"num_slices must be in [2, 16], got {s}")
        object.__setattr__(self, "num_slices", s)

    @property
    def num_int8_gemms(self) -> int:
        """Number of INT8 GEMMs the configuration issues."""
        s = self.num_slices
        return s * s if self.full_products else s * (s + 1) // 2

    @property
    def method_name(self) -> str:
        """Paper-style method name, e.g. ``"ozIMMU_EF-9"``."""
        return f"ozIMMU_EF-{self.num_slices}"


def slice_width(k: int) -> int:
    """Bits per slice so that one INT8 GEMM is exact in INT32.

    Each slice is an integer of magnitude below ``2^w``; a product of two
    slices summed over ``k`` terms is below ``k · 2^{2w}``, which must stay
    below ``2^31``.  The INT8 input range additionally caps ``w`` at 7.
    """
    if k < 1:
        raise ConfigurationError(f"k must be positive, got {k}")
    head = 31 - int(np.ceil(np.log2(max(k, 2))))
    return max(1, min(7, head // 2))


def split_into_slices(
    x_scaled: np.ndarray, num_slices: int, width: int
) -> List[np.ndarray]:
    """Split a matrix with entries in (-1, 1) into INT8 slice matrices.

    Returns ``[D_1, ..., D_S]`` (int8) such that
    ``x ≈ Σ_s D_s · 2^{-s·width}`` with the residual below ``2^{-S·width}``
    in magnitude.  The extraction is error-free: each slice is the
    truncation of the current residual shifted by ``width`` bits.
    """
    residual = np.asarray(x_scaled, dtype=np.float64).copy()
    slices: List[np.ndarray] = []
    for s in range(1, num_slices + 1):
        shifted = np.ldexp(residual, width * s)
        chunk = np.trunc(shifted)
        slices.append(chunk.astype(np.int8))
        residual = residual - np.ldexp(chunk, -width * s)
    return slices


def ozimmu_gemm(
    a: np.ndarray,
    b: np.ndarray,
    config: Ozaki1Config | int = 9,
    engine: MatrixEngine | None = None,
) -> np.ndarray:
    """Emulated DGEMM via Ozaki scheme I with INT8 slices (``ozIMMU_EF-S``).

    ``config`` may be an :class:`Ozaki1Config` or simply the slice count.
    """
    if isinstance(config, int):
        config = Ozaki1Config(num_slices=config)
    engine = engine or Int8MatrixEngine()
    a, b = check_gemm_operands(a, b, dtype=np.float64)
    m, k = a.shape
    n = b.shape[1]
    width = slice_width(min(k, MAX_K_WITHOUT_BLOCKING))

    # Power-of-two scales mapping each row/column max |x| into [1/2, 1).
    row_exp = -1 - max_exponents(np.max(np.abs(a), axis=1))
    col_exp = -1 - max_exponents(np.max(np.abs(b), axis=0))
    a_slices = split_into_slices(ldexp_lines(a, row_exp, 1), config.num_slices, width)
    b_slices = split_into_slices(ldexp_lines(b, col_exp, 0), config.num_slices, width)

    c_acc = np.zeros((m, n), dtype=np.float64)
    s_max = config.num_slices
    block = MAX_K_WITHOUT_BLOCKING
    for s in range(1, s_max + 1):
        for t in range(1, s_max + 1):
            if not config.full_products and s + t > s_max + 1:
                continue
            partial = np.zeros((m, n), dtype=np.float64)
            for start in range(0, k, block):
                stop = min(start + block, k)
                prod = engine.matmul(a_slices[s - 1][:, start:stop], b_slices[t - 1][start:stop, :])
                partial += prod.astype(np.float64)
            c_acc += np.ldexp(partial, -width * (s + t))

    return ldexp_unscale(c_acc, row_exp, col_exp)
