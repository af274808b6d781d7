"""Precomputed constant tables of Section 4.1.

Because the moduli are fixed in advance, every derived constant can be
precomputed once per ``(number of moduli, target precision)`` pair:

* the exact product ``P`` and the CRT weights ``w_i = (P/p_i) q_i``
  (Python integers),
* the double-double representation ``P = P1 + P2`` used by the DGEMM
  reconstruction (``P2 = 0`` for SGEMM),
* the split weights ``s_i1 + s_i2 ≈ w_i`` where ``s_i1`` keeps only the top
  ``β_i`` bits so that the accumulation ``Σ_i s_i1 U_i`` is *error-free* in
  FP64 (the core trick of Section 4.3),
* reciprocal tables ``1/p_i`` in FP64/FP32 and the integer reciprocal
  ``⌊2^32/p_i − 1⌋`` used by the ``__mulhi``-style ``mod`` kernel,
* the scale budgets ``P'_fast`` and ``P'_accu``.

Tables are cached, mirroring the lookup tables the CUDA implementation
builds at compile time.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .inverses import crt_weights, moduli_product
from .moduli import select_moduli, validate_moduli

__all__ = ["CRTConstantTable", "build_constant_table", "split_weight_bits"]


def _double(x: int) -> float:
    """Round a (possibly huge) Python integer to the nearest float64."""
    return float(x)


def _double_reciprocal(x: int) -> float:
    """Correctly-rounded float64 of ``1/x`` for a Python integer ``x``."""
    return float(Fraction(1, x))


def split_weight_bits(weights: Sequence[int], num_moduli: int) -> Tuple[int, ...]:
    """Bit budgets ``β_i`` for the high parts of the CRT weights.

    Section 4.1 defines::

        β_i = 53 - 8 - ceil(log2 N) + floor(log2 w_i) - floor(log2 max_j w_j)

    so that every product ``s_i1 * U_i`` (with ``U_i < 2^8``) is an integer
    multiple of the same power of two and the sum of ``N`` such terms stays
    below 2^53 times that unit — hence the FP64 accumulation on line 8 of
    Algorithm 1 commits no rounding error.
    """
    n = int(num_moduli)
    if n < 2:
        raise ConfigurationError("need at least two moduli")
    exps = [w.bit_length() - 1 for w in weights]
    e_max = max(exps)
    ceil_log2_n = math.ceil(math.log2(n))
    betas = []
    for e in exps:
        beta = 53 - 8 - ceil_log2_n + e - e_max
        if beta < 1:
            raise ConfigurationError(
                "split-weight bit budget underflowed; the moduli table is "
                "inconsistent with the assumptions of Section 4.1"
            )
        betas.append(min(beta, 53))
    return tuple(betas)


@dataclasses.dataclass(frozen=True)
class CRTConstantTable:
    """All precomputed constants for one ``(moduli, precision)`` pair.

    Attributes
    ----------
    moduli:
        The selected pairwise-coprime moduli ``p_1 > p_2 > ...``.
    precision_bits:
        64 for DGEMM emulation, 32 for SGEMM emulation.  Controls whether
        the weights are split (``s_i2``) and whether ``P`` keeps a
        double-double tail (``P2``).
    P_int / weights_int:
        Exact ``P`` and ``w_i`` as Python integers.
    P1, P2:
        ``P ≈ P1 + P2`` in float64 (``P2 = 0`` for SGEMM emulation).
    Pinv:
        ``double(1/P)``.
    s1, s2:
        Split weights: ``w_i ≈ s1[i] + s2[i]`` with ``s1[i]`` truncated to
        ``beta[i]`` bits (for SGEMM emulation ``s1[i] = double(w_i)`` and
        ``s2[i] = 0``).
    beta:
        The bit budgets of :func:`split_weight_bits` (all 53 for SGEMM).
    p_f64:
        Moduli as float64, shape ``(N,)``.
    pinv64 / pinv32:
        ``1/p_i`` rounded to float64 / float32.
    pinv_prime:
        ``⌊2^32 / p_i − 1⌋`` as int64, used by the ``__mulhi`` mod kernel.
    P_fast / P_accu:
        ``single(log2(P-1) - 1.5)`` and ``single(log2(P-1) - 0.5)`` — the
        scale budgets of Section 4.1.
    log2_P:
        ``log2(P)`` in float64.
    """

    moduli: Tuple[int, ...]
    precision_bits: int
    P_int: int
    weights_int: Tuple[int, ...]
    P1: float
    P2: float
    Pinv: float
    s1: np.ndarray
    s2: np.ndarray
    beta: Tuple[int, ...]
    p_f64: np.ndarray
    pinv64: np.ndarray
    pinv32: np.ndarray
    pinv_prime: np.ndarray
    P_fast: float
    P_accu: float
    log2_P: float

    @property
    def num_moduli(self) -> int:
        """Number of moduli ``N``."""
        return len(self.moduli)

    def __post_init__(self) -> None:
        for name in ("s1", "s2", "p_f64", "pinv64", "pinv_prime"):
            getattr(self, name).setflags(write=False)
        self.pinv32.setflags(write=False)


def _split_weight(weight: int, beta: int) -> Tuple[float, float]:
    """Split an exact CRT weight into ``(s1, s2)`` per Section 4.1.

    ``s1`` is the weight truncated to its top ``beta`` bits (exactly
    representable in float64 because ``beta <= 53``); ``s2`` is the nearest
    float64 to the remainder.
    """
    e = weight.bit_length() - 1
    shift = e - beta + 1
    if shift <= 0:
        return float(weight), 0.0
    high = (weight >> shift) << shift
    rest = weight - high
    return float(high), float(rest)


@functools.lru_cache(maxsize=None)
def _build_cached(moduli: Tuple[int, ...], precision_bits: int) -> CRTConstantTable:
    mods = validate_moduli(moduli)
    if precision_bits not in (32, 64):
        raise ConfigurationError(
            f"precision_bits must be 32 or 64, got {precision_bits}"
        )
    n = len(mods)
    P = moduli_product(mods)
    weights = crt_weights(mods)

    P1 = _double(P)
    if precision_bits == 64:
        P2 = _double(P - int(P1))
        betas = split_weight_bits(weights, n)
        pairs = [_split_weight(w, b) for w, b in zip(weights, betas, strict=True)]
        s1 = np.array([p[0] for p in pairs], dtype=np.float64)
        s2 = np.array([p[1] for p in pairs], dtype=np.float64)
    else:
        P2 = 0.0
        betas = tuple(53 for _ in mods)
        s1 = np.array([_double(w) for w in weights], dtype=np.float64)
        s2 = np.zeros(n, dtype=np.float64)

    Pinv = _double_reciprocal(P)
    p_f64 = np.array(mods, dtype=np.float64)
    pinv64 = np.array([_double_reciprocal(p) for p in mods], dtype=np.float64)
    pinv32 = pinv64.astype(np.float32)
    pinv_prime = np.array([(2**32) // p - 1 for p in mods], dtype=np.int64)

    log2_p_minus_1 = math.log2(P - 1)
    P_fast = float(np.float32(log2_p_minus_1 - 1.5))
    P_accu = float(np.float32(log2_p_minus_1 - 0.5))

    return CRTConstantTable(
        moduli=mods,
        precision_bits=precision_bits,
        P_int=P,
        weights_int=weights,
        P1=P1,
        P2=P2,
        Pinv=Pinv,
        s1=s1,
        s2=s2,
        beta=betas,
        p_f64=p_f64,
        pinv64=pinv64,
        pinv32=pinv32,
        pinv_prime=pinv_prime,
        P_fast=P_fast,
        P_accu=P_accu,
        log2_P=math.log2(P),
    )


def build_constant_table(
    num_moduli: int,
    precision_bits: int = 64,
    moduli: Sequence[int] | None = None,
) -> CRTConstantTable:
    """Build (or fetch from cache) the constant table for ``num_moduli``.

    Parameters
    ----------
    num_moduli:
        Number of moduli ``N`` (2..20 with the default table).
    precision_bits:
        64 for DGEMM emulation, 32 for SGEMM emulation.
    moduli:
        Optional explicit moduli selection; defaults to the first ``N``
        entries of :data:`repro.crt.moduli.MODULI_TABLE`.
    """
    if moduli is None:
        mods = select_moduli(num_moduli)
    else:
        mods = validate_moduli(moduli)
        if len(mods) != num_moduli:
            raise ConfigurationError(
                f"got {len(mods)} moduli but num_moduli={num_moduli}"
            )
    return _build_cached(tuple(mods), int(precision_bits))
