"""Ozaki scheme II: the paper's primary contribution.

The public entry points are:

* :func:`repro.core.gemm.ozaki2_gemm` — emulated GEMM with full control and
  diagnostics,
* :func:`repro.core.gemm.emulated_dgemm` / :func:`emulated_sgemm` —
  drop-in style helpers targeting FP64 / FP32,
* :class:`repro.config.Ozaki2Config` — the configuration object,
* :func:`repro.core.planner.choose_num_moduli` — pick ``N`` for a target
  accuracy.
"""

from __future__ import annotations

from .accumulation import accumulate_residue_products, reconstruct_crt, unscale
from .blocking import blocked_residue_products, k_block_ranges
from .conversion import residue_slices, truncate_scaled
from .gemm import (
    PhaseTimes,
    emulated_dgemm,
    emulated_sgemm,
    ozaki2_gemm,
)
from .gemv import GemvResult, prepared_gemv
from .operand import ResidueOperand, prepare_a, prepare_b
from .planner import choose_num_moduli, estimate_retained_bits
from .scaling import (
    accurate_mode_scales,
    fast_mode_scale_a,
    fast_mode_scale_b,
    fast_mode_scales,
    scale_exponent_budget,
)

__all__ = [
    "ResidueOperand",
    "prepare_a",
    "prepare_b",
    "fast_mode_scale_a",
    "fast_mode_scale_b",
    "accumulate_residue_products",
    "reconstruct_crt",
    "unscale",
    "blocked_residue_products",
    "k_block_ranges",
    "residue_slices",
    "truncate_scaled",
    "PhaseTimes",
    "GemvResult",
    "prepared_gemv",
    "emulated_dgemm",
    "emulated_sgemm",
    "ozaki2_gemm",
    "choose_num_moduli",
    "estimate_retained_bits",
    "accurate_mode_scales",
    "fast_mode_scales",
    "scale_exponent_budget",
]
