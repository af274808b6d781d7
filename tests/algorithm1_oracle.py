"""A slow, literal transcription of Algorithm 1: the reference for the tests.

Each function is one group of lines of the paper's Algorithm 1, written one
modulus at a time from the reference kernels that stay in ``src/`` for this
purpose: the exact integer ``rmod``/``mod`` (``kernel="exact"``) or the
paper's FMA ``rmod`` of Section 4.2 and ``__mulhi`` ``mod`` of Section 4.3
(``kernel="fast_fma"``), the INT8 engine's pure-integer path, called per
modulus and k-block by ``blocked_residue_products`` (partials summed in
int64), and the software FMA.  Nothing here tiles, chunks or runs in
parallel, so a production route that returns :func:`gemm`'s bits and ledger
executes Algorithm 1 and nothing else — and since production returns them
under either kernel pair, the paper's kernels give the production bits.
Line 1 is production's own scaling.
"""

from __future__ import annotations

import numpy as np

from repro.config import MAX_K_WITHOUT_BLOCKING, ComputeMode
from repro.core.accumulation import unscale
from repro.core.blocking import blocked_residue_products
from repro.core.conversion import truncate_scaled
from repro.core.scaling import accurate_mode_scales, fast_mode_scales
from repro.crt.constants import build_constant_table
from repro.crt.residues import mod_exact, mod_fast_mulhi, rmod_exact, rmod_fast_fma
from repro.engines.int8 import Int8MatrixEngine
from repro.types import result_dtype
from repro.utils.fma import fma


#: The oracle's kernel pairs: the exact integer ``rmod``/``mod``, and the
#: paper's ``rmod_fast_fma``/``mod_fast_mulhi``.
KERNELS = ("exact", "fast_fma")


def residues(x_prime, table, kernel="exact"):
    """Lines 4-5: ``rmod(X', p_i)`` as INT8, one modulus after another."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown oracle kernel {kernel!r}")
    out = []
    for i, p in enumerate(table.moduli):
        if kernel == "exact":
            r = rmod_exact(x_prime, p)
        else:
            r = rmod_fast_fma(
                x_prime, p, table.pinv64[i], table.pinv32[i], table.num_moduli,
                table.precision_bits,
            )
        r = np.rint(r).astype(np.int16)
        r[r == 128] = -128  # the INT8 cast of +128 (p = 256 only), Section 4.1
        out.append(r.astype(np.int8))
    return out


def accumulate(c, table, use_mulhi=False):
    """Lines 7-9: ``U_i = mod(C'_i, p_i)``; ``C1 += s1_i U_i``, ``C2 += s2_i U_i``."""
    c1, c2 = np.zeros(c[0].shape), np.zeros(c[0].shape)
    for i, p in enumerate(table.moduli):
        if use_mulhi:
            u = mod_fast_mulhi(c[i], p, int(table.pinv_prime[i])).astype(np.float64)
        else:
            u = mod_exact(c[i], p).astype(np.float64)
        c1 += table.s1[i] * u
        c2 += table.s2[i] * u
    return c1, c2


def reconstruct(c1, c2, table):
    """Lines 10-11: ``Q = round(Pinv C1)``, ``C'' = fma(-P2, Q, fma(-P1, Q, C1) + C2)``."""
    q = np.rint(table.Pinv * c1)
    t = fma(np.full_like(q, -table.P1), q, c1) + c2
    return fma(np.full_like(q, -table.P2), q, t)


def gemm(a, b, config, block=MAX_K_WITHOUT_BLOCKING, kernel="exact"):
    """Algorithm 1 for ``A @ B`` under a concrete ``config``.

    ``kernel`` picks the ``rmod``/``mod`` pair (:data:`KERNELS`); the paper's
    ``__mulhi`` ``mod`` takes INT32 products, so a k-blocked (int64) stack
    is reduced by the exact ``mod``.  Returns ``(C, ledger)``: the product
    in the target precision and the op ledger of the reference INT8 engine
    that ran every product.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    table = build_constant_table(config.num_moduli, 64 if config.is_dgemm else 32)
    engine = Int8MatrixEngine(use_blas=False)
    if config.mode is ComputeMode.FAST:
        mu, nu = fast_mode_scales(a, b, table)
    else:
        mu, nu, _ = accurate_mode_scales(a, b, table, engine, block)
    a_res = residues(truncate_scaled(a, mu, "left"), table, kernel)
    b_res = residues(truncate_scaled(b, nu, "right"), table, kernel)
    # Line 6: C'_i = A'_i B'_i, one engine call per modulus and k-block.
    c = blocked_residue_products(engine, np.stack(a_res), np.stack(b_res), block)
    use_mulhi = kernel == "fast_fma" and c[0].dtype == np.int32
    c_pp = reconstruct(*accumulate(c, table, use_mulhi), table)
    engine.counter.record_emulated(config.num_moduli)
    return unscale(c_pp, mu, nu, out_dtype=result_dtype(config.precision)), engine.counter
