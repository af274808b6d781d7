#!/usr/bin/env python
"""Quickstart: emulate DGEMM and SGEMM with Ozaki scheme II.

Runs the emulated GEMM on an HPL-like workload, compares its accuracy
against native GEMM and the prior INT8 emulation (ozIMMU), and prints the
per-phase wall-clock breakdown of the emulation on this machine.

Usage::

    python examples/quickstart.py [n]

where ``n`` (default 384) is the square problem size.
"""

from __future__ import annotations

import sys


from repro import Ozaki2Config, Session, emulated_dgemm, emulated_sgemm
from repro.accuracy import max_relative_error, reference_gemm
from repro.baselines import native_dgemm, native_sgemm, ozimmu_gemm
from repro.harness import format_table
from repro.workloads import hpl_like_pair


def main(n: int = 384) -> None:
    print(f"== Ozaki scheme II quickstart (m = k = n = {n}) ==\n")

    # --- DGEMM emulation ---------------------------------------------------
    a, b = hpl_like_pair(n, n, n, seed=0)
    reference = reference_gemm(a, b)

    rows = []
    rows.append(
        {"method": "native DGEMM", "max_rel_error": max_relative_error(native_dgemm(a, b), reference)}
    )
    rows.append(
        {"method": "ozIMMU_EF-9", "max_rel_error": max_relative_error(ozimmu_gemm(a, b, 9), reference)}
    )
    for num_moduli in (12, 14, 15, 16):
        c = emulated_dgemm(a, b, num_moduli=num_moduli)
        rows.append(
            {"method": f"OS II-fast-{num_moduli}", "max_rel_error": max_relative_error(c, reference)}
        )
    print(format_table(rows, title="DGEMM emulation accuracy (vs double-double reference)"))
    print()

    # --- SGEMM emulation ---------------------------------------------------
    a32, b32 = hpl_like_pair(n, n, n, precision="fp32", seed=1)
    ref32 = reference_gemm(a32, b32)
    rows = [
        {"method": "native SGEMM", "max_rel_error": max_relative_error(native_sgemm(a32, b32), ref32)}
    ]
    for num_moduli in (6, 7, 8):
        c = emulated_sgemm(a32, b32, num_moduli=num_moduli)
        rows.append(
            {"method": f"OS II-fast-{num_moduli}", "max_rel_error": max_relative_error(c, ref32)}
        )
    print(format_table(rows, title="SGEMM emulation accuracy"))
    print()

    # --- per-phase breakdown of one emulated DGEMM --------------------------
    # cache_bytes=0: convert both operands inside the call, so the
    # breakdown shows the conversion phases instead of a cache hit.
    with Session(Ozaki2Config.for_dgemm(num_moduli=15), cache_bytes=0) as session:
        result = session.gemm(a, b)
    rows = [
        {"phase": phase, "seconds": seconds, "fraction": frac}
        for (phase, seconds), frac in zip(
            result.phase_times.seconds.items(), result.phase_times.fractions().values()
        )
    ]
    print(format_table(rows, title=f"CPU wall-clock breakdown of {result.method_name}"))
    print(
        f"\nINT8 engine issued {result.ledger.matmul_calls} GEMMs "
        f"({result.ledger.mac_ops / 1e9:.2f} GMACs)."
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 384
    main(size)
