#!/usr/bin/env python
"""Choosing the number of moduli: accuracy/throughput trade-off explorer.

The accuracy of Ozaki scheme II is controlled by the number of moduli ``N``
(Figure 3) while its cost grows linearly in ``N`` (Figures 4-5).  This
example sweeps ``N`` for a user-selected workload, measures the actual
accuracy on this machine and the modelled GH200 throughput of each setting —
i.e. exactly the trade-off a user of the library has to navigate — and sets
the smallest measured ``N`` that reaches native accuracy beside the count
``num_moduli="auto"`` selects for its default accuracy target.

Usage::

    python examples/precision_selection.py [n] [phi]

Defaults: n = 320, phi = 1.0.
"""

from __future__ import annotations

import sys

import numpy as np

from repro import emulated_dgemm, emulated_sgemm
from repro.accuracy import max_relative_error, reference_gemm
from repro.harness import format_table
from repro.perfmodel import modeled_tflops
from repro.workloads import phi_pair


def _report(rows, auto, label: str) -> None:
    """The auto selection beside the smallest measured N reaching native."""
    sel = auto.moduli_selection
    print(
        f"auto selection for {label} (target {sel.target:g}): "
        f"N = {sel.num_moduli}, decided_by = {sel.decided_by}"
    )
    native = [row["N"] for row in rows if row[f"reaches_{label}"]]
    print(
        f"smallest measured N reaching native {label} accuracy: "
        f"{native[0] if native else 'none in the table'}"
    )


def main(n: int = 320, phi: float = 1.0) -> None:
    a, b = phi_pair(n, n, n, phi=phi, seed=11)
    reference = reference_gemm(a, b)
    native_err = max_relative_error(a @ b, reference)

    rows = []
    for num_moduli in range(8, 19, 2):
        c = emulated_dgemm(a, b, num_moduli=num_moduli)
        rows.append(
            {
                "N": num_moduli,
                "max_rel_error": max_relative_error(c, reference),
                "reaches_fp64": max_relative_error(c, reference) <= 2 * native_err,
                "GH200_model_TFLOPS": modeled_tflops(
                    f"OS II-fast-{num_moduli}", "GH200", 16384, 16384, 16384, target="fp64"
                ),
            }
        )
    print(format_table(rows, title=f"DGEMM emulation, phi={phi}: accuracy vs modelled throughput"))
    print(f"\nnative DGEMM max relative error: {native_err:.3e}")
    _report(rows, emulated_dgemm(a, b, num_moduli="auto", return_details=True), "fp64")

    a32, b32 = phi_pair(n, n, n, phi=phi, precision="fp32", seed=12)
    ref32 = reference_gemm(a32, b32)
    native32 = max_relative_error(np.matmul(a32, b32, dtype=np.float32), ref32)
    rows = []
    for num_moduli in range(4, 11):
        c = emulated_sgemm(a32, b32, num_moduli=num_moduli)
        rows.append(
            {
                "N": num_moduli,
                "max_rel_error": max_relative_error(c, ref32),
                "reaches_fp32": max_relative_error(c, ref32) <= 2 * native32,
                "GH200_model_TFLOPS": modeled_tflops(
                    f"OS II-fast-{num_moduli}", "GH200", 16384, 16384, 16384, target="fp32"
                ),
            }
        )
    print()
    print(format_table(rows, title=f"SGEMM emulation, phi={phi}: accuracy vs modelled throughput"))
    print(f"\nnative SGEMM max relative error: {native32:.3e}")
    _report(rows, emulated_sgemm(a32, b32, num_moduli="auto", return_details=True), "fp32")


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 320
    spread = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    main(size, spread)
