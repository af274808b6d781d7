"""Ablation benchmarks for the design choices called out in DESIGN.md.

Each ablation isolates one implementation technique of Section 4 and
quantifies what it buys:

* split-constant (``s_i1``/``s_i2``) accumulation vs naive FP64 accumulation
  of the raw INT32 products,
* fast vs accurate computing mode (accuracy for wide exponent spreads),
* the production conversion and ``mod`` vs the paper's fast-FMA ``rmod``
  and ``__mulhi`` ``mod``, called directly as the reference functions they
  are (identical results; their measured cost on this CPU),
* UINT8 residue accumulation vs INT32 accumulation (memory traffic in the
  cost model).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import emulated_dgemm
from repro.accuracy import max_relative_error, reference_gemm
from repro.config import Ozaki2Config
from repro.core.conversion import residue_slices, truncate_scaled
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a, prepare_b
from repro.core.scaling import fast_mode_scales
from repro.crt.constants import build_constant_table
from repro.crt.residues import (
    mod_fast_mulhi,
    residues_to_int8,
    rmod_fast_fma,
    uint8_residues_stack,
)
from repro.harness.report import format_table
from repro.workloads import phi_pair


def _naive_reconstruction(a, b, num_moduli):
    """Ablation: accumulate w_i * C'_i directly in FP64 (no s1/s2 split, no
    UINT8 reduction) — the approach the paper's Section 4.3 warns against."""
    table = build_constant_table(num_moduli, 64)
    mu, nu = fast_mode_scales(a, b, table)
    a_prime = truncate_scaled(a, mu, "left")
    b_prime = truncate_scaled(b, nu, "right")
    a_slices = residue_slices(a_prime, table)
    b_slices = residue_slices(b_prime, table)
    c_acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(num_moduli):
        c_i = a_slices[i].astype(np.float64) @ b_slices[i].astype(np.float64)
        u_i = np.mod(c_i, float(table.moduli[i]))
        # weight applied as a single rounded float64 constant
        c_acc += float(table.weights_int[i]) * u_i
    q = np.rint(c_acc * table.Pinv)
    c_pp = c_acc - float(table.P_int) * q
    return (c_pp / mu[:, None]) / nu[None, :]


def test_bench_ablation_split_accumulation(benchmark, save_result):
    """The s1/s2 split accumulation is what makes FP64-level accuracy
    reachable; the naive accumulation plateaus orders of magnitude earlier."""
    a, b = phi_pair(192, 384, 160, phi=0.5, seed=0)
    ref = reference_gemm(a, b)

    def run():
        rows = []
        for n in (12, 14, 16):
            split_err = max_relative_error(emulated_dgemm(a, b, num_moduli=n), ref)
            naive_err = max_relative_error(_naive_reconstruction(a, b, n), ref)
            rows.append(
                {"num_moduli": n, "split_s1s2_error": split_err, "naive_fp64_error": naive_err}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_split_accumulation",
        format_table(rows, float_format=".3e", title="Ablation: split-constant accumulation"),
    )
    for row in rows:
        assert row["split_s1s2_error"] < row["naive_fp64_error"]
    # With 16 moduli the split accumulation is at least 100x more accurate.
    assert rows[-1]["split_s1s2_error"] * 100 < rows[-1]["naive_fp64_error"]


def test_bench_ablation_fast_vs_accurate_mode(benchmark, save_result):
    """Accurate mode buys accuracy for wide exponent spreads (phi = 4)."""
    a, b = phi_pair(160, 320, 128, phi=4.0, seed=1)
    ref = reference_gemm(a, b)

    def run():
        rows = []
        for n in (12, 14, 16):
            fast = max_relative_error(emulated_dgemm(a, b, num_moduli=n, mode="fast"), ref)
            accu = max_relative_error(emulated_dgemm(a, b, num_moduli=n, mode="accurate"), ref)
            rows.append({"num_moduli": n, "fast_error": fast, "accurate_error": accu})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result(
        "ablation_fast_vs_accurate",
        format_table(rows, float_format=".3e", title="Ablation: fast vs accurate mode (phi=4)"),
    )
    assert all(row["accurate_error"] <= row["fast_error"] * 1.5 for row in rows)


def _best_seconds(fn, repeats=5):
    """Shortest of ``repeats`` wall-clock timings of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paper_residues(x_prime, table):
    """Lines 4-5 by the paper's fast FMA ``rmod`` (Section 4.2), one modulus
    at a time, cast to INT8 as the hardware does (``+128`` wraps to ``-128``)."""
    out = np.empty((table.num_moduli,) + x_prime.shape, dtype=np.int8)
    for i, p in enumerate(table.moduli):
        r = rmod_fast_fma(
            x_prime, p, table.pinv64[i], table.pinv32[i], table.num_moduli,
            table.precision_bits,
        )
        r = np.rint(r).astype(np.int16)
        r[r == 128] = -128
        out[i] = r
    return out


def _mulhi_stack(c_stack, table):
    """Line 7 by the paper's ``__mulhi`` ``mod`` (Section 4.3), one modulus
    at a time, into a UINT8 stack."""
    out = np.empty(c_stack.shape, dtype=np.uint8)
    for i, p in enumerate(table.moduli):
        out[i] = mod_fast_mulhi(c_stack[i], p, int(table.pinv_prime[i]))
    return out


def test_bench_ablation_residue_kernels(benchmark, save_result):
    """The paper's fast residue kernels — the FMA/reciprocal conversion of
    Section 4.2 and the ``__mulhi`` mod of Section 4.3 — are reference
    functions that give the production results: a GEMM whose operands carry
    the paper kernel's residues returns the production bits, and the
    ``__mulhi`` U stack is the production one.  The table records, next to
    each equivalence, the seconds the production kernel and the paper's
    kernel take on this CPU (recorded, not gated)."""
    a, b = phi_pair(192, 256, 160, phi=1.0, seed=2)
    config = Ozaki2Config.for_dgemm(15)
    table = build_constant_table(15, 64)

    def with_paper_residues(prep, side):
        x_prime = truncate_scaled(prep.source, prep.scale_exp, side)
        return dataclasses.replace(prep, slices=_paper_residues(x_prime, table))

    def run():
        exact = ozaki2_gemm(a, b, config=config)
        pa = with_paper_residues(prepare_a(a, config), "left")
        pb = with_paper_residues(prepare_b(b, config), "right")
        return exact, ozaki2_gemm(pa, pb, config=config)

    exact, fast = benchmark.pedantic(run, rounds=1, iterations=1)
    max_diff = float(np.max(np.abs(exact - fast)))

    mu, _ = fast_mode_scales(a, b, table)
    a_prime = truncate_scaled(a, mu, "left")
    convert_seconds = {
        "exact": _best_seconds(lambda: residues_to_int8(a_prime, table.moduli)),
        "fast_fma": _best_seconds(lambda: _paper_residues(a_prime, table)),
    }
    rng = np.random.default_rng(2)
    c_stack = rng.integers(-(2**31), 2**31, (15, 192, 160)).astype(np.int32)
    mod_seconds = {
        "floor_divide": _best_seconds(lambda: uint8_residues_stack(c_stack, table.moduli)),
        "mulhi": _best_seconds(lambda: _mulhi_stack(c_stack, table)),
    }
    u_diff = int(np.max(np.abs(
        uint8_residues_stack(c_stack, table.moduli).astype(np.int64)
        - _mulhi_stack(c_stack, table).astype(np.int64)
    )))
    rows = [
        {
            "kernel_pair": "exact vs fast_fma (GEMM result)",
            "max_abs_difference": max_diff,
            "production_seconds": convert_seconds["exact"],
            "paper_kernel_seconds": convert_seconds["fast_fma"],
        },
        {
            "kernel_pair": "floor_divide vs mulhi (U stack)",
            "max_abs_difference": float(u_diff),
            "production_seconds": mod_seconds["floor_divide"],
            "paper_kernel_seconds": mod_seconds["mulhi"],
        },
    ]
    save_result(
        "ablation_residue_kernels",
        format_table(
            rows,
            float_format=".3e",
            title="Ablation: residue kernel equivalence and cost "
            "(conversion of a 192x256 A', mod of a 15x192x160 stack; best of 5)",
        ),
    )
    assert max_diff == 0.0
    assert u_diff == 0


def test_bench_ablation_uint8_vs_int32_accumulation_traffic(benchmark, save_result):
    """Reducing C'_i to UINT8 residues and fusing the weighted sum into one
    kernel (lines 7-9 of Alg. 1) moves far fewer bytes than accumulating the
    FP64 result after every INT8 GEMM, and the paper's ``__mulhi`` mod kernel
    gives bit-identical UINT8 residues to the production integer remainder."""
    rng = np.random.default_rng(3)
    table = build_constant_table(15, 64)
    c_stack = rng.integers(-(2**31), 2**31, (15, 64, 64)).astype(np.int32)

    def run():
        return uint8_residues_stack(c_stack, table.moduli), _mulhi_stack(c_stack, table)

    u_production, u_mulhi = benchmark.pedantic(run, rounds=1, iterations=1)
    np.testing.assert_array_equal(u_production, u_mulhi)

    # Modelled accumulation-stage traffic at the paper's largest size.
    n_mod, size = 15, 8192
    elements = size * size
    # Paper: read each INT32 product once, write one UINT8 residue, then one
    # fused pass reading the N UINT8 planes and writing C'(1)/C'(2) in FP64.
    paper_bytes = n_mod * elements * (4 + 1) + elements * (n_mod * 1 + 2 * 8)
    # Naive: after each of the N INT8 GEMMs, read the INT32 product and
    # read-modify-write the two FP64 accumulators.
    naive_bytes = n_mod * elements * (4 + 2 * 8 * 2)
    rows = [
        {"variant": "uint8 residues + fused sum (paper)", "accumulate_bytes": paper_bytes},
        {"variant": "per-GEMM fp64 accumulation", "accumulate_bytes": naive_bytes},
        {"variant": "traffic ratio", "accumulate_bytes": naive_bytes / paper_bytes},
    ]
    save_result(
        "ablation_uint8_accumulation",
        format_table(rows, float_format=".4g", title="Ablation: accumulation memory traffic"),
    )
    assert paper_bytes * 3 < naive_bytes
