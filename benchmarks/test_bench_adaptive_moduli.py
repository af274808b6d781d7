"""Adaptive-moduli benchmark: auto-N emulation and progressive solves.

Two experiments back the adaptive-precision subsystem
(:mod:`repro.crt.adaptive`):

* **Auto-N GEMM** — small-k / well-scaled workload families run through
  ``num_moduli="auto"`` (default accuracy target unless the family pins
  one) against the paper's fixed DGEMM default ``N = 15``.  Asserted on
  every family: the measured max element-wise error stays within the
  selection's bound (rigorous, or calibrated when the measured-margin
  model decided — ``decided_by`` in the table), and the auto result is
  *bitwise identical* to a fixed run at the selected count (auto selection
  chooses the configuration, never the arithmetic — the fixed route is the
  in-tree comparator).  The headline family must cut the INT8 work by >= 1.3x (the
  ledgers' MAC ratio; the end-to-end speedup is recorded next to it), and
  the ``fp64-deepk`` family must show the calibrated model certifying N=9
  where the rigorous bound demands 11.

* **Progressive-precision CG** — the moduli-escalation ladder
  (``progressive=True``) against the fixed-count solve on the
  ill-conditioned SPD family.  Both routes face the same full-count
  residual check; the progressive route must spend fewer INT8 MACs than
  the fixed route (read from the solves' ledgers, so the comparison is
  deterministic; the wall clocks are recorded next to it).

The tables are archived in ``benchmarks/results/adaptive_moduli.txt`` (and
uploaded as a CI artifact by the smoke job);
``tests/test_benchmark_artifacts.py`` asserts the committed table stays
parseable and keeps certifying the claims.
"""

from __future__ import annotations

import os

from repro.harness import adaptive_moduli_sweep, progressive_solver_sweep
from repro.harness.report import format_table

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
CPUS = os.cpu_count() or 1

#: Small-k / well-scaled families (phi=0.5 is the HPL-like spread).  The
#: first row is the headline acceptance family; the fp32 families compare
#: against the SGEMM default N=8.  ``n_rigorous`` / ``decided_by`` in the
#: archived table show which selection model fixed each count: the
#: calibrated model (measured margins minus the guard, see
#: :mod:`repro.crt.calibration`) lowers N=11 -> 10 on the k >= 32 fp64
#: rows at the default target, and on ``fp64-deepk`` — whose target sits
#: just below the rigorous N=10 boundary, the regime where the rigorous
#: model over-provisions hardest — it certifies N=9 where the rigorous
#: model demands 11.  ``fp64-smallk`` and ``fp32-smallk`` document the
#: safe fallback: on the tightest band the observed margin does not clear
#: the guard plus the count gap, so the rigorous selection stands.
FAMILIES = [
    {"label": "fp64-smallk", "m": 768, "k": 16, "n": 768, "phi": 0.5},
    {"label": "fp64-k32", "m": 512, "k": 32, "n": 512, "phi": 0.5},
    {"label": "fp64-phi1", "m": 384, "k": 64, "n": 384, "phi": 1.0},
    {
        "label": "fp64-deepk",
        "m": 256,
        "k": 1024,
        "n": 256,
        "phi": 0.5,
        "target_accuracy": 5e-10,
    },
    {
        "label": "fp32-smallk",
        "m": 512,
        "k": 32,
        "n": 512,
        "phi": 0.5,
        "precision": "fp32",
        "num_moduli_fixed": 8,
    },
    {
        "label": "fp32-k256",
        "m": 256,
        "k": 256,
        "n": 256,
        "phi": 0.5,
        "precision": "fp32",
        "num_moduli_fixed": 8,
    },
]

REPEATS = 5 if FULL else 3

#: Progressive-CG system: the preconditioner benchmark's ill-conditioned
#: SPD family, large enough that per-iteration matvec cost dominates the
#: ladder's operand re-derivations.
SOLVE_SIZE = 1024
SOLVE_COND = 1e3


def test_bench_adaptive_auto_moduli_speedup(save_result):
    rows = adaptive_moduli_sweep(FAMILIES, repeats=REPEATS)
    gemm_table = format_table(
        rows,
        float_format=".3e",
        title=(
            f"adaptive moduli: auto-N vs fixed N (default target_accuracy, "
            f"{CPUS} CPUs)"
        ),
    )

    solver_rows = progressive_solver_sweep(
        size=SOLVE_SIZE, cond=SOLVE_COND, tol=1e-10
    )
    solver_table = format_table(
        solver_rows,
        float_format=".3e",
        title=(
            f"progressive-precision CG vs fixed N=15 (ill-conditioned SPD, "
            f"n={SOLVE_SIZE}, cond={SOLVE_COND:g}, {CPUS} CPUs)"
        ),
    )
    save_result("adaptive_moduli", gemm_table + "\n\n" + solver_table)

    # The accuracy guarantee and the comparator guarantee hold on EVERY
    # tested family.
    assert all(row["within_bound"] for row in rows), [
        (row["family"], row["max_error"], row["error_bound"]) for row in rows
    ]
    assert all(row["bit_identical"] for row in rows)
    # Auto never selects beyond the table ceiling, and always fewer moduli
    # than the fixed default on these well-scaled families.
    assert all(row["n_auto"] <= 20 for row in rows)
    assert all(row["n_auto"] < row["n_fixed"] for row in rows)

    # Headline acceptance: >= 1.3x less INT8 work on the small-k /
    # well-scaled fp64 family at the default accuracy target.  The measured
    # end-to-end speedup (~1.4x) sits too close to that floor for a
    # best-of-3 wall clock on a shared host, so it is recorded, not gated.
    headline = rows[0]
    assert headline["mac_ratio"] >= 1.3, (
        f"auto-N cut the INT8 MACs only {headline['mac_ratio']:.2f}x vs fixed "
        f"N=15 on {headline['family']} (selected N={headline['n_auto']})"
    )

    # Calibrated-selection acceptance: the measured-margin model lowers the
    # count below the rigorous selection on the deep-k family (11 -> 9) and
    # the within_bound/bit_identical asserts above certify the result
    # against the *calibrated* bound; the small-k rows must show the safe
    # fallback (rigorous decided, count unchanged).
    by_label = {row["family"]: row for row in rows}
    deepk = by_label["fp64-deepk"]
    assert deepk["decided_by"] == "calibrated", deepk
    assert deepk["n_auto"] <= 9 < deepk["n_rigorous"], deepk
    assert by_label["fp64-smallk"]["decided_by"] == "rigorous"
    assert all(row["n_auto"] <= row["n_rigorous"] for row in rows)

    # Progressive CG: same final residual check, with less INT8 work.  The
    # expected wall-clock gain (~1.1x) is within run-to-run noise of a
    # single solve per side, so the seconds are recorded, not asserted.
    fixed, prog = solver_rows
    assert fixed["converged"] and prog["converged"]
    assert prog["residual"] <= prog["tol"]
    assert prog["int8_macs"] < fixed["int8_macs"], (
        f"progressive CG ran {prog['int8_macs']} INT8 MACs vs fixed "
        f"{fixed['int8_macs']} (schedule {prog['schedule']})"
    )
