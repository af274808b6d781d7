"""Tier-1 checks on committed benchmark artifacts.

The GEMV fast-path benchmark (``benchmarks/test_bench_gemv_fast_path.py``)
archives its per-iteration latency comparison in
``benchmarks/results/gemv_fast_path.txt``, and the other benchmarks their
tables next to it; the tables are committed so the measured speedups travel
with the repository and CI uploads fresh copies from the smoke job.  These
tests assert the committed artifacts exist and still parse: both routes
present, and the committed speedup claims recoverable — and still meeting
their acceptance floors — from the speedup columns.
"""

from __future__ import annotations

import pathlib
import re

import pytest

_RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "results"
GEMV_FAST_PATH_RESULT = _RESULTS / "gemv_fast_path.txt"
ADAPTIVE_MODULI_RESULT = _RESULTS / "adaptive_moduli.txt"
SERVE_THROUGHPUT_RESULT = _RESULTS / "serve_throughput.txt"
PROCESS_SCALING_RESULT = _RESULTS / "process_scaling.txt"
RUNTIME_SCALING_RESULT = _RESULTS / "runtime_scaling.txt"


def _parse_rows(text: str):
    """Parse the rendered ASCII table into dictionaries keyed by header.

    Columns are separated by runs of two or more spaces (cell values such
    as the method name ``OS II-fast-15`` contain single spaces).
    """
    lines = [line.rstrip() for line in text.splitlines() if line.strip()]
    # Locate the header row: it is immediately above the dashed separator.
    sep_idx = next(
        i for i, line in enumerate(lines) if line.lstrip().startswith("---")
    )
    split = re.compile(r"\s{2,}")
    header = split.split(lines[sep_idx - 1].strip())
    rows = []
    for line in lines[sep_idx + 1 :]:
        cells = split.split(line.strip())
        if len(cells) != len(header):
            continue
        rows.append(dict(zip(header, cells, strict=True)))
    return rows


def _all_result_files():
    return sorted(_RESULTS.glob("*.txt"))


@pytest.mark.parametrize(
    "path", _all_result_files(), ids=lambda p: p.stem if p else "none"
)
def test_every_artifact_carries_provenance(path):
    """Every committed results file opens with a machine-readable
    provenance stamp: where, when and from which revision the numbers
    came (``repro.harness.provenance``).  An artifact without one cannot
    be audited — regenerate it via its benchmark."""
    from repro.harness.provenance import SCHEMA, parse_provenance

    fields = parse_provenance(path.read_text())
    assert fields, f"{path.name} carries no provenance header"
    for key in (
        "schema",
        "generated",
        "host",
        "cpus",
        "python",
        "numpy",
        "repro_version",
        "git_sha",
        "artifact",
    ):
        assert key in fields, f"{path.name} provenance is missing {key!r}"
    assert fields["schema"] == SCHEMA
    assert fields["artifact"] == path.stem
    assert int(fields["cpus"]) >= 1


def test_results_directory_is_populated():
    names = {p.stem for p in _all_result_files()}
    assert {
        "gemv_fast_path",
        "adaptive_moduli",
        "calibration_qc",
        "process_scaling",
        "runtime_scaling",
        "serve_throughput",
    } <= names


def test_gemv_fast_path_file_exists_and_parses():
    assert GEMV_FAST_PATH_RESULT.exists(), (
        "benchmarks/results/gemv_fast_path.txt is missing; run "
        "`pytest benchmarks/test_bench_gemv_fast_path.py` to regenerate it"
    )
    rows = _parse_rows(GEMV_FAST_PATH_RESULT.read_text())
    routes = {row["route"] for row in rows}
    assert {"gemv-fast", "gemm-n1"} <= routes
    # The archived per-iteration latencies back the committed speedup claim:
    # the fast path must stay >= 2x below the n=1 GEMM route at the
    # 4096x4096 acceptance scale.
    by_route = {row["route"]: row for row in rows}
    fast = by_route["gemv-fast"]
    assert float(fast["speedup_vs_gemm"]) >= 2.0
    assert float(fast["per_iter_seconds"]) <= 0.5 * float(
        by_route["gemm-n1"]["per_iter_seconds"]
    )
    assert all(row["n"] == "4096" for row in rows)
    # Every archived row must certify the fast-path guarantees.
    assert all(row["bit_identical"] == "True" for row in rows)
    assert all(row["ledger_equal"] == "True" for row in rows)


def test_adaptive_moduli_file_exists_and_parses():
    assert ADAPTIVE_MODULI_RESULT.exists(), (
        "benchmarks/results/adaptive_moduli.txt is missing; run "
        "`pytest benchmarks/test_bench_adaptive_moduli.py` to regenerate it"
    )
    text = ADAPTIVE_MODULI_RESULT.read_text()
    gemm_text, solver_text = text.split("\n\n", 1)

    rows = _parse_rows(gemm_text)
    assert rows, "no auto-N rows in adaptive_moduli.txt"
    # Every archived family must certify the adaptive guarantees: measured
    # error within the model's bound, bitwise equality with the fixed-count
    # comparator, selection at or below the table ceiling and strictly
    # below the fixed default.
    assert all(row["within_bound"] == "True" for row in rows)
    assert all(row["bit_identical"] == "True" for row in rows)
    assert all(2 <= int(row["n_auto"]) <= 20 for row in rows)
    assert all(int(row["n_auto"]) < int(row["n_fixed"]) for row in rows)
    # The committed headline claim: >= 1.3x on the small-k well-scaled fp64
    # family at the default accuracy target — on the ledgers' INT8 MAC
    # ratio where the table records it, else end to end.
    headline = rows[0]
    assert headline["precision"] == "fp64"
    assert float(headline.get("mac_ratio", headline["speedup"])) >= 1.3
    # The calibrated model's committed claims: no family ever selects
    # above its rigorous count; the deep-k family is lowered by the
    # calibration (the two-modulus headline) while the small-k family
    # documents the guaranteed-safe fallback deciding.
    assert all(int(row["n_auto"]) <= int(row["n_rigorous"]) for row in rows)
    by_family = {row["family"]: row for row in rows}
    deepk = by_family["fp64-deepk"]
    assert deepk["decided_by"] == "calibrated"
    assert int(deepk["n_auto"]) <= 9 < int(deepk["n_rigorous"])
    assert by_family["fp64-smallk"]["decided_by"] == "rigorous"

    solver_rows = _parse_rows(solver_text)
    routes = {row["route"]: row for row in solver_rows}
    assert {"fixed", "progressive"} <= set(routes)
    assert all(row["converged"] == "True" for row in solver_rows)
    prog, fixed = routes["progressive"], routes["fixed"]
    # Same final residual check, with less INT8 work (or, in tables that
    # predate the MAC column, within the fixed-count wall clock).
    assert float(prog["residual"]) <= float(prog["tol"])
    if "int8_macs" in prog:
        assert int(prog["int8_macs"]) < int(fixed["int8_macs"])
    else:
        assert float(prog["seconds"]) <= float(fixed["seconds"])
    # The schedule must escalate and end at the fixed count.
    stages = [int(seg.split("x")[0]) for seg in prog["schedule"].split("->")]
    assert stages == sorted(stages)
    assert stages[-1] == int(fixed["schedule"].split("x")[0])


def test_calibration_qc_file_exists_and_parses():
    path = _RESULTS / "calibration_qc.txt"
    assert path.exists(), (
        "benchmarks/results/calibration_qc.txt is missing; run "
        "`pytest benchmarks/test_bench_calibration_qc.py` to regenerate it"
    )
    control_text, sweep_text, margin_text = path.read_text().split("\n\n", 2)

    controls = _parse_rows(control_text)
    assert controls, "no negative-control rows in calibration_qc.txt"
    # Red controls invalidate every other number in the file.
    assert all(row["control_ok"] == "True" for row in controls)

    sweep = _parse_rows(sweep_text)
    assert sweep, "no sensitivity rows in calibration_qc.txt"
    assert all(row["within_bound"] == "True" for row in sweep)

    margins = _parse_rows(margin_text)
    assert margins, "no margin rows in calibration_qc.txt"
    # The shipped calibration must not claim more margin than the archived
    # run measured on the same band.
    assert all(row["shipped_not_stale"] == "True" for row in margins)


def test_process_scaling_file_exists_and_parses():
    assert PROCESS_SCALING_RESULT.exists(), (
        "benchmarks/results/process_scaling.txt is missing; run "
        "`pytest benchmarks/test_bench_process_scaling.py` to regenerate it"
    )
    rows = _parse_rows(PROCESS_SCALING_RESULT.read_text())
    executors = {row["executor"] for row in rows}
    assert {"thread", "process"} <= executors
    # Every archived row must certify the runtime's backend-independence
    # guarantees against the serial baseline.
    assert all(row["bit_identical"] == "True" for row in rows)
    assert all(row["ledger_equal"] == "True" for row in rows)
    # The host the numbers came from must be recorded — a sub-1x process
    # speedup on a 1-CPU container and on a 16-core box mean different
    # things, and the >=1.5x acceptance floor only binds on >=4 CPUs.
    assert all(int(row["host_cpus"]) >= 1 for row in rows)
    # The phase breakdown that motivated the backend must be present.
    headline = rows[0]
    for phase in ("phase_convert_A", "phase_matmul", "phase_accumulate"):
        assert float(headline[phase]) >= 0.0


def test_runtime_scaling_file_exists_and_parses():
    assert RUNTIME_SCALING_RESULT.exists(), (
        "benchmarks/results/runtime_scaling.txt is missing; run "
        "`pytest benchmarks/test_bench_runtime_scaling.py` to regenerate it"
    )
    text = RUNTIME_SCALING_RESULT.read_text()
    rows = _parse_rows(text.split("\n\n", 1)[0])
    assert rows, "no scaling rows in runtime_scaling.txt"
    assert all(row["bit_identical"] == "True" for row in rows)
    assert all(int(row["host_cpus"]) >= 1 for row in rows)
    workers = {int(row["workers"]) for row in rows}
    assert 1 in workers and any(w > 1 for w in workers)


def test_serve_throughput_file_exists_and_parses():
    assert SERVE_THROUGHPUT_RESULT.exists(), (
        "benchmarks/results/serve_throughput.txt is missing; run "
        "`pytest benchmarks/test_bench_serve_throughput.py` to regenerate it"
    )
    text = SERVE_THROUGHPUT_RESULT.read_text()
    throughput_text, cache_text = text.split("\n\n", 1)

    rows = _parse_rows(throughput_text)
    assert rows, "no throughput rows in serve_throughput.txt"
    headline = rows[0]
    assert headline["trace"] == "gemv-reuse"
    # Warm fingerprint hits are served from the very operand a cold upload
    # would have produced.
    assert headline["bit_identical"] == "True"
    assert float(headline["hit_rate"]) >= 0.9
    # The committed headline claim: warm-hit requests/sec >= 2x the
    # cold-miss rate on the reuse-heavy trace.
    assert float(headline["speedup"]) >= 2.0
    assert float(headline["rps_warm"]) >= 2.0 * float(headline["rps_cold"])

    cache_rows = _parse_rows(cache_text)
    assert cache_rows, "no cache-capacity rows in serve_throughput.txt"
    # Hit rate must not decrease as the LRU budget grows, and a budget
    # covering the working set must serve the steady state evictionless.
    hit_rates = [float(row["hit_rate"]) for row in cache_rows]
    assert hit_rates == sorted(hit_rates)
    full_row = cache_rows[-1]
    assert int(full_row["capacity_entries"]) >= int(full_row["working_set"])
    assert int(full_row["evictions"]) == 0
