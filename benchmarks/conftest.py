"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures.  The rendered
ASCII table is written to the git-ignored ``.bench_build/results/<name>.txt``
so a plain test run never rewrites a committed file, and key relationships
from the paper are asserted so the benchmarks double as regression checks.
The committed tables under ``benchmarks/results/`` change only when asked
for::

    pytest benchmarks/test_bench_gemv_fast_path.py --record-results

Accuracy benchmarks execute real numerical experiments (the INT8 engine and
all baselines run on this CPU); throughput/power benchmarks evaluate the
analytic GPU model (see DESIGN.md for the hardware-substitution rationale).
"""

from __future__ import annotations

import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Committed tables, rewritten only under ``--record-results``.
RECORDED_DIR = pathlib.Path(__file__).resolve().parent / "results"
#: Default destination of every table (git-ignored).
RESULTS_DIR = _ROOT / ".bench_build" / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write benchmark tables to the committed benchmarks/results/ "
        "instead of .bench_build/results/",
    )


def pytest_collection_modifyitems(items):
    """Mark every benchmark as ``slow``.

    ``pytest_collection_modifyitems`` receives the *whole session's* items
    (conftest directory scoping applies to fixtures, not collection hooks),
    so the marker is applied only to items that actually live under
    ``benchmarks/`` — otherwise a combined ``tests + benchmarks`` run with
    ``-m "not slow"`` would deselect the entire tier-1 suite.  The tier-1
    suite still runs the benchmarks (``pytest -x -q`` selects everything),
    but the CI test matrix deselects them with ``-m "not slow"`` — the
    smoke job runs the whole directory and uploads their tables.
    """
    bench_dir = str(pathlib.Path(__file__).resolve().parent)
    for item in items:
        if str(item.fspath).startswith(bench_dir):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def results_dir(request) -> pathlib.Path:
    """Directory collecting the rendered tables of every benchmark."""
    path = RECORDED_DIR if request.config.getoption("--record-results") else RESULTS_DIR
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def save_result(results_dir):
    """Write a rendered table to ``<results_dir>/<name>.txt``.

    Every artifact is prefixed with the machine-readable provenance stamp
    (:mod:`repro.harness.provenance`): host, CPU count, git revision,
    library versions.  The stamp lines stay glued to the first table (no
    blank line) so the artifact tests' blank-line section splitting keeps
    working.
    """
    from repro.harness.provenance import stamp

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(stamp({"artifact": name}) + text + "\n")

    return _save
