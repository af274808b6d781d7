"""Smoke-tests for the runnable examples (deliverable b).

Each example's ``main`` is imported and executed at a reduced problem size so
the whole suite stays fast; the assertions check that the examples run to
completion and print the tables they promise.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys


_EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"


def _load_example(name: str):
    path = _EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        module = _load_example("quickstart.py")
        module.main(96)
        out = capsys.readouterr().out
        assert "DGEMM emulation accuracy" in out
        assert "OS II-fast-15" in out
        assert "CPU wall-clock breakdown" in out

    def test_hpl_lu(self, capsys):
        module = _load_example("hpl_lu_factorization.py")
        module.main(128, 64)
        out = capsys.readouterr().out
        assert "backward error" in out
        assert "OS II-fast-15" in out

    def test_precision_selection(self, capsys):
        module = _load_example("precision_selection.py")
        module.main(96, 1.0)
        out = capsys.readouterr().out
        assert "auto selection for fp64" in out and "decided_by" in out
        assert "smallest measured N reaching native fp32 accuracy" in out
        assert "GH200_model_TFLOPS" in out

    def test_quantum_chemistry(self, capsys):
        module = _load_example("quantum_chemistry_density.py")
        module.main(64, 16)
        out = capsys.readouterr().out
        assert "Canonical purification" in out
        assert "idempotency_error" in out

    def test_reproduce_figures_cli(self, capsys, monkeypatch):
        module = _load_example("reproduce_paper_figures.py")
        monkeypatch.setattr(sys, "argv", ["reproduce_paper_figures.py", "--only", "1,headline"])
        module.main()
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Headline claims" in out
