"""The traced benchmark run still finds every call site it wraps.

``perfbench/spans.py`` wraps the library's layers from outside, at the
module attributes their callers look up (``TARGETS``).  A renamed or moved
name only shows up there as ``details.wrappers_missing`` in a traced run, so
tier-1 pins that every site resolves.
"""

from __future__ import annotations

import pathlib


def test_every_traced_call_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.spans import TARGETS, Tracer

    tracer = Tracer()
    try:
        tracer.install(TARGETS)
        assert tracer.missing == []
    finally:
        tracer.uninstall()
