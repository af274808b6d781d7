"""The traced benchmark run still finds every call site it wraps.

``perfbench/spans.py`` wraps the library's layers from outside, at the
module attributes their callers look up (``TARGETS``).  A renamed or moved
name only shows up there as ``details.wrappers_missing`` in a traced run, so
tier-1 pins that every site resolves — and, since a name can resolve while
no route calls it any more, that every route still records the layers it
recorded before.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.config import Ozaki2Config
from repro.runtime import TileSource
from repro.session import Session

#: Span names each route records, one small call per route.
GEMM = {"scaling", "conversion", "int8.matmul", "execute_plan", "accumulate",
        "reconstruct", "unscale"}
GEMV = {"scaling", "conversion", "gemv", "int8.matvec", "accumulate", "reconstruct",
        "unscale"}
ROUTE_SPANS = {
    "gemm-fast": GEMM,
    "gemm-thread": GEMM,
    # Worker processes run line 6 and the accumulation; the parent records
    # the dispatch waves (and the pool start) as ipc_wait.
    "gemm-process": {"scaling", "conversion", "execute_plan", "ipc_wait", "unscale"},
    "gemm-accurate": GEMM,
    "gemm-auto": GEMM | {"select"},
    "gemv-fast": GEMV,
    "gemv-accurate": GEMV | {"int8.matmul"},
    "gemm_batched-fast": GEMM,
    "gemm_batched-accurate": GEMM,
    # A solver's prepared A side computes line 6 by one FP64 DGEMM on its
    # kept A' (core.gemv), so its GEMVs never call Int8MatrixEngine.matvec_stack.
    "cg-auto": (GEMV - {"int8.matvec"}) | {"select"},
    "tilesource-gemm": {"execute_plan", "int8.matmul", "accumulate", "reconstruct",
                        "unscale"},
}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench.spans import TARGETS, Tracer

    tracer = Tracer()
    try:
        tracer.install(TARGETS)
        yield tracer
    finally:
        tracer.uninstall()


def test_every_traced_call_site_resolves(tracer):
    assert tracer.missing == []


def _route_spans(tracer, call):
    tracer.clear()
    tracer.enabled = True
    try:
        call()
    finally:
        tracer.enabled = False
    return {span[0] for span in tracer.spans}


def test_every_route_records_its_layers(tracer):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((24, 40))
    b = rng.standard_normal((40, 16))
    x = rng.standard_normal(40)
    q = np.linalg.qr(rng.standard_normal((32, 32)))[0]
    spd = q @ np.diag(np.linspace(1.0, 4.0, 32)) @ q.T
    fast = Ozaki2Config(num_moduli=12)
    accurate = fast.replace(mode="accurate")
    auto = fast.replace(num_moduli="auto")

    def session_call(config, op, *args, **kwargs):
        def call():
            # No operand cache: the call itself runs every layer.
            with Session(config, cache_bytes=0) as session:
                getattr(session, op)(*args, **kwargs)
        return call

    def tilesource_gemm():
        with TileSource() as tiles, Session(fast, cache_bytes=0) as session:
            staged_a, staged_b = tiles.prepare_a(a, fast), tiles.prepare_b(b, fast)
            tracer.enabled = True
            session.gemm(staged_a, staged_b)

    calls = {
        "gemm-fast": session_call(fast, "gemm", a, b),
        "gemm-thread": session_call(fast.replace(parallelism=2, executor="thread"), "gemm", a, b),
        "gemm-process": session_call(fast.replace(parallelism=2, executor="process"), "gemm", a, b),
        "gemm-accurate": session_call(accurate, "gemm", a, b),
        "gemm-auto": session_call(auto, "gemm", a, b),
        "gemv-fast": session_call(fast, "gemv", a, x),
        "gemv-accurate": session_call(accurate, "gemv", a, x),
        "gemm_batched-fast": session_call(fast, "gemm_batched", [a, a], [b, b]),
        "gemm_batched-accurate": session_call(accurate, "gemm_batched", [a, a], [b, b]),
        "cg-auto": session_call(auto, "solve", spd, spd[:, 0], method="cg"),
    }
    seen = {route: _route_spans(tracer, call) for route, call in calls.items()}
    tracer.clear()
    try:
        tilesource_gemm()
    finally:
        tracer.enabled = False
    seen["tilesource-gemm"] = {span[0] for span in tracer.spans}
    assert seen == ROUTE_SPANS
