"""Row bands of serial and thread runs: conversion and accumulation.

A thread run splits its conversion and accumulation waves into one row band
per worker once each band holds at least
:data:`repro.runtime.scheduler.BAND_MIN_ELEMENTS` elements, and runs a
smaller wave as one band in the calling thread.  Both steps are elementwise
in the rows, so banding changes no bit: with the threshold patched to 1
these small shapes band (raggedly), and every configuration, operand kind
and plan layout must still equal the serial run in output bytes and ledger.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro.config import Ozaki2Config
from repro.core import gemm as gemm_mod
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a, prepare_b
from repro.runtime import scheduler as scheduler_module
from repro.runtime.scheduler import BAND_MIN_ELEMENTS, Scheduler
from repro.workloads import phi_pair

pytestmark = pytest.mark.filterwarnings(
    "ignore:parallelism=:RuntimeWarning"  # 3 workers on a small CI host
)

#: ``m = 37`` and ``k = 70`` leave a ragged last band at 2 and 3 workers.
SHAPE = (37, 70, 29)

CONFIGS = [
    Ozaki2Config.for_dgemm(num_moduli=15),
    Ozaki2Config.for_dgemm(num_moduli=15, mode="accurate"),
    Ozaki2Config.for_sgemm(num_moduli=8),
    Ozaki2Config.for_sgemm(num_moduli=8, mode="accurate"),
]
IDS = [f"{c.precision.name}-{c.mode.value}" for c in CONFIGS]


@pytest.fixture
def bands(monkeypatch):
    """``{"convert": [...], "accumulate": [...]}``: ``(on the calling
    thread, rows)`` of every conversion band and accumulation block."""
    calls = {"convert": [], "accumulate": []}
    caller = threading.current_thread()

    def spy(kind, fn, rows_axis):
        def spied(x, *args, **kwargs):
            calls[kind].append((threading.current_thread() is caller, x.shape[rows_axis]))
            return fn(x, *args, **kwargs)

        return spied

    monkeypatch.setattr(
        scheduler_module, "truncate_scaled",
        spy("convert", scheduler_module.truncate_scaled, 0),
    )
    monkeypatch.setattr(
        scheduler_module, "accumulate_residue_products",
        spy("accumulate", scheduler_module.accumulate_residue_products, 1),
    )
    return calls


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("layout", ["untiled", "tiled", "k-blocked"])
@pytest.mark.parametrize("operands", ["raw", "prepared"])
@pytest.mark.parametrize("config", CONFIGS, ids=IDS)
def test_bands_match_serial(config, operands, layout, workers, monkeypatch, bands):
    if layout == "tiled":
        config = config.replace(memory_budget_mb=0.1)
    if layout == "k-blocked":
        monkeypatch.setattr(gemm_mod, "MAX_K_WITHOUT_BLOCKING", 32)
    a, b = phi_pair(*SHAPE, phi=1.0, precision=config.precision.name, seed=5)
    if operands == "prepared":
        a, b = prepare_a(a, config), prepare_b(b, config)
    serial = ozaki2_gemm(a, b, config, return_details=True)

    monkeypatch.setattr(scheduler_module, "BAND_MIN_ELEMENTS", 1)
    for calls in bands.values():
        calls.clear()
    banded = ozaki2_gemm(a, b, config.replace(parallelism=workers), return_details=True)

    assert banded.value.dtype == serial.value.dtype
    assert banded.value.tobytes() == serial.value.tobytes()
    assert banded.ledger.as_dict() == serial.ledger.as_dict()
    # Every band ran on the pool, and some wave ended on a ragged band.  A
    # prepared accurate-mode side still converts per partner.
    converts = operands == "raw" or config.mode.value == "accurate"
    assert len(bands["convert"]) == (2 * workers if converts else 0)
    assert len(bands["accumulate"]) == workers * (4 if layout == "tiled" else 1)
    assert not any(caller for calls in bands.values() for caller, _ in calls)
    assert len({rows for _, rows in bands["accumulate"]}) > 1


@pytest.mark.parametrize("workers", [2, 3])
def test_below_the_threshold_one_band_in_the_calling_thread(workers, bands):
    m, k, n = SHAPE
    a, b = phi_pair(m, k, n, phi=1.0, seed=6)
    config = Ozaki2Config.for_dgemm(num_moduli=15)
    serial = ozaki2_gemm(a, b, config)
    for calls in bands.values():
        calls.clear()
    value = ozaki2_gemm(a, b, config.replace(parallelism=workers))
    assert value.tobytes() == serial.tobytes()
    assert bands == {"convert": [(True, m), (True, k)], "accumulate": [(True, m)]}


def test_bands_land_under_a_short_switch_interval(monkeypatch):
    """More worker threads than cores, switching as often as the interpreter
    allows: every band of every wave still lands, so the bits and the
    ledger stay the serial ones."""
    monkeypatch.setattr(scheduler_module, "BAND_MIN_ELEMENTS", 1)
    a, b = phi_pair(61, 90, 47, phi=1.0, seed=7)
    config = Ozaki2Config.for_dgemm(num_moduli=15)
    serial = ozaki2_gemm(a, b, config, return_details=True)
    workers = 2 * (os.cpu_count() or 1) + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Scheduler(parallelism=workers) as sched:
            for _ in range(5):
                result = ozaki2_gemm(
                    a, b, config.replace(parallelism=workers), scheduler=sched,
                    return_details=True,
                )
                assert result.value.tobytes() == serial.value.tobytes()
                assert result.ledger.as_dict() == serial.ledger.as_dict()
    finally:
        sys.setswitchinterval(interval)


def test_the_threshold_counts_elements_per_band():
    cols = 64
    rows = 2 * BAND_MIN_ELEMENTS // cols
    with Scheduler(parallelism=2) as sched, Scheduler() as serial:
        ws = scheduler_module._Workspace(sched, shared=False)
        assert ws.bands(rows, cols) == ((0, rows // 2), (rows // 2, rows))
        assert ws.bands(rows - 1, cols) == ((0, rows - 1),)
        # A serial scheduler keeps one band; the process backend always
        # bands one per worker.
        assert scheduler_module._Workspace(serial, shared=False).bands(rows, cols) == (
            (0, rows),
        )
        assert scheduler_module._Workspace(sched, shared=True).bands(2, 1) == (
            (0, 1), (1, 2),
        )
        # At two workers 192^2 stays one band and 512^2 bands.
        assert len(ws.bands(192, 192)) == 1
        assert len(ws.bands(512, 512)) == 2
