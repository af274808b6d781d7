"""Every scale-range corpus case on every library route.

Each case of ``range_corpus`` runs in fast and accurate mode, with a fixed
and an auto-selected moduli count, on the serial, thread, process and auto
executors; raw and prepared; batched; as a GEMV with a raw and a prepared
``A``; through ``TileSource`` (fast, fp64); through ``Session.gemm``; and
through ``ServiceClient.gemm`` against a ``ReproServer``.  Every result must

* be finite wherever the split ``reference_gemm`` is finite,
* lie within the selection's ``bound`` (auto N) or
  ``elementwise_error_bound`` (fixed N) of that reference,
* carry the serial raw GEMM's bits on every GEMM route — and, in fast mode,
  on every GEMV route too (the GEMV against that GEMM's first column;
  accurate-mode scales depend on the partner matrix, so a GEMV may differ),
* and keep the serial run's op ledger on the thread and process executors,

with no ``RuntimeWarning`` raised anywhere (bar the note that two workers
over-subscribe a one-CPU host).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import range_corpus
import repro.runtime.plan as plan_mod
from repro.accuracy.reference import reference_gemm
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.gemv import prepared_gemv
from repro.core.operand import prepare_a, prepare_b
from repro.crt.adaptive import elementwise_error_bound
from repro.errors import ValidationError
from repro.runtime.batched import ozaki2_gemm_batched
from repro.runtime.scheduler import Scheduler
from repro.runtime.tilesource import TileSource
from repro.service import ReproServer, ServiceClient
from repro.session import Session

CASES = range_corpus.cases()
FIXED_N = {"fp64": 15, "fp32": 8}


@pytest.fixture(scope="module")
def process_scheduler():
    with Scheduler(parallelism=2, executor="process") as sched:
        yield sched


@pytest.fixture(scope="module")
def service():
    with ReproServer(port=0).start() as srv:
        with ServiceClient(port=srv.port) as client:
            yield client


def _config(precision: str, mode: str, moduli: str) -> Ozaki2Config:
    n = FIXED_N[precision] if moduli == "fixed" else "auto"
    return Ozaki2Config(precision=precision, num_moduli=n, mode=mode)


def _bound(result, config: Ozaki2Config, a: np.ndarray, b: np.ndarray) -> float:
    if result.moduli_selection is not None:
        return result.moduli_selection.bound
    return elementwise_error_bound(
        a.shape[1], float(np.max(np.abs(a))), float(np.max(np.abs(b))),
        config.num_moduli, 64 if config.is_dgemm else 32, config.mode.value,
    )


def _check_range(value, reference, bound, route):
    finite = np.isfinite(reference)
    assert np.all(np.isfinite(value)[finite]), f"{route}: non-finite where the reference is finite"
    err = np.abs(value.astype(np.float64)[finite] - reference[finite])
    assert err.size == 0 or float(np.max(err)) <= bound, f"{route}: error {np.max(err)} > {bound}"


def _same_bits(value, want, route):
    assert value.dtype == want.dtype, route
    assert value.tobytes() == want.tobytes(), f"{route}: bits differ"


def _gemm_routes(case, config, process_scheduler, service, monkeypatch):
    """The serial result, and ``{route: (value, ledger or None)}`` of every
    GEMM route (a ledger for the executor routes only)."""
    a, b = case.a, case.b
    serial = ozaki2_gemm(a, b, config, return_details=True)
    thread = ozaki2_gemm(a, b, config.replace(parallelism=2), return_details=True)
    out = {"serial": (serial.value, serial.ledger), "thread": (thread.value, thread.ledger)}
    # "auto" sends this small product to the process side only above the
    # INT8-work threshold, so push every call over it.
    monkeypatch.setattr(plan_mod, "PROCESS_MIN_MACS", 1)
    for name in ("process", "auto"):
        before = process_scheduler.engine.counter.copy()
        value = ozaki2_gemm(a, b, config.replace(parallelism=2, executor=name),
                            scheduler=process_scheduler)
        out[name] = (value, process_scheduler.engine.counter.difference(before))
    pa, pb = prepare_a(a, config), prepare_b(b, config)
    out["prepared"] = (ozaki2_gemm(pa, pb, config), None)
    out["prepared_a"] = (ozaki2_gemm(pa, b, config), None)
    first, second = ozaki2_gemm_batched([a, pa], [b, b], config)
    out["batched"] = (first, None)
    out["batched_prepared"] = (second, None)
    if config.is_dgemm and config.mode.value == "fast":
        with TileSource() as tiles:
            out["tilesource"] = (ozaki2_gemm(tiles.prepare_a(a, config), b, config), None)
    with Session(config=config) as session:
        out["session"] = (session.gemm(a, b).value, None)
    overrides = {"precision": case.precision, "mode": config.mode.value,
                 "num_moduli": config.num_moduli}
    out["service"] = (service.gemm(a, b, config=overrides).value, None)
    return serial, out


@pytest.mark.parametrize("moduli", ["fixed", "auto"])
@pytest.mark.parametrize("mode", ["fast", "accurate"])
@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_corpus_case_on_every_route(case, mode, moduli, process_scheduler, service,
                                    monkeypatch):
    config = _config(case.precision, mode, moduli)
    a, b = case.a, case.b
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # Two workers over-subscribe a one-CPU host: a note about the host.
        warnings.filterwarnings("ignore", r"parallelism=\d+ over-subscribes", RuntimeWarning)
        reference = reference_gemm(a, b)
        serial, routes = _gemm_routes(case, config, process_scheduler, service, monkeypatch)
        x = b[:, 0]
        gemv = {
            "gemv_raw": prepared_gemv(a, x, config, return_details=True),
            "gemv_prepared": prepared_gemv(prepare_a(a, config), x, config,
                                           return_details=True),
        }

    want, want_ledger = serial.value, serial.ledger
    bound = _bound(serial, config, a, b)
    for route, (value, ledger) in routes.items():
        _check_range(value, reference, bound, route)
        _same_bits(value, want, route)
        if ledger is not None:
            assert ledger.as_dict() == want_ledger.as_dict(), f"{route}: ledger differs"
    for route, result in gemv.items():
        _check_range(result.value, reference[:, 0], _bound(result, config, a, x[:, None]), route)
        if mode == "fast":
            _same_bits(result.value, want[:, 0], route)



def _tile_prepare(x):
    with TileSource() as tiles:
        return tiles.prepare_a(x)


#: Every route a non-finite operand can enter by, as ``(bad, b) -> product``.
SPECIAL_ROUTES = {
    "gemm_a": lambda bad, b: ozaki2_gemm(bad, b),
    "gemm_b": lambda bad, b: ozaki2_gemm(b.T, bad.T),
    "accurate": lambda bad, b: ozaki2_gemm(bad, b, Ozaki2Config(mode="accurate")),
    "gemv_a": lambda bad, b: prepared_gemv(bad, b[:, 0]),
    "gemv_x": lambda bad, b: prepared_gemv(b.T, bad[2]),
    "prepare": lambda bad, b: prepare_a(bad),
    "batched": lambda bad, b: ozaki2_gemm_batched([bad], [b]),
    "tilesource": lambda bad, b: _tile_prepare(bad),
}


@pytest.mark.parametrize("route", list(SPECIAL_ROUTES))
@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
def test_nan_and_inf_are_rejected_on_every_route(special, route):
    """The documented special-value policy: a ValidationError on every route
    (the server's ``bad_request`` is checked in ``tests/service``)."""
    _, _, a, b = CASES[0]
    bad = a / 1e300
    bad[2, 3] = special
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="non-finite"):
            SPECIAL_ROUTES[route](bad, b)
