"""Chaos suite: fault scenarios × executors must stay bit-identical.

Every scenario arms a seeded :class:`repro.faults.FaultPlan` and runs the
same GEMM under both executors.  The resilience contract under test:

* the result is **bitwise equal** to the fault-free serial run, always;
* the ledger's *work* counters (GEMM calls, MACs, bytes, cache events)
  equal the fault-free run's — recoveries live only in the
  ``fault_events`` histogram, which must show exactly the expected
  recovery (and nothing under the thread executor, whose runs never
  consult the process-backend sites);
* degradation (process → thread) is recorded on the scheduler, the
  ledger and the result — never silent.

When ``REPRO_CHAOS_ARTIFACT`` names a file, the sweep appends one row per
scenario × executor (the CI chaos job archives it).
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np
import pytest

from repro import faults
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a
from repro.faults import InjectedFault
from repro.runtime import TileSource, live_segment_names
from repro.runtime.process import WorkerTaskError
from repro.runtime.scheduler import Scheduler
from repro.workloads.generators import phi_matrix

pytestmark = pytest.mark.filterwarnings(
    "ignore:parallelism=:RuntimeWarning"  # CI hosts are small; that is the point
)

_MATRIX_ROWS: List[str] = []


@pytest.fixture(scope="session", autouse=True)
def _chaos_artifact():
    """Archive the scenario matrix when the CI chaos job asks for it."""
    yield
    path = os.environ.get("REPRO_CHAOS_ARTIFACT")
    if path and _MATRIX_ROWS:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(_MATRIX_ROWS) + "\n")


@pytest.fixture(autouse=True)
def _disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


def _work(ledger_dict: Dict[str, object]) -> Dict[str, object]:
    """The ledger minus the fault_events histogram (the work comparator)."""
    return {k: v for k, v in ledger_dict.items() if k != "fault_events"}


#: (name, spec, expected fault_events under the process executor).
#: Counts are minimums for per-worker sites (how many workers fire before
#: the recovery wave depends on task distribution) and exact for
#: parent-side sites.  ``worker.crash:times=1`` crashes every *fresh*
#: worker's first task too, so the pool fails past ``max_pool_rebuilds``
#: (default 2) and the run must degrade — the deepest recovery path.
SCENARIOS = [
    ("baseline", None, {}),
    ("task-error", "worker.task_error:times=1", {"task_retry": 1}),
    (
        "worker-crash",
        "worker.crash:times=1",
        {"pool_failure": 3, "wave_retry": 2, "degraded_to_thread": 1},
    ),
    ("pool-spawn", "pool.spawn:times=1", {"pool_failure": 1, "wave_retry": 1}),
    (
        "pool-spawn-degrade",
        "pool.spawn:times=99",
        {"pool_failure": 3, "wave_retry": 2, "degraded_to_thread": 1},
    ),
    ("shm-alloc", "shm.alloc:times=1", {"shm_fallback": 1}),
]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("name,spec,expected", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_chaos_scenarios_stay_bit_identical(name, spec, expected, executor):
    a = phi_matrix(36, 30, phi=0.5, seed=21)
    b = phi_matrix(30, 26, phi=0.5, seed=22)
    serial = ozaki2_gemm(
        a, b, config=Ozaki2Config(num_moduli=15), return_details=True
    )
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor=executor)

    if spec is None:
        result = ozaki2_gemm(a, b, config=config, return_details=True)
    else:
        with faults.inject(spec, seed=13):
            result = ozaki2_gemm(a, b, config=config, return_details=True)

    np.testing.assert_array_equal(result.c, serial.c)
    assert _work(result.ledger.as_dict()) == _work(serial.ledger.as_dict()), (
        f"work counters diverged for scenario={name} executor={executor}"
    )
    events = dict(result.fault_events)
    if executor == "thread":
        # The thread path never consults the process-backend sites: arming
        # them must be a no-op, not a behaviour change.
        assert events == {}
        assert not result.degraded
    else:
        assert events.keys() == expected.keys(), events
        for event, minimum in expected.items():
            assert events[event] >= minimum, (name, events)
        assert result.degraded == ("degraded_to_thread" in expected)
    assert live_segment_names() == ()
    _MATRIX_ROWS.append(
        f"{name:<20} executor={executor:<8} ok "
        f"events={sorted(events.items())!r}"
    )


def test_tile_read_fault_is_retried_out_of_core():
    """A worker failing to map a staged operand retries bit-identically."""
    a = phi_matrix(48, 40, phi=0.5, seed=31)
    b = phi_matrix(40, 36, phi=0.5, seed=32)
    serial = ozaki2_gemm(
        a, b, config=Ozaki2Config(num_moduli=15), return_details=True
    )
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="process")
    with TileSource(strip_elements=2048) as tiles:
        oa = tiles.prepare_a(a, config)
        ob = tiles.prepare_b(b, config)
        with faults.inject("tile.read:times=1", seed=5):
            result = ozaki2_gemm(oa, ob, config=config, return_details=True)
    np.testing.assert_array_equal(result.c, serial.c)
    assert result.fault_events.get("task_retry", 0) >= 1
    assert _work(result.ledger.as_dict()) == _work(serial.ledger.as_dict())
    assert live_segment_names() == ()


def test_tile_stage_fault_is_restaged_bit_identically():
    """One staging write fault per strip is absorbed by an in-place rewrite."""
    a = phi_matrix(90, 70, phi=0.5, seed=9)
    config = Ozaki2Config(num_moduli=15)
    in_core = prepare_a(a, config)
    with faults.inject("tile.stage:times=1", seed=2):
        with TileSource(strip_elements=512) as tiles:
            staged = tiles.prepare_a(a, config)
            np.testing.assert_array_equal(np.asarray(staged.slices), in_core.slices)
            np.testing.assert_array_equal(staged.scale, in_core.scale)


def test_tile_stage_persistent_failure_propagates():
    """A strip failing twice in a row is a real storage fault: it surfaces."""
    a = phi_matrix(20, 16, phi=0.5, seed=9)
    with faults.inject("tile.stage"):  # unlimited fires: retry fails too
        with TileSource() as tiles:
            with pytest.raises(InjectedFault):
                tiles.prepare_a(a, Ozaki2Config(num_moduli=15))


def test_exhausted_task_retries_record_and_raise():
    """Retries that never succeed surface WorkerTaskError — accounted."""
    with Scheduler(parallelism=2, executor="process") as sched:
        base = _work(sched.engine.counter.as_dict())
        with pytest.raises(WorkerTaskError):
            sched.run_process_tasks([("no-such-task", {})])
        # One retry per worker by default: two workers, two retries.
        assert sched.engine.counter.fault_events.get("task_retry") == 2
        # The failed attempts shipped zero-work counter deltas home: the
        # work ledger is untouched, honest about what never happened.
        assert _work(sched.engine.counter.as_dict()) == base
        assert not sched.degraded
    assert live_segment_names() == ()
