"""Process-parallel scheduler: bit-identity, ledgers, failure paths, shm.

The process executor must be a drop-in replacement for the thread pool:
for any problem, any worker count and raw or prepared operands, the result
is bitwise equal to the literal Algorithm 1 of ``algorithm1_oracle`` and
the merged op ledger is indistinguishable from its.  The property test
sweeps that whole grid.

The failure-path tests pin the hardening guarantees: a task that raises
inside a worker surfaces as :class:`WorkerTaskError` (a library error such
as :class:`ValidationError` as itself) and leaves the scheduler usable;
dead worker processes surface as :class:`WorkerError`
and the next use lazily rebuilds the pool; shared-memory segments never
outlive the run (no ``resource_tracker`` leak warnings).

The routing tests pin ``executor="auto"``: a call below
:data:`~repro.runtime.plan.PROCESS_MIN_MACS` runs on the thread path and
one at it on the processes, while an explicit ``"process"`` sends even a
tiny call to the workers.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import algorithm1_oracle as oracle
from repro import faults
from repro.config import Ozaki2Config
from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a, prepare_b
from repro.errors import ConfigurationError, ValidationError
from repro.runtime import TileSource, live_segment_names
from repro.runtime import scheduler as scheduler_module
from repro.runtime.plan import PROCESS_MIN_MACS, resolve_executor
from repro.runtime.process import WorkerTaskError
from repro.runtime.scheduler import Scheduler
from repro.runtime.shm import SharedArray, attach_view
from repro.session import Session
from repro.workloads.generators import phi_matrix

pytestmark = pytest.mark.filterwarnings(
    "ignore:parallelism=:RuntimeWarning"  # CI hosts are small; that is the point
)

dims = st.integers(min_value=1, max_value=24)


@given(
    m=dims,
    k=dims,
    n=dims,
    executor=st.sampled_from(["thread", "process", "auto"]),
    parallelism=st.sampled_from([1, 2, 4]),
    prepared=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None)
def test_executors_bit_identical_with_equal_ledgers(
    m, k, n, executor, parallelism, prepared, seed
):
    a = phi_matrix(m, k, phi=0.5, seed=seed)
    b = phi_matrix(k, n, phi=0.5, seed=seed + 1)
    base = Ozaki2Config(num_moduli=15)
    config = base.replace(parallelism=parallelism, executor=executor)

    if prepared:
        operands = (prepare_a(a, base), prepare_b(b, base))
    else:
        operands = (a, b)
    want, ledger = oracle.gemm(a, b, base)
    result = ozaki2_gemm(*operands, config=config, return_details=True)

    np.testing.assert_array_equal(result.value.view(np.uint8), want.view(np.uint8))
    assert result.ledger.as_dict() == ledger.as_dict(), (
        f"op ledger diverged for executor={executor} "
        f"parallelism={parallelism} prepared={prepared}"
    )
    assert live_segment_names() == ()


def test_out_of_core_streams_past_the_memory_budget():
    """Stacks bigger than the budget stream through tiles, bit-identically."""
    a = phi_matrix(160, 120, phi=0.5, seed=5)
    b = phi_matrix(120, 140, phi=0.5, seed=6)
    reference = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15))

    budget_mb = 0.05
    for executor in ("thread", "process"):
        config = Ozaki2Config(
            num_moduli=15,
            parallelism=2,
            executor=executor,
            memory_budget_mb=budget_mb,
        )
        with TileSource(strip_elements=2048) as tiles:
            oa = tiles.prepare_a(a, config)
            ob = tiles.prepare_b(b, config)
            # The point of the exercise: the staged stacks do NOT fit the
            # budget, so execution must tile/stream rather than materialise.
            assert isinstance(oa.slices, np.memmap)
            assert oa.slices.nbytes + ob.slices.nbytes > budget_mb * 2**20
            staged = list(tiles._files)
            result = ozaki2_gemm(oa, ob, config=config)
        np.testing.assert_array_equal(result, reference)
        assert all(not os.path.exists(path) for path in staged)
    assert live_segment_names() == ()


def _check_staged_matches_in_core(config):
    a = phi_matrix(90, 70, phi=0.5, seed=9)
    b = phi_matrix(70, 40, phi=0.5, seed=10)
    in_core = prepare_a(a, config)
    with TileSource(strip_elements=512) as tiles:  # many strips
        staged = tiles.prepare_a(a, config)
        assert staged.config == in_core.config
        np.testing.assert_array_equal(np.asarray(staged.slices), in_core.slices)
        np.testing.assert_array_equal(staged.scale, in_core.scale)
        # The staged operand keeps no source, so it multiplies only at the
        # count it was staged at: the one every in-core route selects.
        product = ozaki2_gemm(staged, b, config=config, return_details=True)
    want = ozaki2_gemm(a, b, config=config, return_details=True)
    assert product.config.num_moduli == want.config.num_moduli
    np.testing.assert_array_equal(product.value, want.value)


def test_tilesource_preparation_is_bit_identical_to_in_core():
    _check_staged_matches_in_core(Ozaki2Config(num_moduli=15))


@pytest.mark.parametrize("model", ["calibrated", "rigorous"])
def test_tilesource_auto_preparation_is_bit_identical_to_in_core(model):
    # Staging resolves auto N through the in-core resolver, under the
    # config's selection model.
    _check_staged_matches_in_core(Ozaki2Config(num_moduli="auto", selection_model=model))


def test_tilesource_rejects_accurate_mode_and_bad_operands():
    with TileSource() as tiles:
        with pytest.raises(ConfigurationError):
            tiles.prepare_a(np.ones((4, 4)), Ozaki2Config(mode="accurate"))
        with pytest.raises(ConfigurationError):
            tiles.prepare_a(np.ones((4, 4), dtype=np.float32), Ozaki2Config())
    with pytest.raises(ConfigurationError):
        tiles.prepare_a(np.ones((4, 4)), Ozaki2Config())  # closed


def test_worker_task_error_leaves_scheduler_usable():
    a = phi_matrix(40, 32, phi=0.5, seed=1)
    b = phi_matrix(32, 28, phi=0.5, seed=2)
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="process")
    serial = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15))
    with Scheduler(parallelism=2, executor="process") as sched:
        with pytest.raises(WorkerTaskError):
            sched.run_process_tasks([("no-such-task", {})])
        # An operand the conversion cannot represent (its scales overflow
        # to inf) fails inside the workers, but it is the caller's error:
        # it arrives as itself, not retried.
        retries = sched.engine.counter.fault_events["task_retry"]
        with pytest.raises(ValidationError, match="2\\*\\*93"):
            ozaki2_gemm(a, b * 1e-300, config=config, scheduler=sched)
        assert sched.engine.counter.fault_events["task_retry"] == retries
        # The pool survived both in-task failures: the same scheduler still
        # serves a full GEMM, bit-identically.
        again = ozaki2_gemm(a, b, config=config, scheduler=sched)
    np.testing.assert_array_equal(again, serial)
    assert live_segment_names() == ()


def test_dead_workers_are_survived_by_a_rebuilt_pool():
    """Worker death mid-dispatch is recovered transparently, on the ledger.

    The lost wave's counters die un-absorbed with the pool, and the whole
    wave re-executes on a rebuilt pool — so the result *and* the ledger's
    work counters stay identical to the serial run, with the recovery
    recorded only in ``fault_events``.
    """
    a = phi_matrix(36, 30, phi=0.5, seed=3)
    b = phi_matrix(30, 26, phi=0.5, seed=4)
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="process")
    serial = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15), return_details=True)
    with Scheduler(parallelism=2, executor="process") as sched:
        pool = sched._ensure_process_pool()
        for proc in pool._procs:
            proc.terminate()
            proc.join()
        again = ozaki2_gemm(a, b, config=config, scheduler=sched, return_details=True)
        health = sched.health()
    np.testing.assert_array_equal(again.value, serial.value)
    assert again.fault_events["pool_failure"] == 1
    assert again.fault_events["wave_retry"] == 1
    assert not again.degraded and not health["degraded"]
    work = {
        k: v
        for k, v in again.ledger.as_dict().items()
        if k != "fault_events"
    }
    serial_work = {
        k: v
        for k, v in serial.ledger.as_dict().items()
        if k != "fault_events"
    }
    assert work == serial_work
    assert live_segment_names() == ()


def test_repeated_pool_failures_degrade_to_thread_path_recorded():
    """More pool failures than ``max_pool_rebuilds`` ⇒ recorded degradation."""
    a = phi_matrix(36, 30, phi=0.5, seed=3)
    b = phi_matrix(30, 26, phi=0.5, seed=4)
    config = Ozaki2Config(
        num_moduli=15, parallelism=2, executor="process", max_pool_rebuilds=0
    )
    serial = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15))
    with Scheduler(parallelism=2, executor="process", max_pool_rebuilds=0) as sched:
        pool = sched._ensure_process_pool()
        for proc in pool._procs:
            proc.terminate()
            proc.join()
        again = ozaki2_gemm(a, b, config=config, scheduler=sched, return_details=True)
        assert sched.degraded and not sched.uses_processes
        assert sched.health()["degraded_reason"]
    np.testing.assert_array_equal(again.value, serial)
    assert again.degraded
    assert again.fault_events["degraded_to_thread"] == 1
    assert live_segment_names() == ()


def test_scheduler_close_is_idempotent_and_final():
    sched = Scheduler(parallelism=2, executor="process")
    sched._ensure_process_pool()
    sched.close()
    sched.close()
    with pytest.raises(RuntimeError):
        sched._ensure_process_pool()
    assert live_segment_names() == ()


def test_shared_array_roundtrip_and_unlink():
    payload = np.arange(24, dtype=np.int8).reshape(2, 3, 4)
    handle = SharedArray.copy_from(payload)
    assert handle.name in live_segment_names()
    with attach_view(handle.descriptor) as view:
        np.testing.assert_array_equal(view, payload)
    handle.close()
    handle.close()  # idempotent
    assert handle.name not in live_segment_names()


def test_resolve_executor():
    assert resolve_executor("thread", 4) == "thread"
    assert resolve_executor("process", 4) == "process"
    assert resolve_executor("auto", 1) == "thread"
    # With several workers "auto" is a per-call policy until the call's
    # INT8 work is known; then the constant decides.
    assert resolve_executor("auto", 4) == "auto"
    assert resolve_executor("auto", 4, macs=PROCESS_MIN_MACS - 1) == "thread"
    assert resolve_executor("auto", 4, macs=PROCESS_MIN_MACS) == "process"
    assert resolve_executor("auto", 1, macs=PROCESS_MIN_MACS) == "thread"
    assert resolve_executor("process", 4, macs=1) == "process"
    with pytest.raises(ValueError):
        resolve_executor("greenlet", 2)


#: N=16 at 256 x 512 x 512 is exactly PROCESS_MIN_MACS INT8 MACs; one
#: column fewer is just below it.
_AT = (16, 256, 512, 512)
assert _AT[0] * _AT[1] * _AT[2] * _AT[3] == PROCESS_MIN_MACS


@pytest.mark.parametrize(
    "n, backend", [(_AT[3] - 1, "thread"), (_AT[3], "process")]
)
def test_auto_routes_by_int8_work_bit_identical(n, backend):
    num_moduli, m, k, _ = _AT
    a = phi_matrix(m, k, phi=0.5, seed=21)
    b = phi_matrix(k, n, phi=0.5, seed=22)
    base = Ozaki2Config(num_moduli=num_moduli)
    config = base.replace(parallelism=2, executor="auto")
    serial = ozaki2_gemm(a, b, config=base, return_details=True)
    with Scheduler(parallelism=2, executor="auto") as sched:
        result = ozaki2_gemm(a, b, config=config, scheduler=sched, return_details=True)
        calls = sched.health()["calls"]
        pool_started = sched._process_pool is not None
    assert calls == {"serial": 0, "thread": 0, "process": 0, backend: 1}
    assert pool_started == (backend == "process")
    np.testing.assert_array_equal(result.value, serial.value)
    assert result.ledger.as_dict() == serial.ledger.as_dict()
    assert live_segment_names() == ()


def test_explicit_process_sends_a_tiny_call_to_the_workers():
    a = phi_matrix(8, 8, phi=0.5, seed=23)
    b = phi_matrix(8, 8, phi=0.5, seed=24)
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="process")
    with Scheduler(parallelism=2, executor="process") as sched:
        result = ozaki2_gemm(a, b, config=config, scheduler=sched)
        assert sched.health()["calls"]["process"] == 1
        assert sched._process_pool is not None
    np.testing.assert_array_equal(result, ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15)))


def test_auto_call_below_the_constant_starts_no_process_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scheduler_module, "ProcessPool", no_pool)
    a = phi_matrix(64, 48, phi=0.5, seed=25)
    b = phi_matrix(48, 40, phi=0.5, seed=26)
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="auto")
    result = ozaki2_gemm(a, b, config=config, return_details=True)
    np.testing.assert_array_equal(
        result.value, ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15))
    )
    assert not result.fault_events


def test_auto_session_starts_its_workers_at_construction():
    with Session(Ozaki2Config(parallelism=2, executor="auto")) as session:
        pool = session._scheduler._process_pool
        assert pool is not None
        assert all(proc.is_alive() for proc in pool._procs)
        assert session.stats()["runtime"]["calls"] == {
            "serial": 0, "thread": 0, "process": 0
        }
    assert live_segment_names() == ()


def test_workers_started_before_any_segment_leave_no_tracker_warnings():
    """Workers forked before the parent's first segment share its tracker.

    Otherwise each worker starts its own ``resource_tracker`` at its first
    attach, and that tracker's exit warns about (and unlinks) the parent's
    segments.  The warnings appear at interpreter exit, hence the child.
    """
    script = (
        "import numpy as np\n"
        "from repro import Session\n"
        "from repro.config import Ozaki2Config\n"
        "config = Ozaki2Config(num_moduli=15, parallelism=2, executor='process')\n"
        "with Session(config) as session:\n"
        "    session.gemm(np.ones((8, 8)), np.ones((8, 8)))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "resource_tracker" not in out.stderr, out.stderr


def test_degraded_inline_run_keeps_the_parents_tracker_registrations():
    """The degraded path attaches the parent's own segments in the parent.

    Dropping the creator's tracker registration there made each later
    unlink's unregister fail inside the tracker (a ``KeyError`` traceback
    on stderr); the bits must not change either way.
    """
    script = (
        "import numpy as np\n"
        "from repro import faults\n"
        "from repro.config import Ozaki2Config\n"
        "from repro.core.gemm import ozaki2_gemm\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))\n"
        "config = Ozaki2Config(parallelism=2, executor='process', max_pool_rebuilds=0)\n"
        "with faults.inject('pool.spawn:times=99', seed=7):\n"
        "    got = ozaki2_gemm(a, b, config=config, return_details=True)\n"
        "assert got.degraded\n"
        "assert np.array_equal(got.value, ozaki2_gemm(a, b))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert "KeyError" not in out.stderr, out.stderr


def test_session_pool_start_failure_degrades_instead_of_raising():
    config = Ozaki2Config(num_moduli=15, parallelism=2, executor="auto")
    with faults.inject("pool.spawn:times=99"):
        session = Session(config)
    with session:
        runtime = session.stats()["runtime"]
        assert runtime["degraded"] and runtime["pool_failures"] == 3
        assert session.ledger.fault_events["degraded_to_thread"] == 1
        a = phi_matrix(24, 20, phi=0.5, seed=27)
        b = phi_matrix(20, 16, phi=0.5, seed=28)
        np.testing.assert_array_equal(
            session.gemm(a, b).value,
            ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=15)),
        )


def test_config_validates_executor():
    assert Ozaki2Config(executor="auto").executor == "auto"
    with pytest.raises(ConfigurationError):
        Ozaki2Config(executor="fibers")
