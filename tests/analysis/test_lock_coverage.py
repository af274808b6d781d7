"""The tracker observes every lock site in the library, and the order is sound.

This is the runtime counterpart of the static lock rules and the gate for
the process-parallel scheduler refactor (ROADMAP item 2): driving the
parallel runtime (both executor backends), the serve stack and the
deprecation shims under :func:`track_lock_order` must visit every
``named_lock`` site, and the observed acquisition-order graph must be
acyclic — proof that no exercised nesting can deadlock.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.analysis import track_lock_order
from repro.config import Ozaki2Config
from repro.service import ReproServer, ServiceClient
from repro.session import Session

#: Every named_lock site in the library, by its stable dotted name.
ALL_LOCKS = {
    "runtime.scheduler._clones_lock",
    "runtime.scheduler._shared_lock",
    "runtime.scheduler._calls_lock",
    "runtime.shm._live_lock",
    "service.cache._lock",
    "service.coalescer._lock",
    "service.client._lock",
    "service.server._requests_lock",
    "_compat._LOCK",
}


@pytest.mark.slow
def test_all_lock_sites_observed_and_acyclic():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((48, 40))
    b = rng.standard_normal((40, 32))

    with track_lock_order() as tracker:
        # scheduler clones lock: parallel workers register per-thread engines
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with Session(config=Ozaki2Config(parallelism=2)) as session:
                session.gemm(a, b)
                # cache lock: prepared-operand hit path
                session.prepare(a, side="A")
                session.gemm(a, b)
            # process backend: shm registry lock + scheduler shared-segment
            # lock (operand stacks pinned in shared memory for the workers)
            with Session(
                config=Ozaki2Config(parallelism=2, executor="process")
            ) as session:
                session.gemm(a, b)

        # serve stack: server requests lock, coalescer lock, client lock
        with ReproServer(port=0, coalesce_window_seconds=0.0).start() as server:
            with ServiceClient(port=server.port) as client:
                client.gemm(a, b)
                client.gemm(a, b)  # second call exercises the fingerprint path
                server.stats()

        # _compat lock: a deprecated free-function shim warns (once) under it
        repro.reset_deprecation_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            repro.ozaki2_gemm(a, b)

    assert tracker.observed_locks >= ALL_LOCKS, (
        f"missing lock sites: {sorted(ALL_LOCKS - tracker.observed_locks)}"
    )
    tracker.assert_acyclic()
    report = tracker.report()
    assert report["acyclic"] is True


def test_repo_source_is_lint_clean():
    """`repro lint` over src/repro at HEAD reports nothing (ship clean)."""
    from pathlib import Path

    from repro.analysis import run_lint

    src = Path(repro.__file__).resolve().parent
    findings, checked = run_lint([src])
    assert findings == [], [f"{f.path}:{f.line} {f.code} {f.message}" for f in findings]
    assert checked > 80
