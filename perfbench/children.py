"""Every process a benchmark run starts has ended, and been reaped, when it exits.

The library starts processes the benchmark never sees: the process
executor's workers (joined by ``Session.close``) and, once shared memory is
used, multiprocessing's resource tracker, which outlives its parent by
design — it exits on end of file after the parent has gone, as an orphan
nobody reaps.  ``run.py`` therefore makes its process a child subreaper
(orphans of any descendant are re-parented to it, not to init) and, as the
last exit handler, stops the resource tracker and waits for every child,
terminating those that do not end on their own.

Only the standard library is imported here, so ``run.py`` can arm this
before NumPy or the library is loaded.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from typing import List

PR_SET_CHILD_SUBREAPER = 36
#: Seconds children get to end on their own, then after SIGTERM.
GRACE_SECONDS = 10.0


def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit``, so the exit handlers still run."""
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))


def _children() -> List[int]:
    """Pids whose parent is this process, from ``/proc``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as stat:
                fields = stat.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap_until(deadline: float) -> bool:
    """Reap children until none is left (True) or ``deadline`` passes."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return True
        if pid == 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)


def stop_all() -> None:
    """Stop the resource tracker, then wait for (or end) every child."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        try:
            tracker._resource_tracker._stop()
        except ChildProcessError:  # already reaped
            pass
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        if sig is not None:
            for pid in _children():
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        if _reap_until(time.monotonic() + GRACE_SECONDS):
            return
