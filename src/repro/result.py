"""Unified result objects shared by every emulated entry point.

Every public operation of the library — an emulated GEMM, the residue-GEMV
fast path, an iterative solve — answers with the same four ingredients: the
computed **value**, the resolved **configuration**, the wall-clock **phase
times** of Algorithm 1, and the INT8 engine's operation **ledger**.  Before
the :class:`~repro.session.Session` redesign each entry point carried its
own result dataclass duplicating those fields under its own names.
:class:`Result` is the shared base, and its field names are the only
spelling:

* ``value`` — the computed array (product matrix, product vector, or
  solution vector),
* ``config`` — the (always concrete) :class:`~repro.config.Ozaki2Config`
  the computation ran under,
* ``phase_times`` — the :class:`PhaseTimes` breakdown (``None`` where a
  composite operation has no single breakdown, e.g. a whole solve),
* ``ledger`` — the :class:`~repro.engines.base.OpCounter` of the work this
  call retired on its engine (a delta, not the engine's running total),
* ``moduli_history`` — the moduli count(s) the operation actually used:
  one entry per emulated product for solves (the progressive ladder), a
  single entry for one-shot products.

The concrete classes are :class:`GemmResult`,
:class:`~repro.core.gemv.GemvResult` and
:class:`~repro.apps.solvers.SolveResult`.

The per-phase timing keys follow the line grouping used by the paper's time
breakdown (Figures 6 and 7):

============  =============================================================
key           Algorithm 1 lines
============  =============================================================
``scale``     1 (scale-vector determination; includes the extra INT8 GEMM
              of accurate mode)
``convert_A``  2 and 4 (truncation + residues of A)
``convert_B``  3 and 5 (truncation + residues of B)
``matmul``    6 (the N INT8 GEMMs)
``accumulate`` 7–9 (mod to UINT8 and the two split accumulations)
``reconstruct`` 10–11 (Q and the FMA combination)
``unscale``   12 (inverse diagonal scaling)
============  =============================================================
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional

import numpy as np

from .config import Ozaki2Config
from .engines.base import OpCounter

__all__ = [
    "PHASE_KEYS",
    "PhaseTimes",
    "Result",
    "GemmResult",
]

#: Ordered list of phase keys (matches the breakdown figures).
PHASE_KEYS = (
    "scale",
    "convert_A",
    "convert_B",
    "matmul",
    "accumulate",
    "reconstruct",
    "unscale",
)


@dataclasses.dataclass
class PhaseTimes:
    """Wall-clock seconds spent in each phase of Algorithm 1 (this CPU run)."""

    seconds: Dict[str, float] = dataclasses.field(
        default_factory=lambda: {key: 0.0 for key in PHASE_KEYS}
    )

    def add(self, key: str, dt: float) -> None:
        """Accumulate ``dt`` seconds into phase ``key``."""
        self.seconds[key] = self.seconds.get(key, 0.0) + float(dt)

    @property
    def total(self) -> float:
        """Total measured seconds across all phases."""
        return float(sum(self.seconds.values()))

    def fractions(self) -> Dict[str, float]:
        """Per-phase fraction of the total time (empty phases give 0)."""
        total = self.total
        if total <= 0.0:
            return {key: 0.0 for key in self.seconds}
        return {key: value / total for key, value in self.seconds.items()}


class _PhaseTimer:
    """Tiny context helper accumulating wall-clock time into a PhaseTimes."""

    def __init__(self, times: PhaseTimes, key: str) -> None:
        self._times = times
        self._key = key
        self._start = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._times.add(self._key, time.perf_counter() - self._start)


@dataclasses.dataclass
class Result:
    """Shared base of every emulated-operation result (see module docstring).

    Attributes
    ----------
    value:
        The computed array: the product matrix of a GEMM, the product
        vector of a GEMV, the solution vector of a solve.
    config:
        The (concrete) configuration the computation ran under; under
        ``num_moduli="auto"`` this carries the resolved count.
    phase_times:
        Per-phase wall-clock breakdown, or ``None`` for composite
        operations without a single Algorithm-1 breakdown.
    ledger:
        This call's operation ledger (GEMM calls, MACs, bytes, emulated
        calls, fault events): what the engine recorded between the call's
        start and its return, or ``None`` where no engine ledger was
        collected.  Calls running concurrently on one engine (one
        :class:`~repro.session.Session` serving several threads) share a
        window, so each may count the other's work.
    moduli_history:
        Moduli count(s) actually used, one entry per emulated product.
    """

    value: Optional[np.ndarray] = None
    config: Optional[Ozaki2Config] = None
    phase_times: Optional[PhaseTimes] = None
    ledger: Optional[OpCounter] = None
    moduli_history: List[int] = dataclasses.field(default_factory=list)

    @property
    def method_name(self) -> str:
        """Paper-style method name (e.g. ``"OS II-fast-14"``)."""
        if self.config is None:
            raise AttributeError("result carries no configuration")
        return self.config.method_name

    @property
    def moduli_used(self) -> List[int]:
        """Distinct moduli counts used, ascending (``[]`` if unrecorded)."""
        return sorted(set(self.moduli_history))

    @property
    def bound_met(self) -> bool:
        """Whether the selection's error bound met the accuracy target.

        ``num_moduli="auto"`` clamps to ``MAX_MODULI`` when even the full
        moduli set cannot guarantee the requested ``target_accuracy`` —
        the call still runs (and emits a once-per-process
        :class:`RuntimeWarning`), but the result is *not* certified to the
        target.  This property makes that machine-checkable: ``False``
        exactly when a clamped selection decided this result.  Fixed-count
        runs carry no selection diagnostic and report ``True`` (nothing was
        requested, so nothing was missed).
        """
        selection = getattr(self, "moduli_selection", None)
        if selection is None:
            return True
        return bool(selection.met)

    @property
    def fault_events(self) -> Dict[str, int]:
        """Resilience events survived while computing this result.

        The ``fault_events`` histogram of this call's ledger
        (``task_retry``, ``wave_retry``, ``pool_failure``, ``shm_fallback``,
        ``degraded_to_thread``, …) — empty for a fault-free call or when no
        ledger was collected.  Recoveries are recorded here instead of
        perturbing the work counters, so a recovered run stays
        ledger-comparable to a fault-free one.  Events of earlier calls are
        not repeated here: a scheduler's lasting state (it stays degraded
        for the rest of its life) is in
        :meth:`Scheduler.health() <repro.runtime.scheduler.Scheduler.health>`
        and ``Session.stats()["runtime"]``.
        """
        if self.ledger is None:
            return {}
        return dict(self.ledger.fault_events)

    @property
    def degraded(self) -> bool:
        """True when the process executor degraded to the thread path
        during this call.

        The scheduler records ``degraded_to_thread`` after surviving more
        pool failures than ``config.max_pool_rebuilds`` allows; the value
        is still bit-identical, but the run no longer used worker
        processes.  Never silent: this flag, the ledger histogram, and a
        ``repro.runtime.scheduler`` log record all carry the event.
        """
        return self.fault_events.get("degraded_to_thread", 0) > 0


@dataclasses.dataclass
class GemmResult(Result):
    """Full result of one emulated GEMM.

    Attributes
    ----------
    value:
        The emulated product, in the target precision's dtype.
    config:
        The configuration used.
    mu_exp / nu_exp:
        Exponents (``np.intc``) of the power-of-two scale vectors actually
        applied: ``μ = 2^mu_exp``, ``ν = 2^nu_exp``.
    phase_times:
        Wall-clock seconds per phase (this process; useful for the CPU
        wall-clock benchmark, *not* a GPU prediction — that is the job of
        :mod:`repro.perfmodel`).
    ledger:
        This call's operation ledger on the INT8 engine (GEMM calls, MACs,
        bytes).
    num_k_blocks:
        Number of inner-dimension blocks actually used, derived from the
        execution plan's block ranges (1 unless ``k > 2^17``).
    moduli_selection:
        The :class:`~repro.crt.adaptive.AdaptiveSelection` diagnostic when
        the call ran with ``num_moduli="auto"`` (selected count, guaranteed
        error bound, whether the target was met); ``None`` for fixed-count
        runs.  ``config`` always carries the resolved count either way.
    """

    mu_exp: Optional[np.ndarray] = None
    nu_exp: Optional[np.ndarray] = None
    num_k_blocks: int = 1
    moduli_selection: object = None
