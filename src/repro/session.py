"""`Session` — the library's long-lived facade: one config, one warm runtime.

The historical entry points are free functions: every
:func:`~repro.core.gemm.ozaki2_gemm` call builds its own engine, spins its
own scheduler pool, and forgets its conversions the moment it returns.
That is the right shape for a one-shot benchmark and the wrong shape for
everything the paper's use cases actually look like — solvers, batches and
services multiplying *recurring* operands under *one* configuration.

:class:`Session` owns the long-lived pieces once:

* an :class:`~repro.engines.int8.Int8MatrixEngine` whose
  :class:`~repro.engines.base.OpCounter` ledger accumulates across every
  call (GEMM work *and* operand-cache events — one ledger to read),
* a warm :class:`~repro.runtime.scheduler.Scheduler` pool sized from
  ``config.parallelism`` (pool start-up is paid once, not per call: a
  session that may use worker processes starts them when it is
  constructed, while the parent is still small),
* a transparent :class:`~repro.service.cache.OperandCache`: matrix
  operands are recognised by *content fingerprint*
  (:func:`~repro.core.operand.matrix_fingerprint`) and their prepared
  state reused across calls — fast mode caches residue conversions,
  accurate mode the ``N``-independent pre-scale half — bit-identical to
  converting afresh, so ``session.gemm(a, b)`` equals ``ozaki2_gemm(a, b)``
  bitwise whether the cache hit or missed,
* the factored preconditioners of :meth:`Session.solve` in that same cache,
  keyed by the system matrix's fingerprint, the kind and (SSOR only) ``ω``:
  a PCG+ILU(0) solve factors its matrix once per session, and every later
  solve applies the very same factors.

:meth:`Session.solve` dispatches through the one solver table,
:data:`repro.apps.solvers.SOLVERS`, which ``repro solve`` and ``/v1/solve``
use too.  Each solve's own ledger is absorbed into the session ledger, so
the ledger counts solves like every other call, and the solve that paid a
cache miss reports it: the conversion in ``prepare_seconds``, the
factorisation in ``precond_seconds`` (both ``0.0`` on a hit).

Every operation returns a :class:`~repro.result.Result` subclass —
:class:`~repro.result.GemmResult`, :class:`~repro.core.gemv.GemvResult`,
:class:`~repro.apps.solvers.SolveResult` — sharing ``value`` / ``config`` /
``phase_times`` / ``ledger`` / ``moduli_history``.

Each method wraps one low-level function of a defining submodule::

    repro.core.gemm.ozaki2_gemm(a, b, config=cfg)        -> session.gemm(a, b)
    repro.core.gemv.prepared_gemv(prep, x, config=cfg)   -> session.gemv(a, x)
    repro.runtime.batched.ozaki2_gemm_batched(As, Bs)    -> session.gemm_batched(As, Bs)
    repro.core.operand.prepare_a(a, config=cfg)          -> session.prepare(a, side="A")
    repro.apps.solvers.cg_solve(a, b, config=cfg)        -> session.solve(a, b, method="cg")

Those functions stay the low-level spelling (no top-level aliases);
:mod:`repro.service` is this class behind a socket.
"""

from __future__ import annotations

import inspect
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .apps.solvers import SOLVERS, solver_for
from .config import Ozaki2Config
from .core.gemm import ozaki2_gemm
from .core.gemv import GemvResult, prepared_gemv
from .core.operand import PreparedOperand, matrix_fingerprint
from .engines.base import MatrixEngine, OpCounter
from .engines.int8 import Int8MatrixEngine
from .errors import ValidationError
from .result import GemmResult
from .runtime.batched import ozaki2_gemm_batched
from .runtime.scheduler import Scheduler
from .service.cache import DEFAULT_CAPACITY_BYTES, OperandCache

__all__ = ["Session", "SOLVE_METHODS"]

#: Solver names accepted by :meth:`Session.solve` (the keys of
#: :data:`repro.apps.solvers.SOLVERS`).
SOLVE_METHODS = tuple(SOLVERS)


def _factor_kind(solver: Callable, kwargs: Dict) -> Optional[str]:
    """The preconditioner kind a solve would factor from its matrix, if any.

    Only kinds named by string are factored, the solver's own default
    included (``pcg_solve``'s ``"ilu0"``); ``"none"``, a caller's factored
    instance, an unknown name (the solver reports it) and a solver without
    a ``precond`` parameter (refinement) leave the call as it is.
    """
    param = inspect.signature(solver).parameters.get("precond")
    if param is None:
        return None
    precond = kwargs.get("precond", param.default)
    if not isinstance(precond, str):
        return None
    kind = precond.strip().lower()
    return kind if kind in ("ilu0", "ssor") else None


class Session:
    """Long-lived emulation context: engine + scheduler + operand cache.

    Parameters
    ----------
    config:
        The session's default :class:`~repro.config.Ozaki2Config`
        (FP64 fast mode when omitted).  Every call may override it with its
        own ``config=``; the session resources (engine, pool, cache) are
        shared either way.
    cache_bytes:
        Byte budget of the transparent operand cache; ``0`` disables
        caching (every call converts, exactly like the free functions).
    engine:
        Matrix engine to retire the INT8 work on (a fresh
        :class:`~repro.engines.int8.Int8MatrixEngine` when omitted).  Its
        counter is the session ledger.

    Use as a context manager (or call :meth:`close`) to shut the worker
    pool down deterministically.
    """

    def __init__(
        self,
        config: Optional[Ozaki2Config] = None,
        cache_bytes: int = DEFAULT_CAPACITY_BYTES,
        engine: Optional[MatrixEngine] = None,
    ) -> None:
        self.config = config or Ozaki2Config.for_dgemm()
        self._engine = engine if engine is not None else Int8MatrixEngine()
        self._scheduler = Scheduler(
            parallelism=self.config.parallelism,
            engine=self._engine,
            executor=self.config.executor,
            max_pool_rebuilds=self.config.max_pool_rebuilds,
        )
        # Fork the worker processes (if any) now, before the parent holds
        # any operand: a pool forked inside a large first call would carry
        # the parent's grown address space into every worker's resident set.
        self._scheduler.start()
        self._cache = OperandCache(cache_bytes, ledger=self._engine.counter)
        self._started = time.perf_counter()
        self._requests = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down and drop the cache."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.close()
        self._cache.clear()

    def _require_open(self) -> None:
        if self._closed:
            raise ValidationError("this Session is closed")

    # -- operand handling ----------------------------------------------------
    def _call_config(self, config: Optional[Ozaki2Config]) -> Ozaki2Config:
        return config or self.config

    def _operand(self, x, side: str, config: Ozaki2Config):
        """Route a raw matrix through the cache; pass everything else through.

        2-D float operands in either mode are cacheable — fast mode caches
        the residue stack, accurate mode the ``N``-independent pre-scale
        half (see :mod:`repro.core.operand`); vectors are cheaper to
        convert than to fingerprint-and-hold.  A caller-prepared operand is
        used as-is.
        """
        if isinstance(x, PreparedOperand):
            return x
        if self._cache.capacity_bytes == 0:
            return x
        arr = np.asarray(x)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            return x
        return self._cache.get_or_prepare(arr, side, config)[0]

    def prepare(
        self, x: np.ndarray, side: str = "A", config: Optional[Ozaki2Config] = None
    ) -> PreparedOperand:
        """Prepare (or fetch from cache) one operand's residue conversion.

        The explicit form of what :meth:`gemm` / :meth:`gemv` do
        transparently; useful to warm the cache or to hold an operand across
        sessions.  ``side`` is ``"A"`` (per-row scales) or ``"B"``.
        """
        self._require_open()
        if side not in ("A", "B"):
            raise ValidationError(f"side must be 'A' or 'B', got {side!r}")
        config = self._call_config(config)
        arr = np.asarray(x)
        if arr.ndim != 2:
            raise ValidationError(f"prepare expects a 2-D matrix, got shape {arr.shape}")
        if self._cache.capacity_bytes == 0:
            from .core.operand import prepare_a, prepare_b

            prepare = prepare_a if side == "A" else prepare_b
            return prepare(np.ascontiguousarray(arr, dtype=np.float64), config=config)
        return self._cache.get_or_prepare(arr, side, config)[0]

    # -- operations ----------------------------------------------------------
    def gemm(
        self,
        a,
        b,
        config: Optional[Ozaki2Config] = None,
    ) -> GemmResult:
        """Emulated ``A @ B`` through the session; returns a full result.

        Matrix operands hit the transparent cache in either mode
        (bit-identical either way); the product array is ``result.value``.
        """
        self._require_open()
        self._requests += 1
        config = self._call_config(config)
        a = self._operand(a, "A", config)
        b = self._operand(b, "B", config)
        return ozaki2_gemm(
            a, b, config=config, scheduler=self._scheduler, return_details=True
        )

    def gemv(
        self,
        a,
        x: np.ndarray,
        config: Optional[Ozaki2Config] = None,
    ) -> GemvResult:
        """Emulated ``A @ x`` via the residue-GEMV fast path.

        ``a`` is cached/reused exactly like a GEMM left operand, so a loop
        of matrix–vector products against one matrix pays one conversion.
        """
        self._require_open()
        self._requests += 1
        config = self._call_config(config)
        a = self._operand(a, "A", config)
        return prepared_gemv(
            a, x, config=config, engine=self._engine, return_details=True
        )

    def gemm_batched(
        self,
        As: Sequence,
        Bs: Sequence,
        config: Optional[Ozaki2Config] = None,
    ) -> List[GemmResult]:
        """Emulate ``As[j] @ Bs[j]`` for a whole batch on the warm pool.

        Matrix operands route through the cache first, so batches sharing a
        weight matrix convert it once even across *separate* calls (the
        batched runtime itself already dedupes within one call).
        """
        self._require_open()
        self._requests += 1
        config = self._call_config(config)
        As = [self._operand(a, "A", config) for a in As]
        Bs = [self._operand(b, "B", config) for b in Bs]
        return ozaki2_gemm_batched(
            As, Bs, config=config, scheduler=self._scheduler, return_details=True
        )

    def solve(
        self,
        a: np.ndarray,
        b: np.ndarray,
        method: str = "cg",
        config: Optional[Ozaki2Config] = None,
        **kwargs,
    ):
        """Iteratively solve ``A x = b`` with emulated products.

        ``method`` is one of :data:`SOLVE_METHODS` — ``"cg"`` / ``"pcg"``
        (:func:`~repro.apps.solvers.cg_solve` /
        :func:`~repro.apps.solvers.pcg_solve`), ``"jacobi"``
        (:func:`~repro.apps.solvers.jacobi_solve`) or ``"ir"``
        (:func:`~repro.apps.solvers.iterative_refinement_solve`); extra
        keyword arguments (``tol``, ``max_iter``, ``precond``,
        ``progressive``, …) pass through.  The system matrix's preparation
        goes through the session cache, so repeated solves against one
        matrix — or a solve after a :meth:`gemm` with the same left
        operand — skip the preparation; the solve that converted it on a
        miss reports the cost in ``prepare_seconds`` (and in ``seconds``).
        The solve's ledger is absorbed into the session ledger.

        A preconditioner named by kind (``"ilu0"``, ``"ssor"``; pcg's
        default ``"ilu0"`` included) is looked up in the same cache under
        the matrix fingerprint, the kind and — for SSOR — ``omega``, and
        factored only on a miss, on the raw-matrix and the ``prepared=``
        route alike.  The solve that factors reports the cost in
        ``precond_seconds``; one that reuses the factors reports ``0.0``,
        as does a solve handed an already-factored
        :class:`~repro.apps.preconditioners.Preconditioner` (which bypasses
        the cache).  With ``cache_bytes=0`` every solve factors afresh.
        """
        self._require_open()
        self._requests += 1
        config = self._call_config(config)
        solver = solver_for(method)
        # One-time costs this call paid on a cache miss, by result field.
        paid: Dict[str, float] = {}
        arr = np.asarray(a)
        if (
            self._cache.capacity_bytes > 0
            and arr.ndim == 2
            and arr.shape[0] == arr.shape[1]
            and arr.shape[0] >= 2
        ):
            injected = "prepared" not in kwargs
            if injected:
                operand, converted = self._cache.get_or_prepare(arr, "A", config)
                kwargs["prepared"] = operand
                if converted:
                    paid["prepare_seconds"] = operand.convert_seconds
            kind = _factor_kind(solver, kwargs)
            if kind is not None:
                prepared = kwargs["prepared"]
                # An operand of this matrix (the cache's, keyed by arr's
                # content, or one prepared from arr itself) memoises the
                # fingerprint: the solve hashes the matrix at most once.
                if injected or (prepared is not None and prepared.source is arr):
                    fingerprint = prepared.fingerprint
                else:
                    fingerprint = matrix_fingerprint(np.asarray(arr, dtype=np.float64))
                precond, built = self._cache.get_or_factor(
                    fingerprint, arr, kind, kwargs.get("omega", 1.0)
                )
                kwargs["precond"] = precond
                if built:
                    paid["precond_seconds"] = precond.factor_seconds
        result = solver(a, b, config=config, **kwargs)
        # The solver saw a prepared operand and a factored instance, which it
        # reports as reuse; a miss here paid for them, so this call reports it.
        for field, seconds in paid.items():
            setattr(result, field, seconds)
            result.seconds += seconds
        self._engine.counter.absorb(result.ledger)
        return result

    # -- introspection -------------------------------------------------------
    @property
    def ledger(self) -> OpCounter:
        """The session-wide op ledger (engine work + cache events)."""
        return self._engine.counter

    @property
    def cache(self) -> OperandCache:
        """The session's transparent operand cache."""
        return self._cache

    @property
    def engine(self) -> MatrixEngine:
        """The session's matrix engine."""
        return self._engine

    def stats(self) -> Dict[str, object]:
        """Snapshot for dashboards: uptime, requests, cache, ledger, runtime.

        The ``"runtime"`` entry is the scheduler's health document —
        executor, worker count, pool-failure tally, (never silent)
        degradation state, and the GEMM calls run on each backend.
        """
        return {
            "uptime_seconds": time.perf_counter() - self._started,
            "requests": self._requests,
            "method": self.config.method_name,
            "cache": self._cache.stats(),
            "ledger": self._engine.counter.as_dict(),
            "runtime": self._scheduler.health(),
        }

    def reset_ledger(self) -> None:
        """Zero the session ledger (cache contents stay resident)."""
        self._engine.counter.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"<Session {state} requests={self._requests} "
            f"cache_entries={len(self._cache)}>"
        )
