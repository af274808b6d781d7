"""Matrix-engine interface and operation accounting.

An engine exposes a single :meth:`MatrixEngine.matmul` operation whose
numerical behaviour matches the corresponding hardware unit.  Engines also
record how much work they performed in an :class:`OpCounter`; the
performance model uses those ledgers to convert algorithmic work into
modelled GPU time and power (the hardware itself is not available in this
reproduction — see DESIGN.md, Section 2).
"""

from __future__ import annotations

import abc
import copy
import dataclasses
from typing import Dict

import numpy as np

from ..errors import EngineError
from ..types import Format

__all__ = ["OpCounter", "MatrixEngine"]


@dataclasses.dataclass
class OpCounter:
    """Ledger of operations and memory traffic performed by an engine.

    Attributes
    ----------
    matmul_calls:
        Number of GEMM invocations.
    mac_ops:
        Number of multiply-accumulate operations (``m*n*k`` per GEMM).  The
        conventional "FLOPs" figure is ``2 * mac_ops``.
    elementwise_ops:
        Number of scalar element-wise operations (conversions, scalings).
    bytes_read / bytes_written:
        Modelled memory traffic in bytes, assuming each operand is read or
        written once per invocation (no cache model).
    emulated_calls:
        Histogram ``{N: count}`` of emulated GEMM/GEMV calls retired
        through this engine, keyed by the moduli count each call actually
        ran with.  Recorded by the emulation entry points (not by the raw
        engine ops), so the stacked, per-slice and GEMV/GEMM execution
        strategies stay ledger-identical; under ``num_moduli="auto"`` this is where
        the per-call selected ``N`` becomes observable.
    cache_hits / cache_misses / cache_evictions:
        Prepared-operand cache events (:class:`repro.service.cache.
        OperandCache`): lookups served from a cached
        :class:`~repro.core.operand.ResidueOperand`, lookups that had to
        convert, and entries evicted to stay within the byte budget.  All
        zero for sessions running without a cache.
    cache_bytes_inserted / cache_bytes_evicted:
        Byte traffic of those cache events (an entry's residues + scales +
        retained source), so the resident footprint of a window is
        ``inserted − evicted``.
    fault_events:
        Histogram ``{event: count}`` of resilience events the runtime
        survived while producing this ledger — e.g. ``task_retry``,
        ``wave_retry``, ``pool_failure``, ``shm_fallback``,
        ``degraded_to_thread``, ``stage_retry``.  Recorded by the recovery
        paths (:mod:`repro.runtime.scheduler` and friends), never by the
        engine ops, so a fault-free run has an empty histogram and its
        integer counters compare equal to a faulted-but-recovered run of
        the same product.  This is how degradations surface in
        :class:`~repro.result.Result` instead of happening silently.
    """

    matmul_calls: int = 0
    mac_ops: int = 0
    elementwise_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_bytes_inserted: int = 0
    cache_bytes_evicted: int = 0
    emulated_calls: Dict[int, int] = dataclasses.field(default_factory=dict)
    fault_events: Dict[str, int] = dataclasses.field(default_factory=dict)

    #: Plain integer counters (the dict field needs per-key arithmetic).
    _INT_FIELDS = (
        "matmul_calls",
        "mac_ops",
        "elementwise_ops",
        "bytes_read",
        "bytes_written",
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "cache_bytes_inserted",
        "cache_bytes_evicted",
    )

    def record_matmul(
        self,
        m: int,
        n: int,
        k: int,
        in_bytes: float,
        out_bytes: float,
        count: int = 1,
    ) -> None:
        """Record ``count`` identical ``m x k`` by ``k x n`` GEMMs.

        A fused stacked call (:meth:`MatrixEngine.matmul_stack`) records its
        whole stack through ``count`` so the ledger is indistinguishable from
        ``count`` separate 2-D calls: the per-call byte figures are rounded
        first and then multiplied, exactly as repeated single calls would
        accumulate them.
        """
        count = int(count)
        self.matmul_calls += count
        self.mac_ops += count * int(m) * int(n) * int(k)
        self.bytes_read += count * int(round((m * k + k * n) * in_bytes))
        self.bytes_written += count * int(round(m * n * out_bytes))

    def record_elementwise(self, count: int, in_bytes: float = 0.0, out_bytes: float = 0.0) -> None:
        """Record ``count`` element-wise operations and their traffic."""
        self.elementwise_ops += int(count)
        self.bytes_read += int(round(count * in_bytes))
        self.bytes_written += int(round(count * out_bytes))

    def record_emulated(self, num_moduli: int, count: int = 1) -> None:
        """Record ``count`` emulated GEMM/GEMV calls run with ``num_moduli``.

        Called once per emulated product by the entry points
        (:func:`repro.core.gemm.ozaki2_gemm`,
        :func:`repro.core.gemv.prepared_gemv`, the batched runtime) — never
        by the engine's raw ops, so every execution strategy of the same
        product records the identical ledger.
        """
        key = int(num_moduli)
        self.emulated_calls[key] = self.emulated_calls.get(key, 0) + int(count)

    def record_cache_hit(self, count: int = 1) -> None:
        """Record ``count`` operand-cache lookups served from the cache."""
        self.cache_hits += int(count)

    def record_cache_miss(self, count: int = 1) -> None:
        """Record ``count`` operand-cache lookups that had to convert."""
        self.cache_misses += int(count)

    def record_cache_insert(self, nbytes: int) -> None:
        """Record one entry of ``nbytes`` entering the operand cache."""
        self.cache_bytes_inserted += int(nbytes)

    def record_cache_eviction(self, nbytes: int, count: int = 1) -> None:
        """Record ``count`` evictions releasing ``nbytes`` from the cache."""
        self.cache_evictions += int(count)
        self.cache_bytes_evicted += int(nbytes)

    def record_fault_event(self, event: str, count: int = 1) -> None:
        """Record ``count`` occurrences of a survived resilience ``event``.

        Called by the recovery paths (task/wave retries, pool rebuilds,
        shared-memory fallbacks, process→thread degradation) so that no
        fault is absorbed silently: the merged ledger of a run that hit
        faults differs from a fault-free run exactly here, and nowhere in
        the work counters.
        """
        self.fault_events[event] = self.fault_events.get(event, 0) + int(count)

    @property
    def flops(self) -> int:
        """Conventional floating/integer-op count: 2 ops per MAC."""
        return 2 * self.mac_ops

    def reset(self) -> None:
        """Zero every counter."""
        for name in self._INT_FIELDS:
            setattr(self, name, 0)
        self.emulated_calls = {}
        self.fault_events = {}

    def as_dict(self) -> Dict[str, object]:
        """Return the counters as a plain dictionary (for reports/tests)."""
        out: Dict[str, object] = {name: getattr(self, name) for name in self._INT_FIELDS}
        out["flops"] = self.flops
        out["emulated_calls"] = dict(self.emulated_calls)
        out["fault_events"] = dict(self.fault_events)
        return out

    def merge(self, other: "OpCounter") -> "OpCounter":
        """Return a new counter with the sum of both ledgers."""
        merged = self.copy()
        merged.absorb(other)
        return merged

    def absorb(self, other: "OpCounter") -> None:
        """Add ``other``'s ledger into this counter in place."""
        for name in self._INT_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for moduli, count in other.emulated_calls.items():
            self.emulated_calls[moduli] = self.emulated_calls.get(moduli, 0) + count
        for event, count in other.fault_events.items():
            self.fault_events[event] = self.fault_events.get(event, 0) + count

    def copy(self) -> "OpCounter":
        """Return an independent snapshot of this ledger."""
        snapshot = dataclasses.replace(self)
        snapshot.emulated_calls = dict(self.emulated_calls)
        snapshot.fault_events = dict(self.fault_events)
        return snapshot

    def difference(self, earlier: "OpCounter") -> "OpCounter":
        """Return the per-field delta ``self - earlier`` as a new counter.

        Histogram entries whose delta is zero are dropped, so a window in
        which no emulated call retired reports an empty histogram.
        """
        delta = OpCounter()
        for name in self._INT_FIELDS:
            setattr(delta, name, getattr(self, name) - getattr(earlier, name))
        keys = set(self.emulated_calls) | set(earlier.emulated_calls)
        for moduli in sorted(keys):
            count = self.emulated_calls.get(moduli, 0) - earlier.emulated_calls.get(moduli, 0)
            if count:
                delta.emulated_calls[moduli] = count
        events = set(self.fault_events) | set(earlier.fault_events)
        for event in sorted(events):
            count = self.fault_events.get(event, 0) - earlier.fault_events.get(event, 0)
            if count:
                delta.fault_events[event] = count
        return delta


class MatrixEngine(abc.ABC):
    """Abstract base class of all matrix-engine simulators.

    Subclasses define :attr:`input_format` / :attr:`output_format` and
    implement :meth:`_compute`, which receives operands already converted to
    the engine's input representation.
    """

    #: Number format accepted as input by the engine.
    input_format: Format
    #: Number format of the accumulator / output.
    output_format: Format
    #: Human-readable engine name used by the registry and the perf model.
    name: str = "abstract"

    def __init__(self) -> None:
        self.counter = OpCounter()

    # -- public API ---------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply ``a @ b`` with the engine's numerical behaviour.

        The operands must already be representable in the engine's input
        format (for integer engines, within the INT8 range); violations raise
        :class:`~repro.errors.EngineError` rather than silently wrapping, so
        that algorithm bugs surface immediately.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise EngineError(
                f"{self.name}: operands must be 2-D, got {a.ndim}-D and {b.ndim}-D"
            )
        if a.shape[1] != b.shape[0]:
            raise EngineError(
                f"{self.name}: inner dimensions mismatch {a.shape} x {b.shape}"
            )
        a_in = self._prepare(a, "A")
        b_in = self._prepare(b, "B")
        out = self._compute(a_in, b_in)
        m, k = a.shape
        n = b.shape[1]
        self.counter.record_matmul(
            m,
            n,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
        )
        return out

    def matmul_stack(
        self,
        a: np.ndarray,
        b: np.ndarray,
        trusted: bool = False,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched product ``out[i] = a[i] @ b[i]`` over a 3-D operand stack.

        ``a`` has shape ``(N, m, k)`` and ``b`` has shape ``(N, k, n)``; the
        result is the ``(N, m, n)`` stack of per-slice products with the
        engine's numerical behaviour, written into ``out`` when one is
        given.  The op ledger records exactly what ``N`` separate
        :meth:`matmul` calls would.

        ``trusted`` asserts the operands are already in the engine's input
        representation (e.g. INT8 residue stacks produced by this library's
        own conversion), letting subclasses skip their per-call validation
        sweeps.  The generic fallback ignores the flag and validates — only
        engines that override this method with a fused implementation may
        honour it, so external callers keep full validation by default.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        self._check_stack_shapes(a, b)
        outs = [
            self._compute(self._prepare(a[i], "A"), self._prepare(b[i], "B"))
            for i in range(a.shape[0])
        ]
        n_stack, m, k = a.shape
        n = b.shape[2]
        self.counter.record_matmul(
            m,
            n,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )
        return np.stack(outs, out=out)

    def matvec_stack(self, a: np.ndarray, v: np.ndarray, trusted: bool = False) -> np.ndarray:
        """Batched matrix–vector product ``out[i] = a[i] @ v[i]`` over a stack.

        ``a`` has shape ``(N, m, k)`` and ``v`` has shape ``(N, k)``; the
        result is the ``(N, m)`` stack of per-slice products with the
        engine's numerical behaviour.  This is the ``n = 1`` specialisation
        of :meth:`matmul_stack` — the op ledger records exactly what ``N``
        separate ``(m, k) @ (k, 1)`` :meth:`matmul` calls would, so a GEMV
        issued through this op is indistinguishable in the accounting from
        the same product routed through the GEMM machinery.

        ``trusted`` has the same contract as in :meth:`matmul_stack`: the
        generic fallback ignores it and validates every slice; only engines
        overriding this method with a fused implementation may honour it.
        """
        a = np.asarray(a)
        v = np.asarray(v)
        self._check_vec_stack_shapes(a, v)
        outs = [
            self._compute(self._prepare(a[i], "A"), self._prepare(v[i][:, None], "B"))[:, 0]
            for i in range(a.shape[0])
        ]
        self.record_matvec_stack(*a.shape)
        return np.stack(outs)

    def record_matvec_stack(self, n_stack: int, m: int, k: int) -> None:
        """Ledger of one :meth:`matvec_stack` call on ``(n_stack, m, k)``.

        Every stacked GEMV records through here, as do host routes that
        produce the same residue products another way (the FP64 line 6 of
        :func:`repro.core.gemv.prepared_gemv`): the ledger counts the
        engine work the emulation stands for, not the host's route.
        """
        self.counter.record_matmul(
            m,
            1,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )

    def _check_vec_stack_shapes(self, a: np.ndarray, v: np.ndarray) -> None:
        """Validate a :meth:`matvec_stack` operand pair (3-D x 2-D, conforming)."""
        if a.ndim != 3 or v.ndim != 2:
            raise EngineError(
                f"{self.name}: matvec_stack expects a 3-D matrix stack and a "
                f"2-D vector stack, got {a.ndim}-D and {v.ndim}-D"
            )
        if a.shape[0] != v.shape[0]:
            raise EngineError(
                f"{self.name}: stack sizes mismatch {a.shape} x {v.shape}"
            )
        if a.shape[0] == 0:
            raise EngineError(f"{self.name}: matvec_stack requires a non-empty stack")
        if a.shape[2] != v.shape[1]:
            raise EngineError(
                f"{self.name}: inner dimensions mismatch {a.shape} x {v.shape}"
            )

    def _check_stack_shapes(self, a: np.ndarray, b: np.ndarray) -> None:
        """Validate a :meth:`matmul_stack` operand pair (3-D, conforming)."""
        if a.ndim != 3 or b.ndim != 3:
            raise EngineError(
                f"{self.name}: stacked operands must be 3-D, got "
                f"{a.ndim}-D and {b.ndim}-D"
            )
        if a.shape[0] != b.shape[0]:
            raise EngineError(
                f"{self.name}: stack sizes mismatch {a.shape} x {b.shape}"
            )
        if a.shape[0] == 0:
            raise EngineError(f"{self.name}: matmul_stack requires a non-empty stack")
        if a.shape[2] != b.shape[1]:
            raise EngineError(
                f"{self.name}: inner dimensions mismatch {a.shape} x {b.shape}"
            )

    def reset_counter(self) -> None:
        """Reset the engine's operation ledger."""
        self.counter.reset()

    def clone(self) -> "MatrixEngine":
        """Return an engine with identical settings and a fresh ledger.

        Engines are cheap value objects whose only mutable state is the
        :class:`OpCounter`; a shallow copy with its own counter is therefore
        an independent, pool-safe instance.  The runtime scheduler gives one
        clone to each worker thread so that concurrent ``matmul`` calls never
        race on a shared ledger, and merges the clone ledgers back afterwards
        (see :mod:`repro.runtime.scheduler`).
        """
        dup = copy.copy(self)
        dup.counter = OpCounter()
        return dup

    # -- subclass hooks ------------------------------------------------------
    @abc.abstractmethod
    def _prepare(self, x: np.ndarray, which: str) -> np.ndarray:
        """Convert/validate an operand into the engine's input representation."""

    @abc.abstractmethod
    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Perform the engine-accurate product of prepared operands."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
