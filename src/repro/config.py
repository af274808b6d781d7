"""Library-wide configuration objects and enumerations.

The central object is :class:`Ozaki2Config`, which captures every knob of
Algorithm 1 in the paper: the target precision (FP64 for DGEMM emulation,
FP32 for SGEMM emulation), the number of CRT moduli ``N``, the computing
mode (``fast`` or ``accurate``, Section 4.2), the accuracy target of auto
selection, and the runtime knobs (workers, executor, memory budget).
Inputs are always validated, and inner dimensions beyond ``2**17`` are
always processed in blocks (Section 4.3).  The residue kernels are not a
knob either: conversion (lines 4–5) and ``mod`` (line 7) each have one
production kernel, and the paper's FMA and ``__mulhi`` kernels, which give
the same bits, stay reference functions in :mod:`repro.crt.residues`.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
from typing import Optional, Union

from .errors import ConfigurationError, ValidationError, warn_at_caller
from .types import FP32, FP64, Format, get_format

__all__ = [
    "ComputeMode",
    "Ozaki2Config",
    "MAX_MODULI",
    "MAX_K_WITHOUT_BLOCKING",
    "DEFAULT_MODULI_DGEMM",
    "DEFAULT_MODULI_SGEMM",
    "AUTO",
]

#: Maximum number of moduli supported by the constant tables (Section 4.1:
#: "To prevent the table size from becoming excessive, we assume N <= 20").
MAX_MODULI: int = 20

#: Largest inner dimension for which a single INT8->INT32 product is exact
#: (Section 4.3: "We assume that k <= 2^17").
MAX_K_WITHOUT_BLOCKING: int = 2**17

#: Default number of moduli giving DGEMM-level accuracy for HPL-like inputs
#: (Section 5.1: "HPL can employ emulation with 14 or 15 moduli").
DEFAULT_MODULI_DGEMM: int = 15

#: Default number of moduli giving SGEMM-level accuracy (Section 5.1).
DEFAULT_MODULI_SGEMM: int = 8

#: Sentinel accepted by ``num_moduli`` (accuracy-driven selection, see
#: :mod:`repro.crt.adaptive`) and by ``parallelism`` (one worker per CPU,
#: clamped to ``os.cpu_count()``).
AUTO: str = "auto"


class ComputeMode(str, enum.Enum):
    """Computing mode of the Ozaki scheme II conversion step (Section 4.2).

    ``FAST`` determines the scale vectors from a Cauchy–Schwarz bound on the
    rows of ``A`` / columns of ``B``; ``ACCURATE`` estimates the bound with a
    direct ``ceil(|A|)·ceil(|B|)`` product on the INT8 engine, which costs one
    extra INT8 GEMM but reduces the truncation error.
    """

    FAST = "fast"
    ACCURATE = "accurate"

    @classmethod
    def parse(cls, value: "ComputeMode | str") -> "ComputeMode":
        """Coerce a string (``"fast"``/``"accurate"``/``"accu"``) to a mode."""
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key in ("fast", "f"):
            return cls.FAST
        if key in ("accurate", "accu", "a"):
            return cls.ACCURATE
        raise ConfigurationError(f"unknown compute mode {value!r}")


@dataclasses.dataclass(frozen=True)
class Ozaki2Config:
    """Configuration of one Ozaki scheme II emulated GEMM.

    Parameters
    ----------
    precision:
        Target precision: ``"fp64"`` for DGEMM emulation or ``"fp32"`` for
        SGEMM emulation.
    num_moduli:
        Number ``N`` of pairwise-coprime moduli (2..20).  More moduli means
        a larger ``P`` in condition (3) of the paper, hence smaller
        truncation error and higher accuracy, at the cost of ``N`` INT8
        GEMMs.  The string ``"auto"`` requests accuracy-driven selection
        per call: the a-priori error model of :mod:`repro.crt.adaptive`
        picks the smallest ``N`` whose guaranteed bound meets
        ``target_accuracy`` for the call's ``(k, max|A|, max|B|)``.  An
        auto configuration is *resolved* to a concrete one at every entry
        point (the result objects report the selected ``N``), and the
        resolved run is bit-identical to a fixed-``N`` run at the selected
        count — the fixed route is the verification comparator.
    target_accuracy:
        Relative accuracy target of auto selection, interpreted against
        the natural element scale ``k·max|A|·max|B|``.  ``None`` (default)
        uses :data:`repro.crt.adaptive.DEFAULT_TARGET_ACCURACY` for the
        precision (1e-10 for fp64, 1e-5 for fp32 — the library's solver
        tolerances).  Ignored when ``num_moduli`` is a fixed count.
        Degenerate values — zero, negative, NaN, infinite, or ≥ 1 — raise
        :class:`~repro.errors.ValidationError` at construction; they must
        never reach the selection math.
    selection_model:
        Which error model auto selection consults: ``"calibrated"``
        (default) may lower the moduli count past the rigorous selection
        when the measured calibration's margin test passes
        (:mod:`repro.crt.calibration`), falling back to the rigorous
        bound otherwise; ``"rigorous"`` uses the guaranteed a-priori
        bound alone.  Both are magnitude-invariant and bit-identical to a
        fixed-``N`` run at the selected count; results record which model
        decided (``moduli_selection.decided_by``).  Ignored when
        ``num_moduli`` is a fixed count.
    mode:
        ``ComputeMode.FAST`` or ``ComputeMode.ACCURATE`` (Section 4.2).
    parallelism:
        Number of worker threads used by the execution runtime to fan the
        ``N`` residue GEMMs / k-blocks / output tiles out
        (:mod:`repro.runtime`).  ``1`` (default) runs strictly serially in
        the calling thread.  The string ``"auto"`` resolves to
        ``os.cpu_count()`` at construction — clamped to the host, it can
        never over-subscribe.  Explicit integers must be positive — ``0``
        and negatives raise :class:`~repro.errors.ConfigurationError`
        (``--parallel 0`` on the CLI maps to one-worker-per-CPU) — and a
        count beyond ``os.cpu_count()`` emits a one-line warning (once per
        count): oversubscribed pools are *slower* than serial on small
        hosts (see ``benchmarks/results/runtime_scaling.txt``).  Results
        are bit-identical for every setting.
    executor:
        Which kind of worker pool the runtime fans out over when
        ``parallelism > 1``.  ``"thread"`` (default) uses a
        ``ThreadPoolExecutor``: the residue GEMMs fan out over it, and so
        do residue conversion, CRT accumulation and reconstruction in row
        bands once each band holds
        :data:`~repro.runtime.scheduler.BAND_MIN_ELEMENTS` elements (their
        NumPy kernels release the GIL).  ``"process"`` uses the persistent
        worker-process pool of :mod:`repro.runtime.process`: residue stacks
        travel through shared memory (never pickled) and every phase
        escapes the GIL, at the cost of IPC and fresh shared-memory pages.
        ``"auto"`` chooses per GEMM (and per batched item): processes when
        more than one worker is configured, the platform has a
        ``multiprocessing`` start method and the call's INT8 work
        ``N·m·k·n`` reaches :data:`~repro.runtime.plan.PROCESS_MIN_MACS`;
        threads otherwise, where the process pool costs more than it
        saves.  Results and merged op ledgers are **bit-identical** for
        every setting.
    max_pool_rebuilds:
        How many worker-*pool* failures (a worker process dying mid-wave,
        pool construction failing) the process executor survives by
        rebuilding the pool and re-executing the lost dispatch wave before
        it *degrades* to the thread path for the rest of the scheduler's
        life.  Degradation is bit-identical, recorded in the op-ledger
        (``fault_events["degraded_to_thread"]``) and on
        :attr:`Result.degraded <repro.result.Result.degraded>` — never
        silent.  Default 2; 0 degrades on the first pool failure.
    memory_budget_mb:
        Optional cap (in MiB) on the residue-product workspace.  When set,
        the runtime tiles the output over m/n so that the transient
        ``(N, m_tile, n_tile)`` stacks stay within the budget; ``None``
        (default) computes the product in a single tile.
    """

    precision: Format = FP64
    num_moduli: Union[int, str] = DEFAULT_MODULI_DGEMM
    mode: ComputeMode = ComputeMode.FAST
    parallelism: Union[int, str] = 1
    executor: str = "thread"
    max_pool_rebuilds: int = 2
    memory_budget_mb: Optional[float] = None
    target_accuracy: Optional[float] = None
    selection_model: str = "calibrated"

    def __post_init__(self) -> None:
        fmt = get_format(self.precision)
        object.__setattr__(self, "precision", fmt)
        if fmt not in (FP64, FP32):
            raise ConfigurationError(
                f"Ozaki scheme II emulates fp64 or fp32 GEMM, got {fmt.name}"
            )
        mode = ComputeMode.parse(self.mode)
        object.__setattr__(self, "mode", mode)
        if isinstance(self.num_moduli, str):
            key = self.num_moduli.strip().lower()
            if key != AUTO:
                raise ConfigurationError(
                    f"num_moduli must be an integer in [2, {MAX_MODULI}] or "
                    f"{AUTO!r}, got {self.num_moduli!r}"
                )
            object.__setattr__(self, "num_moduli", AUTO)
        else:
            n = int(self.num_moduli)
            object.__setattr__(self, "num_moduli", n)
            if not (2 <= n <= MAX_MODULI):
                raise ConfigurationError(
                    f"num_moduli must be between 2 and {MAX_MODULI}, got {n}"
                )
        if self.target_accuracy is not None:
            # Degenerate targets are rejected here, with the degenerate
            # class named, so they can never reach the selection math
            # (where a NaN would silently fail every comparison and a 0
            # would clamp to MAX_MODULI with met=False "by accident").
            target = float(self.target_accuracy)
            if math.isnan(target):
                raise ValidationError(
                    "target_accuracy must lie in (0, 1), got NaN"
                )
            if math.isinf(target):
                raise ValidationError(
                    f"target_accuracy must lie in (0, 1), got {target} (infinite)"
                )
            if target <= 0.0:
                raise ValidationError(
                    f"target_accuracy must lie in (0, 1), got {target} "
                    "(zero or negative targets are unreachable by construction)"
                )
            if target >= 1.0:
                raise ValidationError(
                    f"target_accuracy must lie in (0, 1), got {target} "
                    "(a relative target of 1 or more asks for no accuracy at all)"
                )
            object.__setattr__(self, "target_accuracy", target)
        selection_model = str(self.selection_model).strip().lower()
        if selection_model not in ("rigorous", "calibrated"):
            raise ConfigurationError(
                "selection_model must be 'rigorous' or 'calibrated', got "
                f"{self.selection_model!r}"
            )
        object.__setattr__(self, "selection_model", selection_model)
        cpus = max(1, os.cpu_count() or 1)
        if isinstance(self.parallelism, str):
            key = self.parallelism.strip().lower()
            if key != AUTO:
                raise ConfigurationError(
                    f"parallelism must be a positive worker count or {AUTO!r}, "
                    f"got {self.parallelism!r}"
                )
            # "auto" clamps to the host: one worker per CPU, never more.
            workers = cpus
        else:
            workers = int(self.parallelism)
            if workers <= 0:
                raise ConfigurationError(
                    f"parallelism must be a positive worker count, got {workers} "
                    "(use parallelism='auto' — or --parallel 0 on the CLI — for "
                    "one worker per CPU)"
                )
            if workers > cpus:
                # Deduplication is left to the warnings machinery (the
                # default filter shows one occurrence per call site), so
                # standard filters/pytest.warns keep full control.
                warn_at_caller(
                    f"parallelism={workers} over-subscribes this host "
                    f"({cpus} CPU{'s' if cpus != 1 else ''}); oversubscribed "
                    "worker pools measure slower than serial (see "
                    "benchmarks/results/runtime_scaling.txt) — consider "
                    "parallelism='auto'",
                    RuntimeWarning,
                )
        object.__setattr__(self, "parallelism", workers)
        executor = str(self.executor).strip().lower()
        if executor not in ("thread", "process", AUTO):
            raise ConfigurationError(
                f"executor must be 'thread', 'process' or {AUTO!r}, "
                f"got {self.executor!r}"
            )
        object.__setattr__(self, "executor", executor)
        rebuilds = int(self.max_pool_rebuilds)
        if rebuilds < 0:
            raise ConfigurationError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds!r}"
            )
        object.__setattr__(self, "max_pool_rebuilds", rebuilds)
        if self.memory_budget_mb is not None:
            budget = float(self.memory_budget_mb)
            if not budget > 0.0:
                # `not (x > 0)` also catches NaN, which every comparison fails.
                raise ConfigurationError(
                    f"memory_budget_mb must be positive, got {budget}"
                )
            object.__setattr__(self, "memory_budget_mb", budget)

    @property
    def is_dgemm(self) -> bool:
        """True when this configuration emulates DGEMM (FP64 target)."""
        return self.precision == FP64

    @property
    def is_sgemm(self) -> bool:
        """True when this configuration emulates SGEMM (FP32 target)."""
        return self.precision == FP32

    @property
    def moduli_is_auto(self) -> bool:
        """True when ``num_moduli`` requests accuracy-driven selection."""
        return self.num_moduli == AUTO

    @property
    def method_name(self) -> str:
        """Name in the paper's nomenclature, e.g. ``"OS II-fast-14"``.

        An unresolved auto configuration reports ``"OS II-<mode>-auto"``;
        results always carry the resolved configuration with the selected
        count.
        """
        mode = "fast" if self.mode is ComputeMode.FAST else "accu"
        return f"OS II-{mode}-{self.num_moduli}"

    def resolved(self, num_moduli: int) -> "Ozaki2Config":
        """Concrete copy of an auto configuration at the selected count.

        No-op guard included: resolving a fixed configuration to its own
        count returns an equal configuration.
        """
        return dataclasses.replace(self, num_moduli=int(num_moduli))

    def replace(self, **kwargs) -> "Ozaki2Config":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    @classmethod
    def for_dgemm(
        cls,
        num_moduli: int = DEFAULT_MODULI_DGEMM,
        mode: "ComputeMode | str" = ComputeMode.FAST,
        **kwargs,
    ) -> "Ozaki2Config":
        """Convenience constructor for DGEMM emulation."""
        return cls(precision=FP64, num_moduli=num_moduli, mode=mode, **kwargs)

    @classmethod
    def for_sgemm(
        cls,
        num_moduli: int = DEFAULT_MODULI_SGEMM,
        mode: "ComputeMode | str" = ComputeMode.FAST,
        **kwargs,
    ) -> "Ozaki2Config":
        """Convenience constructor for SGEMM emulation."""
        return cls(precision=FP32, num_moduli=num_moduli, mode=mode, **kwargs)
