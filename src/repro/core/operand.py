"""Precomputed residue operands: convert once, multiply many times.

The conversion phases of Algorithm 1 (lines 2–5: scaling, truncation and the
per-modulus INT8 residues) account for a large share of the emulated GEMM's
wall clock (see ``benchmarks/results/cpu_wallclock_phase_breakdown.txt``),
yet they depend only on *one* operand.  Workloads that multiply the same
matrix against many partners — LU trailing updates sweeping one ``L21``
across column strips, iterative solvers applying a fixed system matrix every
iteration, batches sharing a weight matrix — re-pay that cost on every call.

:class:`ResidueOperand` captures the conversion of one side once:

* the fast-mode power-of-two scale vector (``μ`` for the A side, ``ν`` for
  the B side),
* the per-modulus INT8 residue stack ``(N, rows, cols)``,
* the ``N``-independent pre-scale bounds of the scale formula
  (:class:`~repro.core.scaling.PrescaleBounds`) and a reference to the
  validated source matrix, so the *same* operand can be re-derived at any
  other moduli count without re-running the row/column-norm pass
  (:meth:`ResidueOperand.resolve_for` — the machinery behind adaptive
  moduli selection and progressive-precision solvers).

A prepared operand can then be passed to :func:`~repro.core.gemm.ozaki2_gemm`
(or :func:`~repro.runtime.batched.ozaki2_gemm_batched`) in place of the raw
matrix; the corresponding convert phase is skipped entirely and reported as
0 in :class:`~repro.core.gemm.PhaseTimes`.  Results are **bit-identical** to
the unprepared call: fast mode derives each side's scales from that side
alone, so caching reorders no floating-point operation.

Adaptive moduli selection (``num_moduli="auto"``)
-------------------------------------------------
Preparing under an auto configuration resolves the moduli count *at
preparation time* from the operand's own ``(k, max|X|)`` — the relative
error model of :mod:`repro.crt.adaptive` is magnitude-invariant, so this is
exactly the count every partner's multiplication selects under the same
``target_accuracy``; reuse therefore stays valid with no partner-dependent
re-selection.  A partner multiplying under a *different* target (or a fixed
count, e.g. the progressive-precision solvers escalating through a moduli
ladder) calls :meth:`ResidueOperand.resolve_for`, which re-derives the
operand at the requested count — bit-identical to a fresh preparation at
that count — and caches the result, so solvers escalating through a ladder
pay each stage's conversion once.

Accurate mode is different — its scale determination couples the two sides
through the bound matrix ``C̄ = Ā·B̄`` (Section 4.2), so *residues* cannot
be fixed before the partner is known.  But everything per-side and
``N``-independent **can**: the pre-scales ``μ' = 2^(5−⌊log2 max_h|a_ih|⌋)``
and the rounded-up magnitude matrix ``Ā = ceil(diag(μ')·|A|)`` that feed
the bound product.  :class:`AccurateOperand` captures exactly that
(:func:`~repro.core.scaling.accurate_mode_prescale`): multiplications
against it skip the per-side half of the scale phase and are bit-identical
to the unprepared call, because the one-shot path is *implemented as* the
same two-phase split.  The coupled half — the ``C̄`` product, truncation
and residues — still runs per partner; :class:`ResidueOperand` (fast mode)
and :class:`AccurateOperand` (accurate mode) share the
:class:`PreparedOperand` interface so entry points, the service-layer
operand cache and the solvers treat both uniformly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..config import ComputeMode, Ozaki2Config
from ..crt.adaptive import select_num_moduli
from ..crt.constants import CRTConstantTable, build_constant_table
from ..errors import ConfigurationError
from ..utils.validation import check_operand
from .conversion import residue_slices, truncate_scaled
from .scaling import (
    AccuratePrescale,
    PrescaleBounds,
    accurate_mode_prescale,
    fast_mode_prescale,
    scale_exponent_budget,
    scale_from_prescale,
)

__all__ = [
    "PreparedOperand",
    "ResidueOperand",
    "AccurateOperand",
    "matrix_fingerprint",
    "prepare_a",
    "prepare_b",
]

#: Maximum number of re-derived moduli counts a prepared operand keeps
#: alive at once (:meth:`ResidueOperand.resolve_for`).  The progressive
#: solvers escalate through 3–4 ladder stages, so four cached counts keep
#: every ladder hot while bounding the residue-stack memory a long-lived
#: operand can accumulate to ~4x one stack (previously unbounded: one
#: stack per distinct count ever requested).
_RESOLVE_CACHE_ENTRIES = 4


def matrix_fingerprint(x: np.ndarray) -> str:
    """Content fingerprint of a matrix: 32 hex digits over its logical value.

    Two arrays fingerprint equal **iff** they hold the same dtype, shape and
    element values — regardless of memory layout.  The hash runs over the
    row-major (C-order) *logical* element sequence (``ndarray.tobytes`` with
    its default C order walks the array through its strides), never over the
    raw buffer, so a transposed view ``A.T``, a sliced view ``A[::2, ::2]``
    or a Fortran-ordered copy fingerprints identically to its contiguous
    ``np.ascontiguousarray`` copy.  Hashing the buffer instead would split
    those — the same logical operand would miss the prepared-operand cache
    (wasted conversions) or, worse, two different logical matrices sharing a
    buffer region could collide.

    The digest (BLAKE2b-128) is salted with dtype and shape, so a
    ``(2, 8)`` and an ``(8, 2)`` matrix with equal buffers differ, as do
    float32/float64 views of the same bits.  This is the identity the
    service layer keys its operand cache and wire protocol on
    (:mod:`repro.service`): clients send the fingerprint in place of the
    payload once the server has acknowledged it.
    """
    x = np.asarray(x)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(x.dtype.str.encode("ascii"))
    digest.update(repr(tuple(x.shape)).encode("ascii"))
    digest.update(x.tobytes(order="C"))
    return digest.hexdigest()

#: Why a prepared operand cannot serve a multiplication in the other mode.
#: Fast residues are truncated under per-side Cauchy–Schwarz scales;
#: accurate preparation caches the pre-scales of the coupled bound-product
#: construction — the two are different arithmetic, never interchangeable.
_MODE_MISMATCH = (
    "fast and accurate mode use different scale constructions (per-side "
    "Cauchy-Schwarz vs. the coupled bound matrix C-bar = A-bar * B-bar of "
    "Section 4.2), so an operand prepared in one mode cannot serve a "
    "multiplication in the other; prepare the operand under a "
    "configuration with the matching mode"
)


class PreparedOperand:
    """Common interface of prepared one-side operands (fast or accurate).

    Entry points accept either concrete class wherever a prepared side is
    allowed; ``isinstance(x, PreparedOperand)`` is the dispatch test.  The
    concrete classes are :class:`ResidueOperand` (fast mode: scale vector +
    INT8 residue stack, partner-independent) and :class:`AccurateOperand`
    (accurate mode: the ``N``-independent pre-scale half of the coupled
    scale construction).  Subclasses provide ``side``, ``config``,
    ``source``, ``shape``, ``num_moduli``, ``max_abs``, ``nbytes``,
    ``convert_seconds``, ``require_compatible`` and ``resolve_for``.
    """

    side: str
    source: Optional[np.ndarray]

    @property
    def shape(self) -> Tuple[int, ...]:
        raise NotImplementedError

    @property
    def inner_dim(self) -> int:
        """The GEMM inner dimension ``k`` this operand contributes."""
        return int(self.shape[1] if self.side == "A" else self.shape[0])

    @property
    def phase_key(self) -> str:
        """The :class:`~repro.core.gemm.PhaseTimes` key this operand feeds."""
        return "convert_A" if self.side == "A" else "convert_B"

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the *source* matrix (see
        :func:`matrix_fingerprint`); requires a retained source."""
        if self.source is None:
            raise ConfigurationError(
                f"this hand-constructed {self.side}-side operand retains no "
                "source matrix, so it has no content fingerprint"
            )
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = matrix_fingerprint(self.source)
            object.__setattr__(self, "_fingerprint", cached)
        return cached


@dataclasses.dataclass(frozen=True)
class ResidueOperand(PreparedOperand):
    """One GEMM side converted once, reusable against many partners.

    Attributes
    ----------
    side:
        ``"A"`` (left operand, per-row scales) or ``"B"`` (right operand,
        per-column scales).
    scale:
        The fast-mode power-of-two scale vector actually applied (``μ`` for
        the A side, ``ν`` for the B side).
    slices:
        INT8 residue stack of shape ``(N, rows, cols)`` — lines 4–5 of
        Algorithm 1 for this operand.
    config:
        The (always concrete) configuration the operand was prepared
        under; preparing with ``num_moduli="auto"`` stores the resolved
        configuration at the selected count.  Multiplications must use a
        configuration with the same precision, moduli count, mode and
        residue kernel (runtime knobs — ``parallelism``, ``executor``,
        ``max_pool_rebuilds``, ``memory_budget_mb``, ``block_k``,
        ``validate`` — may differ freely; they do not affect the
        residues).  A different moduli count is reachable through
        :meth:`resolve_for` instead of re-preparation.
    convert_seconds:
        One-time wall-clock cost of the preparation (scale + truncate +
        residues); the amortisation baseline reported by
        :func:`repro.harness.prepared_reuse_sweep`.
    prescale:
        Cached ``N``-independent scale inputs
        (:class:`~repro.core.scaling.PrescaleBounds`), or ``None`` for
        hand-constructed operands (which then cannot :meth:`resolve_for`).
    source:
        Reference to the validated float64 source matrix (not a copy — the
        operand keeps the caller's array alive; mutating it invalidates
        future :meth:`resolve_for` derivations, exactly as mutating the
        matrix between two plain GEMM calls would change their results).
    """

    side: str
    scale: np.ndarray
    slices: np.ndarray
    config: Ozaki2Config
    convert_seconds: float = 0.0
    prescale: Optional[PrescaleBounds] = None
    source: Optional[np.ndarray] = None
    _resolved_cache: "OrderedDict[int, ResidueOperand]" = dataclasses.field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.side not in ("A", "B"):
            raise ConfigurationError(
                f"ResidueOperand side must be 'A' or 'B', got {self.side!r}"
            )
        if self.config.moduli_is_auto:
            raise ConfigurationError(
                "ResidueOperand.config must be concrete; preparation resolves "
                "auto configurations before constructing the operand"
            )
        # Seed the (shared) derivation cache with this operand's own count,
        # so resolving back to it from a derived operand is a lookup, not a
        # second conversion.
        self._resolved_cache.setdefault(self.num_moduli, self)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape ``(rows, cols)`` of the underlying matrix."""
        return tuple(self.slices.shape[1:])

    @property
    def num_moduli(self) -> int:
        """Number of residue slices ``N``."""
        return int(self.slices.shape[0])

    @property
    def max_abs(self) -> Optional[float]:
        """``max|X|`` of the source matrix (None without cached prescale).

        This is the scan auto-N selection feeds on — already performed by
        the preparation's scaling pass, so selection against a prepared
        operand costs nothing.
        """
        return None if self.prescale is None else self.prescale.global_max_abs

    @property
    def nbytes(self) -> int:
        """Resident bytes of this operand (residues + scales + kept source).

        The figure the operand cache's byte budget accounts in
        (:class:`repro.service.cache.OperandCache`); derivations cached by
        :meth:`resolve_for` are *not* included — the cache bounds what it
        inserted, and derived operands share the source reference.
        """
        total = int(self.slices.nbytes) + int(self.scale.nbytes)
        if self.source is not None:
            total += int(self.source.nbytes)
        return total

    def require_compatible(self, config: Ozaki2Config) -> None:
        """Raise :class:`ConfigurationError` unless ``config`` can reuse this.

        The cached scale and residues are a function of the preparing
        configuration's precision (constant-table bit width), moduli count,
        mode and residue kernel; a multiplication under a configuration that
        differs in any of those would silently change the result, so it is
        rejected instead.  An **auto** ``config`` skips the moduli-count
        comparison: the entry points resolve the selection and re-derive
        the operand (:meth:`resolve_for`) before executing, so the count is
        checked on the resolved pair.
        """
        if config.mode is not ComputeMode.FAST:
            raise ConfigurationError(
                f"prepared operand ({self.side} side) carries fast-mode "
                f"residues but the multiplication requests "
                f"{config.mode.value!r} mode: {_MODE_MISMATCH}"
            )
        checks = [
            ("precision", self.config.precision.name, config.precision.name),
            ("residue_kernel", self.config.residue_kernel.value,
             config.residue_kernel.value),
        ]
        if not config.moduli_is_auto:
            checks.insert(1, ("num_moduli", self.config.num_moduli, config.num_moduli))
        mismatches = [
            f"{name}: prepared with {ours!r}, multiplication requests {theirs!r}"
            for name, ours, theirs in checks
            if ours != theirs
        ]
        if mismatches:
            raise ConfigurationError(
                "prepared operand is incompatible with this configuration — "
                + "; ".join(mismatches)
            )

    def resolve_for(self, num_moduli: int) -> "ResidueOperand":
        """Return this operand re-derived at another moduli count.

        The derived operand is **bit-identical to a fresh preparation** of
        the source matrix at the requested count: the scale vector is
        finalised from the cached pre-scale bounds (the exact arithmetic of
        :func:`~repro.core.scaling.fast_mode_scale_a` — see
        :func:`~repro.core.scaling.scale_from_prescale`) and the truncation
        + residue passes rerun against the stored source.  Derivations are
        cached on the operand — LRU-bounded to the
        :data:`_RESOLVE_CACHE_ENTRIES` most recently used counts, so a
        solver escalating through a moduli ladder pays each stage's
        conversion once while a long-lived operand cycling through many
        counts cannot accumulate unbounded residue stacks.  An evicted
        count is simply re-derived on the next request (bit-identical; the
        cache is an amortisation, never an identity).  Works in both
        directions (narrowing *and* widening).
        """
        num_moduli = int(num_moduli)
        if num_moduli == self.num_moduli:
            return self
        cached = self._resolved_cache.get(num_moduli)
        if cached is not None:
            self._resolved_cache.move_to_end(num_moduli)
            return cached
        if self.prescale is None or self.source is None:
            raise ConfigurationError(
                f"this {self.side}-side operand was prepared with "
                f"num_moduli={self.num_moduli} and carries no cached "
                "pre-scale bounds/source, so it cannot be re-derived at "
                f"num_moduli={num_moduli}; prepare it again with the "
                "requested configuration"
            )
        config = self.config.resolved(num_moduli)
        table = build_constant_table(
            num_moduli, 64 if config.is_dgemm else 32
        )
        start = time.perf_counter()
        scale = scale_from_prescale(
            self.prescale, scale_exponent_budget(table, "fast")
        )
        x_prime = truncate_scaled(
            self.source, scale, side="left" if self.side == "A" else "right"
        )
        slices = residue_slices(x_prime, table, config.residue_kernel)
        derived = ResidueOperand(
            side=self.side,
            scale=scale,
            slices=slices,
            config=config,
            convert_seconds=time.perf_counter() - start,
            prescale=self.prescale,
            source=self.source,
            _resolved_cache=self._resolved_cache,
        )
        self._resolved_cache[num_moduli] = derived
        while len(self._resolved_cache) > _RESOLVE_CACHE_ENTRIES:
            self._resolved_cache.popitem(last=False)
        return derived


@dataclasses.dataclass(frozen=True)
class AccurateOperand(PreparedOperand):
    """One GEMM side's ``N``-independent accurate-mode preparation.

    Accurate mode finalises its scales from the coupled bound product
    ``C̄ = Ā·B̄``, so — unlike :class:`ResidueOperand` — the truncated
    residues cannot be cached before the partner is known.  What *is*
    partner- and ``N``-independent is each side's pre-scale half
    (:class:`~repro.core.scaling.AccuratePrescale`): the ``μ'``/``ν'``
    vectors and the rounded-up magnitude matrix that feeds the bound
    product.  Multiplying against an :class:`AccurateOperand` therefore
    skips the per-side magnitude scan and round-up of the scale phase (the
    ``C̄`` product and the conversion still run per partner) and is
    **bit-identical** to passing the raw matrix: the one-shot path is
    implemented as the same two-phase split
    (:func:`~repro.core.scaling.accurate_scales_from_prescale`).

    Attributes
    ----------
    side:
        ``"A"`` (per-row pre-scales) or ``"B"`` (per-column).
    prescale:
        The cached :class:`~repro.core.scaling.AccuratePrescale`.
    config:
        The (always concrete) accurate-mode configuration prepared under;
        ``num_moduli="auto"`` resolves at preparation time exactly as the
        fast-mode preparation does.
    source:
        The validated float64 source matrix (required — truncation and
        residues run from it on every multiplication).
    convert_seconds:
        One-time wall-clock cost of the preparation.
    """

    side: str
    prescale: AccuratePrescale
    config: Ozaki2Config
    source: np.ndarray
    convert_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.side not in ("A", "B"):
            raise ConfigurationError(
                f"AccurateOperand side must be 'A' or 'B', got {self.side!r}"
            )
        if self.config.mode is not ComputeMode.ACCURATE:
            raise ConfigurationError(
                "AccurateOperand.config must be an accurate-mode "
                f"configuration, got mode {self.config.mode.value!r}"
            )
        if self.config.moduli_is_auto:
            raise ConfigurationError(
                "AccurateOperand.config must be concrete; preparation "
                "resolves auto configurations before constructing the operand"
            )

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape ``(rows, cols)`` of the underlying matrix."""
        return tuple(self.source.shape)

    @property
    def num_moduli(self) -> int:
        """The moduli count the operand was prepared (or resolved) at."""
        return int(self.config.num_moduli)

    @property
    def max_abs(self) -> float:
        """``max|X|`` of the source matrix (from the preparation's scan)."""
        return self.prescale.global_max_abs

    @property
    def nbytes(self) -> int:
        """Resident bytes (pre-scale arrays + kept source); the figure the
        operand cache's byte budget accounts in."""
        total = int(self.prescale.magnitude.nbytes)
        total += int(self.prescale.scale_prime.nbytes)
        total += int(self.prescale.max_abs.nbytes)
        total += int(self.source.nbytes)
        return total

    def require_compatible(self, config: Ozaki2Config) -> None:
        """Raise :class:`ConfigurationError` unless ``config`` can reuse this.

        Mirrors :meth:`ResidueOperand.require_compatible`: mode, precision,
        residue kernel and (for concrete configurations) moduli count must
        match; runtime knobs may differ freely.
        """
        if config.mode is not ComputeMode.ACCURATE:
            raise ConfigurationError(
                f"prepared operand ({self.side} side) carries accurate-mode "
                f"pre-scales but the multiplication requests "
                f"{config.mode.value!r} mode: {_MODE_MISMATCH}"
            )
        checks = [
            ("precision", self.config.precision.name, config.precision.name),
            ("residue_kernel", self.config.residue_kernel.value,
             config.residue_kernel.value),
        ]
        if not config.moduli_is_auto:
            checks.insert(1, ("num_moduli", self.config.num_moduli, config.num_moduli))
        mismatches = [
            f"{name}: prepared with {ours!r}, multiplication requests {theirs!r}"
            for name, ours, theirs in checks
            if ours != theirs
        ]
        if mismatches:
            raise ConfigurationError(
                "prepared operand is incompatible with this configuration — "
                + "; ".join(mismatches)
            )

    def resolve_for(self, num_moduli: int) -> "AccurateOperand":
        """Return this operand re-targeted at another moduli count.

        Nothing cached here depends on ``N`` (the pre-scales are
        ``N``-independent by construction), so re-targeting is a
        configuration swap, not a re-derivation — trivially bit-identical
        to a fresh preparation at the requested count.
        """
        num_moduli = int(num_moduli)
        if num_moduli == self.num_moduli:
            return self
        return dataclasses.replace(self, config=self.config.resolved(num_moduli))


def _prepare(
    x: np.ndarray,
    side: str,
    config: Optional[Ozaki2Config],
    constant_table: Optional[CRTConstantTable],
) -> "ResidueOperand | AccurateOperand":
    config = config or Ozaki2Config()
    if config.moduli_is_auto and constant_table is not None:
        raise ConfigurationError(
            "num_moduli='auto' selects the count (and with it the moduli "
            "prefix) per call from the default table, so a caller-supplied "
            "constant_table cannot be honoured; pass a fixed num_moduli to "
            "use a custom table"
        )
    if config.validate:
        x = check_operand(x, side, dtype=np.float64)
    else:
        x = np.asarray(x, dtype=np.float64)
    if config.mode is ComputeMode.ACCURATE:
        return _prepare_accurate(x, side, config)

    start = time.perf_counter()
    prescale = fast_mode_prescale(x, axis=1 if side == "A" else 0)
    if config.moduli_is_auto:
        # Resolve the selection from the operand's own max-abs scan (just
        # performed by the prescale pass).  The relative error model is
        # magnitude-invariant, so the partner's magnitudes cannot change the
        # selected count — this is the count every same-target
        # multiplication will request.
        inner = x.shape[1] if side == "A" else x.shape[0]
        selection = select_num_moduli(
            inner,
            prescale.global_max_abs,
            prescale.global_max_abs,
            64 if config.is_dgemm else 32,
            target=config.target_accuracy,
            mode=config.mode.value,
            model=config.selection_model,
        )
        config = config.resolved(selection.num_moduli)
        table = build_constant_table(
            config.num_moduli, 64 if config.is_dgemm else 32
        )
    else:
        table = constant_table or build_constant_table(
            config.num_moduli, 64 if config.is_dgemm else 32
        )
    scale = scale_from_prescale(prescale, scale_exponent_budget(table, "fast"))
    x_prime = truncate_scaled(x, scale, side="left" if side == "A" else "right")
    slices = residue_slices(x_prime, table, config.residue_kernel)
    elapsed = time.perf_counter() - start

    return ResidueOperand(
        side=side,
        scale=scale,
        slices=slices,
        config=config,
        convert_seconds=elapsed,
        prescale=prescale,
        source=x,
    )


def _prepare_accurate(
    x: np.ndarray, side: str, config: Ozaki2Config
) -> AccurateOperand:
    """Accurate-mode preparation: cache the ``N``-independent pre-scale half."""
    start = time.perf_counter()
    prescale = accurate_mode_prescale(x, axis=1 if side == "A" else 0)
    if config.moduli_is_auto:
        # Same resolution as the fast path: the relative model is
        # magnitude-invariant, so the operand's own scan decides the count
        # every same-target multiplication will request.
        inner = x.shape[1] if side == "A" else x.shape[0]
        selection = select_num_moduli(
            inner,
            prescale.global_max_abs,
            prescale.global_max_abs,
            64 if config.is_dgemm else 32,
            target=config.target_accuracy,
            mode=config.mode.value,
            model=config.selection_model,
        )
        config = config.resolved(selection.num_moduli)
    elapsed = time.perf_counter() - start
    return AccurateOperand(
        side=side,
        prescale=prescale,
        config=config,
        source=x,
        convert_seconds=elapsed,
    )


def prepare_a(
    a: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    constant_table: Optional[CRTConstantTable] = None,
) -> "ResidueOperand | AccurateOperand":
    """Prepare the left operand for repeated multiplication.

    Fast mode returns a :class:`ResidueOperand` (cached ``μ`` and the
    residues of ``A'``; the ``convert_A`` phase is skipped entirely on
    reuse); accurate mode returns an :class:`AccurateOperand` (cached
    pre-scale half of the coupled scale construction; the per-side scan of
    the scale phase is skipped).  Either can be passed to
    :func:`~repro.core.gemm.ozaki2_gemm` in place of ``a`` any number of
    times, and every such call is bit-identical to the unprepared call.
    Under ``num_moduli="auto"`` the moduli count is resolved here, from the
    operand's own magnitudes (see the module docstring).
    """
    return _prepare(a, "A", config, constant_table)


def prepare_b(
    b: np.ndarray,
    config: Optional[Ozaki2Config] = None,
    constant_table: Optional[CRTConstantTable] = None,
) -> "ResidueOperand | AccurateOperand":
    """Prepare the right operand; see :func:`prepare_a`."""
    return _prepare(b, "B", config, constant_table)
