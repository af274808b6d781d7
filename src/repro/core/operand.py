"""Precomputed residue operands: convert once, multiply many times.

The conversion phases of Algorithm 1 (lines 2–5: scaling, truncation and the
per-modulus INT8 residues) account for a large share of the emulated GEMM's
wall clock (see ``benchmarks/results/cpu_wallclock_phase_breakdown.txt``),
yet they depend only on *one* operand.  Workloads that multiply the same
matrix against many partners — LU trailing updates sweeping one ``L21``
across column strips, iterative solvers applying a fixed system matrix every
iteration, batches sharing a weight matrix — re-pay that cost on every call.

:class:`ResidueOperand` captures the conversion of one side once:

* the exponents of the fast-mode power-of-two scale vector (``μ`` for the
  A side, ``ν`` for the B side),
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
:func:`resolve_moduli` is the library's one selector: the GEMM front end
(:func:`repro.core.gemm._scaled_sides`, behind GEMM, GEMV and every batched
item), in-core preparation and the out-of-core
:class:`~repro.runtime.tilesource.TileSource` all resolve through it, under
the configuration's mode and selection model.  Preparing under an auto
configuration resolves the moduli count *at preparation time* from the
operand's own ``(k, max|X|)`` — the relative error model of
:mod:`repro.crt.adaptive` is magnitude-invariant, so this is exactly the
count every partner's multiplication selects under the same
``target_accuracy``; reuse therefore stays valid with no partner-dependent
re-selection.  A partner multiplying under a *different* target (or a fixed
count, e.g. the progressive-precision solvers escalating through a moduli
ladder) calls :meth:`ResidueOperand.resolve_for`, which re-derives the
operand at the requested count — bit-identical to a fresh preparation at
that count, through the same fast-side finalisation preparation uses — and
caches the result, so solvers escalating through a ladder pay each stage's
conversion once.

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
:class:`PreparedOperand` interface, including the one
:meth:`~PreparedOperand.require_compatible` check, so entry points, the
service-layer operand cache and the solvers treat both uniformly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
import weakref
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..config import ComputeMode, Ozaki2Config
from ..crt.adaptive import AdaptiveSelection, select_num_moduli
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
    "fp64_digit_width",
    "prepare_a",
    "prepare_b",
    "resolve_moduli",
]

#: Maximum number of re-derived moduli counts a prepared operand keeps
#: alive at once (:meth:`ResidueOperand.resolve_for`).  The progressive
#: solvers escalate through 3–4 ladder stages, so four cached counts keep
#: every ladder hot while bounding the residue-stack memory a long-lived
#: operand can accumulate to ~4x one stack (previously unbounded: one
#: stack per distinct count ever requested).
_RESOLVE_CACHE_ENTRIES = 4

#: Narrowest digit (bits) for which a prepared GEMV computes line 6 as one
#: exact FP64 DGEMM on the kept ``A'`` (:func:`fp64_digit_width`).  The
#: latency table of ``benchmarks/results/gemv_fast_path.txt`` has that
#: route ahead of the INT8 one down to 1-bit digits (fp64 N = 12 at
#: 4096², 48 DGEMM columns), so any digit that fits is taken.
FP64_ROUTE_MIN_DIGIT_BITS = 1


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

#: Why num_moduli="auto" rejects a caller-supplied constant table.
AUTO_TABLE_RESTRICTION = (
    "num_moduli='auto' selects the count (and with it the moduli prefix) "
    "per call from the default table, so a caller-supplied constant_table "
    "cannot be honoured; pass a fixed num_moduli to use a custom table"
)


def table_for(config: Ozaki2Config) -> CRTConstantTable:
    """The (cached) constant table of a concrete configuration."""
    return build_constant_table(config.num_moduli, 64 if config.is_dgemm else 32)


def fp64_digit_width(table: CRTConstantTable, k: int) -> int:
    """Widest digit ``w`` with ``√k·2^α·2^(w−1) ≤ 2^53`` (``α = P'_fast/2``).

    Fast-mode scales guarantee ``μ_i·‖a_i‖₂ ≤ 2^α``, so every row of ``A'``
    has ``‖a'_i‖₁ ≤ √k·2^α``: a product of ``A'`` with digits
    ``|s| ≤ 2^(w−1)`` then has every partial sum an integer of magnitude at
    most ``2^53``, exact in FP64 in any order (see
    :func:`repro.core.gemv.prepared_gemv`).  It depends on ``(N, table,
    k)`` only; the floor is taken ``2^-30`` low so the float evaluation can
    never round it up.  Zero or negative means no digit fits.
    """
    alpha = scale_exponent_budget(table, "fast")
    return math.floor(54.0 - alpha - 0.5 * math.log2(max(int(k), 1)) - 2.0**-30)


def resolve_moduli(
    config: Ozaki2Config, k: int, max_a: float, max_b: float
) -> "tuple[Ozaki2Config, AdaptiveSelection]":
    """Resolve ``num_moduli="auto"`` for a product of inner dimension ``k``.

    The one place the library selects ``N``: every entry point (GEMM, GEMV,
    batched items, in-core and out-of-core preparation) calls it, so they
    all select under the same ``mode`` and ``selection_model``.  Returns the
    concrete configuration at the selected count and the
    :class:`~repro.crt.adaptive.AdaptiveSelection` diagnostic.  The error
    model is magnitude-invariant, so a preparation resolving from its own
    ``max|X|`` on both sides selects the count every same-target partner
    will; the resolved run is bit-identical to a fixed-``N`` run at the
    selected count.
    """
    selection = select_num_moduli(
        k,
        max_a,
        max_b,
        64 if config.is_dgemm else 32,
        target=config.target_accuracy,
        mode=config.mode.value,
        model=config.selection_model,
    )
    return config.resolved(selection.num_moduli), selection


class PreparedOperand:
    """Common interface of prepared one-side operands (fast or accurate).

    Entry points accept either concrete class wherever a prepared side is
    allowed; ``isinstance(x, PreparedOperand)`` is the dispatch test.  The
    concrete classes are :class:`ResidueOperand` (fast mode: scale vector +
    INT8 residue stack, partner-independent) and :class:`AccurateOperand`
    (accurate mode: the ``N``-independent pre-scale half of the coupled
    scale construction).  Subclasses provide ``side``, ``config``,
    ``source``, ``shape``, ``num_moduli``, ``max_abs``, ``nbytes``,
    ``convert_seconds`` and ``resolve_for``, plus the class attributes
    ``mode`` (the one mode whose multiplications they serve) and
    ``carries`` (what they cache, for error messages).
    """

    side: str
    config: Ozaki2Config
    source: Optional[np.ndarray]
    mode: ComputeMode
    carries: str

    def require_compatible(self, config: Ozaki2Config) -> None:
        """Raise :class:`ConfigurationError` unless ``config`` can reuse this.

        The cached state is a function of the preparing configuration's
        mode, precision (constant-table bit width) and moduli count; a
        multiplication under a configuration that differs in any of those
        would silently change the result, so it is rejected instead.  Runtime knobs (``parallelism``, ``executor``,
        ``max_pool_rebuilds``, ``memory_budget_mb``) may differ freely.  An
        **auto** ``config`` skips the moduli-count comparison: the entry
        points resolve the selection and re-derive the operand
        (:meth:`resolve_for`) before executing, so the count is checked on
        the resolved pair.
        """
        if config.mode is not self.mode:
            raise ConfigurationError(
                f"prepared operand ({self.side} side) carries {self.carries} "
                f"but the multiplication requests {config.mode.value!r} mode: "
                f"{_MODE_MISMATCH}"
            )
        checks = [("precision", self.config.precision.name, config.precision.name)]
        if not config.moduli_is_auto:
            checks.append(("num_moduli", self.config.num_moduli, config.num_moduli))
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
    scale_exp:
        Exponents (``np.intc``) of the fast-mode power-of-two scale vector
        actually applied (``μ`` for the A side, ``ν`` for the B side).
    slices:
        INT8 residue stack of shape ``(N, rows, cols)`` — lines 4–5 of
        Algorithm 1 for this operand.
    config:
        The (always concrete) configuration the operand was prepared
        under; preparing with ``num_moduli="auto"`` stores the resolved
        configuration at the selected count.  Multiplications must use a
        configuration with the same precision, moduli count and mode
        (runtime knobs — ``parallelism``, ``executor``, ``max_pool_rebuilds``,
        ``memory_budget_mb`` — may differ freely;
        they do not affect the residues).  A different moduli count is
        reachable through :meth:`resolve_for` instead of re-preparation.
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

    A prepared A side whose count admits the FP64 line-6 route of
    :func:`~repro.core.gemv.prepared_gemv` (:func:`fp64_digit_width` at
    least :data:`FP64_ROUTE_MIN_DIGIT_BITS`) also keeps the truncated
    ``A'`` its preparation formed, read-only and in Fortran order (the
    layout the route's DGEMM streams fastest), in the private ``_a_prime``.
    """

    side: str
    scale_exp: np.ndarray
    slices: np.ndarray
    config: Ozaki2Config
    convert_seconds: float = 0.0
    prescale: Optional[PrescaleBounds] = None
    source: Optional[np.ndarray] = None
    _a_prime: Optional[np.ndarray] = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )
    # resolve_for's LRU of derived operands, owned by the operand that
    # derived them; a derived operand reaches its root's only through the
    # weak ``_root``, so no operand is strongly reachable from itself and a
    # dropped operand frees its residues without the cyclic GC.
    _derivations: "OrderedDict[int, ResidueOperand]" = dataclasses.field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )
    _root: "Optional[weakref.ReferenceType[ResidueOperand]]" = dataclasses.field(
        default=None, init=False, repr=False, compare=False
    )

    mode = ComputeMode.FAST
    carries = "fast-mode residues"

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

    @property
    def _owner(self) -> "ResidueOperand":
        """The operand whose derivation cache this one shares: its root
        while that lives, otherwise itself."""
        root = self._root() if self._root is not None else None
        return self if root is None else root

    @property
    def _resolved_cache(self) -> "OrderedDict[int, ResidueOperand]":
        """The derivation LRU shared by a root and every operand it derived."""
        return self._owner._derivations

    def __getstate__(self) -> dict:
        # A weakref cannot be pickled; a copy starts with its own empty cache.
        state = dict(self.__dict__)
        state.update(_derivations=OrderedDict(), _root=None)
        return state

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
        """Resident bytes of this operand (residues + scales + kept source
        and ``A'``).

        The figure the operand cache's byte budget accounts in
        (:class:`repro.service.cache.OperandCache`); derivations cached by
        :meth:`resolve_for` are *not* included — the cache bounds what it
        inserted, and derived operands share the source reference.
        """
        total = int(self.slices.nbytes) + int(self.scale_exp.nbytes)
        for kept in (self.source, self._a_prime):
            if kept is not None:
                total += int(kept.nbytes)
        return total

    def resolve_for(self, num_moduli: int) -> "ResidueOperand":
        """Return this operand re-derived at another moduli count.

        The derived operand is **bit-identical to a fresh preparation** of
        the source matrix at the requested count: the scale exponents are
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
        owner = self._owner
        if num_moduli == owner.num_moduli:
            return owner
        cache = owner._derivations
        cached = cache.get(num_moduli)
        if cached is not None:
            cache.move_to_end(num_moduli)
            return cached
        if self.prescale is None or self.source is None:
            raise ConfigurationError(
                f"this {self.side}-side operand was prepared with "
                f"num_moduli={self.num_moduli} and carries no cached "
                "pre-scale bounds/source, so it cannot be re-derived at "
                f"num_moduli={num_moduli}; prepare it again with the "
                "requested configuration"
            )
        derived = _fast_operand(
            self.side,
            self.prescale,
            self.source,
            self.config.resolved(num_moduli),
            start=time.perf_counter(),
        )
        object.__setattr__(derived, "_root", weakref.ref(owner))
        cache[num_moduli] = derived
        while len(cache) > _RESOLVE_CACHE_ENTRIES:
            cache.popitem(last=False)
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

    mode = ComputeMode.ACCURATE
    carries = "accurate-mode pre-scales"

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
        total += int(self.prescale.exp_prime.nbytes)
        total += int(self.prescale.max_abs.nbytes)
        total += int(self.source.nbytes)
        return total

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


def _fast_operand(
    side: str,
    prescale: PrescaleBounds,
    source: np.ndarray,
    config: Ozaki2Config,
    start: float,
    table: Optional[CRTConstantTable] = None,
) -> ResidueOperand:
    """Finalise one fast-mode side from its pre-scale bounds.

    Lines 1, 2/3 and 4/5 of Algorithm 1 for a concrete ``config``: the
    scale exponents from the cached bounds (the arithmetic of
    :func:`~repro.core.scaling.fast_mode_scale_a`, see
    :func:`~repro.core.scaling.scale_from_prescale`), truncation and the
    INT8 residues.  An A side whose count admits the FP64 line-6 route
    keeps ``A'`` too.  Shared by preparation and
    :meth:`ResidueOperand.resolve_for`, so a re-derived operand is a fresh
    preparation at the other count.
    """
    table = table or table_for(config)
    scale_exp = scale_from_prescale(prescale, scale_exponent_budget(table, "fast"))
    x_prime = truncate_scaled(source, scale_exp, side="left" if side == "A" else "right")
    slices = residue_slices(x_prime, table)
    a_prime = None
    if side == "A" and fp64_digit_width(table, source.shape[1]) >= FP64_ROUTE_MIN_DIGIT_BITS:
        a_prime = np.asfortranarray(x_prime)
        a_prime.setflags(write=False)
    operand = ResidueOperand(
        side=side,
        scale_exp=scale_exp,
        slices=slices,
        config=config,
        convert_seconds=time.perf_counter() - start,
        prescale=prescale,
        source=source,
    )
    object.__setattr__(operand, "_a_prime", a_prime)
    return operand


def _prepare(
    x: np.ndarray,
    side: str,
    config: Optional[Ozaki2Config],
    constant_table: Optional[CRTConstantTable],
) -> "ResidueOperand | AccurateOperand":
    config = config or Ozaki2Config()
    if config.moduli_is_auto and constant_table is not None:
        raise ConfigurationError(AUTO_TABLE_RESTRICTION)
    x = check_operand(x, side, dtype=np.float64)
    start = time.perf_counter()
    axis = 1 if side == "A" else 0
    prescale: "PrescaleBounds | AccuratePrescale" = (
        accurate_mode_prescale(x, axis=axis)
        if config.mode is ComputeMode.ACCURATE
        else fast_mode_prescale(x, axis=axis)
    )
    if config.moduli_is_auto:
        # The operand's own max-abs scan (just performed by the prescale
        # pass) decides the count every same-target multiplication requests.
        config, _ = resolve_moduli(
            config, x.shape[axis], prescale.global_max_abs, prescale.global_max_abs
        )
    if isinstance(prescale, AccuratePrescale):
        return AccurateOperand(
            side=side,
            prescale=prescale,
            config=config,
            source=x,
            convert_seconds=time.perf_counter() - start,
        )
    return _fast_operand(side, prescale, x, config, start, constant_table)


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
