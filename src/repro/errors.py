"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library-specific failures without masking programming
errors coming from NumPy or the standard library.
"""

from __future__ import annotations

import sys
import warnings

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ValidationError",
    "ModuliError",
    "OverflowRiskError",
    "EngineError",
    "PerfModelError",
    "warn_at_caller",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration value is invalid.

    Examples include requesting an unsupported number of moduli, an unknown
    computing mode, or an unknown precision name.
    """


class ValidationError(ReproError, ValueError):
    """Raised when input matrices fail shape, dtype, or finiteness checks."""


class ModuliError(ReproError):
    """Raised when a set of CRT moduli is inconsistent.

    This covers non-coprime selections, moduli outside the INT8-compatible
    table, or requesting more moduli than the table provides.
    """


class OverflowRiskError(ReproError):
    """Raised when an operation could silently overflow its accumulator.

    The INT8 engine accumulates in INT32; products with an inner dimension
    above ``2**17`` must be blocked (see :mod:`repro.core.blocking`), and the
    library refuses to continue rather than produce wrapped results when the
    caller disabled blocking.
    """


class EngineError(ReproError):
    """Raised when a matrix-engine simulator is misused.

    Typical causes are feeding a matrix whose dtype does not match the
    engine's input format or requesting an unknown engine from the registry.
    """


class PerfModelError(ReproError):
    """Raised by the performance/power model for unknown GPUs or methods."""


#: Modules whose frames :func:`warn_at_caller` skips: the library's own, and
#: the standard :mod:`dataclasses` (``dataclasses.replace`` constructs the
#: copies ``Ozaki2Config.replace`` returns).
_SKIPPED_MODULES = ("repro", "dataclasses")


def warn_at_caller(message: str, category: type) -> None:
    """``warnings.warn`` attributed to the first frame outside the library.

    A warning about the caller's request (an oversubscribed ``parallelism``,
    an unreachable ``target_accuracy``) names the caller's own line,
    whichever library route got there.  ``warnings.warn(skip_file_prefixes=
    ...)`` needs Python 3.12, so the skipped frames are counted instead
    (stacklevel 1 is this function).
    """
    stacklevel, frame = 1, sys._getframe()
    while frame.f_back is not None and (
        frame.f_globals.get("__name__", "").partition(".")[0] in _SKIPPED_MODULES
    ):
        stacklevel, frame = stacklevel + 1, frame.f_back
    warnings.warn(message, category, stacklevel=stacklevel)
