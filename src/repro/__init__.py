"""repro — Ozaki scheme II GEMM emulation on INT8 matrix engines.

Reproduction of "High-Performance and Power-Efficient Emulation of Matrix
Multiplication using INT8 Matrix Engines" (Uchino, Ozaki, Imamura — SC'25).

Quick start
-----------
>>> import numpy as np
>>> import repro
>>> rng = np.random.default_rng(0)
>>> a = rng.standard_normal((256, 256))
>>> b = rng.standard_normal((256, 256))
>>> with repro.Session() as session:
...     result = session.gemm(a, b)
>>> float(np.max(np.abs(result.value - a @ b)))  # doctest: +SKIP
1e-13

Main entry points
-----------------
* :class:`repro.Session` — the facade: one configuration, one engine
  ledger, a warm scheduler pool and a transparent prepared-operand cache
  shared by ``gemm`` / ``gemv`` / ``solve`` / ``gemm_batched`` /
  ``prepare``.  Every operation returns a :class:`repro.Result` subclass.
* :mod:`repro.service` — the same Session behind a socket: ``repro serve``
  (:class:`repro.service.ReproServer`) and
  :class:`repro.service.ServiceClient` with fingerprint-negotiated operand
  reuse.
* :func:`repro.emulated_dgemm`, :func:`repro.emulated_sgemm` — one-shot
  convenience wrappers (the paper's ``OS II-<mode>-<N>``).
* :mod:`repro.baselines` — Ozaki scheme I (ozIMMU), cuMpSGEMM-style FP16,
  BF16x9, TF32 and native GEMM baselines.
* :mod:`repro.engines` — INT8 / FP16 / BF16 / TF32 matrix-engine simulators.
* :mod:`repro.runtime` — batched / parallel execution runtime.
* :mod:`repro.perfmodel` — GPU throughput / power model used to regenerate
  the paper's performance figures.
* :mod:`repro.harness` — one function per paper figure.

Low-level spelling
------------------
The defining submodules stay importable for low-level work:
:func:`repro.core.gemm.ozaki2_gemm`, :func:`repro.core.gemv.prepared_gemv`,
:func:`repro.runtime.batched.ozaki2_gemm_batched` and
:func:`repro.core.operand.prepare_a` / :func:`~repro.core.operand.prepare_b`.
Their results carry the product in ``.value`` and the op ledger in
``.ledger``.
"""

from __future__ import annotations

__version__ = "1.3.0"

from .config import ComputeMode, Ozaki2Config, ResidueKernel
from .core.blas_like import gemm
from .core.gemm import emulated_dgemm, emulated_sgemm
from .core.gemv import GemvResult
from .core.operand import (
    AccurateOperand,
    PreparedOperand,
    ResidueOperand,
    matrix_fingerprint,
)
from .crt.adaptive import AdaptiveSelection, select_num_moduli
from .crt.calibration import DEFAULT_CALIBRATION, CalibrationEntry, CalibrationTable
from . import faults
from .faults import FaultPlan, InjectedFault
from .result import GemmResult, PhaseTimes, Result
from .runtime import ExecutionPlan, Scheduler
from .apps.solvers import SolveResult
from .session import SOLVE_METHODS, Session
from .service import ReproServer, ServiceClient
from .errors import (
    ConfigurationError,
    EngineError,
    ModuliError,
    OverflowRiskError,
    PerfModelError,
    ReproError,
    ValidationError,
)
from .types import BF16, FP16, FP32, FP64, INT8, TF32, Format, get_format

__all__ = [
    "__version__",
    # facade
    "Session",
    "SOLVE_METHODS",
    "ReproServer",
    "ServiceClient",
    # results
    "Result",
    "GemmResult",
    "GemvResult",
    "SolveResult",
    "PhaseTimes",
    # configuration
    "ComputeMode",
    "Ozaki2Config",
    "ResidueKernel",
    # one-shot entry points
    "emulated_dgemm",
    "emulated_sgemm",
    "gemm",
    # operands
    "PreparedOperand",
    "ResidueOperand",
    "AccurateOperand",
    "matrix_fingerprint",
    # runtime
    "ExecutionPlan",
    "Scheduler",
    # fault injection / resilience
    "faults",
    "FaultPlan",
    "InjectedFault",
    # moduli selection
    "AdaptiveSelection",
    "select_num_moduli",
    "CalibrationEntry",
    "CalibrationTable",
    "DEFAULT_CALIBRATION",
    # errors
    "ConfigurationError",
    "EngineError",
    "ModuliError",
    "OverflowRiskError",
    "PerfModelError",
    "ReproError",
    "ValidationError",
    # formats
    "BF16",
    "FP16",
    "FP32",
    "FP64",
    "INT8",
    "TF32",
    "Format",
    "get_format",
]
