"""Configuration of the ``repro lint`` analyser (``[tool.reprolint]``).

The rules are *domain*-aware: which checks apply to a file depends on what
the file is to the residue stack.  Three scopes exist, each a list of
path fragments matched against the file's POSIX path:

``hot-path-modules``
    The INT8 hot path, where a dtype-less NumPy construction or an
    implicit float64 promotion silently breaks the proven overflow
    windows (dtype rules RPR001/RPR002).
``kernel-modules``
    Modules whose results must stay bit-identical across serial/parallel,
    thread/process, GEMV/GEMM and cached/cold execution (determinism rules
    RPR010/RPR012; RPR002 also applies here).
``engine-modules``
    Modules hosting :class:`~repro.engines.base.MatrixEngine` entry
    points, whose matmul/matvec work must be ledger-accounted (RPR020).

The lock rules (RPR030/RPR031/RPR032) and the RNG rule (RPR011) apply
everywhere.  Defaults below encode this repository's layout; a
``[tool.reprolint]`` table in ``pyproject.toml`` overrides any field
(keys use the dashed spelling, e.g. ``hot-path-modules``).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["LintConfig", "load_config", "find_pyproject"]

#: The INT8 hot path: modules where every array construction must pin its
#: dtype (the k < 2**17 / k*2**14 < 2**31 overflow proofs assume exact
#: integer-valued float64 and INT8/INT32 operands, never a default dtype).
DEFAULT_HOT_PATH = (
    "repro/crt/",
    "repro/engines/int8.py",
    "repro/core/accumulation.py",
)

#: Bit-identity kernels: residue conversion, CRT accumulation, engines and
#: the runtime that reorders their work across workers.
DEFAULT_KERNEL = (
    "repro/crt/",
    "repro/core/",
    "repro/engines/",
    "repro/runtime/",
)

#: Engine modules whose public entry points must record ledger work.
DEFAULT_ENGINE = ("repro/engines/",)

#: Paths never analysed (fragments matched like the scopes).
DEFAULT_EXCLUDE: Tuple[str, ...] = ("__pycache__",)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Resolved analyser configuration (see module docstring)."""

    hot_path_modules: Tuple[str, ...] = DEFAULT_HOT_PATH
    kernel_modules: Tuple[str, ...] = DEFAULT_KERNEL
    engine_modules: Tuple[str, ...] = DEFAULT_ENGINE
    exclude: Tuple[str, ...] = DEFAULT_EXCLUDE
    select: Tuple[str, ...] = ()  # empty = every rule

    # -- scope predicates ----------------------------------------------------
    @staticmethod
    def _matches(path: str, fragments: Sequence[str]) -> bool:
        return any(fragment in path for fragment in fragments)

    def is_hot_path(self, path: str) -> bool:
        return self._matches(path, self.hot_path_modules)

    def is_kernel(self, path: str) -> bool:
        return self._matches(path, self.kernel_modules)

    def is_engine(self, path: str) -> bool:
        return self._matches(path, self.engine_modules)

    def is_excluded(self, path: str) -> bool:
        return self._matches(path, self.exclude)

    def rule_enabled(self, code: str) -> bool:
        if not self.select:
            return True
        return any(code.startswith(prefix) for prefix in self.select)


def find_pyproject(start: Path) -> Optional[Path]:
    """Walk up from ``start`` to the first directory with a pyproject.toml."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def _coerce_str_tuple(value: object, key: str) -> Tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"[tool.reprolint] {key} must be a list of strings")
    return tuple(value)


def load_config(
    pyproject: Optional[Path] = None, select: Sequence[str] = ()
) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.reprolint]``, if present.

    Missing file, missing table and missing keys all fall back to the
    defaults, so the analyser works on a bare checkout; a malformed table
    raises ``ValueError`` (a misconfigured linter must fail loudly, not
    silently analyse the wrong scope).
    """
    table: Dict[str, object] = {}
    if pyproject is not None and pyproject.is_file():
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10 without tomli
            tomllib = None
        if tomllib is not None:
            with open(pyproject, "rb") as handle:
                document = tomllib.load(handle)
            tool = document.get("tool", {})
            if not isinstance(tool, dict):
                raise ValueError("pyproject [tool] is not a table")
            raw = tool.get("reprolint", {})
            if not isinstance(raw, dict):
                raise ValueError("[tool.reprolint] is not a table")
            table = raw

    kwargs: Dict[str, object] = {}
    for toml_key, field in (
        ("hot-path-modules", "hot_path_modules"),
        ("kernel-modules", "kernel_modules"),
        ("engine-modules", "engine_modules"),
        ("exclude", "exclude"),
        ("select", "select"),
    ):
        if toml_key in table:
            kwargs[field] = _coerce_str_tuple(table[toml_key], toml_key)
    unknown = set(table) - {
        "hot-path-modules",
        "kernel-modules",
        "engine-modules",
        "exclude",
        "select",
    }
    if unknown:
        raise ValueError(f"unknown [tool.reprolint] key(s): {sorted(unknown)}")
    if select:
        kwargs["select"] = tuple(select)
    return LintConfig(**kwargs)  # type: ignore[arg-type]
