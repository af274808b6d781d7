"""In-memory span tracing of the ``repro`` layers, installed from outside.

The library has no tracing of its own, so the traced benchmark run wraps
the public functions of each ``src/repro`` module at the place where its
*caller* looks it up.  Callers bind with ``from … import``, so patching only
the defining module would miss them: ``unscale`` is wrapped as
``repro.core.gemm.unscale`` (and in the other modules that imported it),
``accumulate_residue_products`` as ``repro.runtime.scheduler.…``, and so on.
Methods are wrapped on their class.

Each wrapped call records a span ``[name, start, end, parent, attrs]`` in a
plain list (the parent is the enclosing span of the same thread).  Wrappers
cost one attribute test when the tracer is disabled, and :meth:`Tracer.
uninstall` restores every original.  :func:`summarize` turns the spans into
per-layer totals: calls, inclusive seconds, bytes computed from the array
sizes each call read and returned, multiply-accumulates, and the op spans'
self time (wall time no layer span covers).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

NAME, START, END, PARENT, ATTRS = range(5)


def _nbytes(value: Any) -> int:
    """Bytes of the arrays in ``value`` (one level of tuple/list nesting)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(int(v.nbytes) for v in value if isinstance(v, np.ndarray))
    return 0


def _bytes_moved(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    moved = sum(_nbytes(a) for a in args) + sum(_nbytes(v) for v in kwargs.values())
    return {"bytes": moved + _nbytes(result)}


def _stack_macs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    a, b = args[1], args[2]  # (self, (N, m, k), (N, k, n))
    return {"macs": int(a.shape[0]) * int(a.shape[1]) * int(a.shape[2]) * int(b.shape[2])}


def _matmul_macs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    a, b = args[1], args[2]  # (self, (m, k), (k, n))
    return {"macs": int(a.shape[0]) * int(a.shape[1]) * int(b.shape[1])}


def _matvec_macs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    a = args[1]  # (self, (N, m, k), (N, k))
    return {"macs": int(a.shape[0]) * int(a.shape[1]) * int(a.shape[2])}


def _selection(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {
        "num_moduli": int(result.num_moduli),
        "calibrated": result.decided_by == "calibrated",
    }


_SCALING = (
    "fast_mode_scale_a",
    "fast_mode_scale_b",
    "accurate_mode_prescale",
    "accurate_scales_from_prescale",
)

#: ``(module, attribute, span name, measure)``: every call site wrapped.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    *(("repro.core.gemm", fn, "scaling", None) for fn in _SCALING),
    *(("repro.core.gemv", fn, "scaling", None) for fn in _SCALING),
    *(("repro.runtime.batched", fn, "scaling", None) for fn in _SCALING),
    ("repro.core.operand", "fast_mode_prescale", "scaling", None),
    ("repro.core.operand", "accurate_mode_prescale", "scaling", None),
    ("repro.runtime.scheduler", "Scheduler.convert_residues", "conversion", _bytes_moved),
    ("repro.core.gemv", "truncate_scaled", "conversion", _bytes_moved),
    ("repro.core.gemv", "residue_slices", "conversion", _bytes_moved),
    ("repro.core.operand", "truncate_scaled", "conversion", _bytes_moved),
    ("repro.core.operand", "residue_slices", "conversion", _bytes_moved),
    ("repro.runtime.batched", "truncate_scaled", "conversion", _bytes_moved),
    ("repro.runtime.batched", "residue_slices", "conversion", _bytes_moved),
    ("repro.engines.int8", "Int8MatrixEngine.matmul_stack", "int8.matmul", _stack_macs),
    ("repro.engines.base", "MatrixEngine.matmul", "int8.matmul", _matmul_macs),
    ("repro.engines.int8", "Int8MatrixEngine.matvec_stack", "int8.matvec", _matvec_macs),
    ("repro.runtime.scheduler", "accumulate_residue_products", "accumulate", _bytes_moved),
    ("repro.core.gemv", "accumulate_residue_products", "accumulate", _bytes_moved),
    ("repro.runtime.scheduler", "reconstruct_crt", "reconstruct", _bytes_moved),
    ("repro.core.gemv", "reconstruct_crt", "reconstruct", _bytes_moved),
    ("repro.core.gemm", "unscale", "unscale", _bytes_moved),
    ("repro.core.gemv", "unscale", "unscale", _bytes_moved),
    ("repro.runtime.batched", "unscale", "unscale", _bytes_moved),
    ("repro.runtime.scheduler", "execute_plan", "execute_plan", None),
    ("repro.runtime.batched", "execute_plan", "execute_plan", None),
    ("repro.runtime.scheduler", "Scheduler.run_process_tasks", "ipc_wait", None),
    ("repro.core.gemm", "select_num_moduli", "select", _selection),
    ("repro.core.operand", "select_num_moduli", "select", _selection),
    ("repro.apps.solvers", "select_num_moduli", "select", _selection),
    ("repro.apps.solvers", "prepared_gemv", "gemv", None),
    ("repro.session", "prepared_gemv", "gemv", None),
    ("repro.service.cache", "prepare_a", "cache.prepare", None),
    ("repro.service.cache", "prepare_b", "cache.prepare", None),
    ("repro.service.client", "encode_frame", "encode", None),
    ("repro.service.client", "decode_frame", "decode", None),
    ("repro.service.server", "encode_frame", "encode", None),
    ("repro.service.server", "decode_frame", "decode", None),
    ("repro.service.server", "ReproServer.handle_request", "op", None),
)


class Tracer:
    """Span recorder plus the patch set that feeds it (see module docstring)."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, attrs]
        # Server handler threads and the coalescer record concurrently.
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def clear(self) -> None:
        self.spans = []

    def wrap(self, fn: Callable, name: str, measure: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if measure is not None:
                tracer.spans[index][ATTRS].update(measure(args, kwargs, result))
            return result

        return traced

    # -- patching ------------------------------------------------------------
    def install(self, targets=TARGETS, only: Tuple[str, ...] = ()) -> None:
        """Wrap every target (``only``: restrict to these module prefixes).

        A target the code base no longer has is recorded in :attr:`missing`
        instead of failing, so the traced run keeps working across
        refactors and says what it could not see.
        """
        for module_name, attr, name, measure in targets:
            if only and not module_name.startswith(only):
                continue
            try:
                owner: object = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, measure))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches = []


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per-name totals over ``spans``.

    Only the outermost span of a name counts (a same-named ancestor means
    the inner call is already inside the outer one's time).  ``op`` entries
    also carry ``self_seconds``: op wall time minus its direct children.
    ``scaling_seconds`` is the part spent inside a ``scaling`` span (the
    extra INT8 product of accurate mode belongs to the scale phase).  When
    the root span carries a ``precision`` attribute, every span is also
    counted under ``"<name>@<precision>"``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        ancestors = []
        root = index
        parent = span[PARENT]
        while parent >= 0:
            ancestors.append(spans[parent][NAME])
            root = parent
            parent = spans[parent][PARENT]
        if name in ancestors:
            continue
        seconds = span[END] - span[START]
        attrs = span[ATTRS]
        keys = [name]
        precision = spans[root][ATTRS].get("precision")
        if precision is not None:
            keys.append(f"{name}@{precision}")
        for key in keys:
            entry = out.setdefault(
                key,
                {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "scaling_seconds": 0.0,
                 "bytes": 0, "macs": 0, "num_moduli": 0, "calibrated": 0},
            )
            entry["calls"] += 1
            entry["seconds"] += seconds
            entry["self_seconds"] += seconds - child_time[index]
            if "scaling" in ancestors:
                entry["scaling_seconds"] += seconds
            entry["bytes"] += attrs.get("bytes", 0)
            entry["macs"] += attrs.get("macs", 0)
            entry["num_moduli"] += attrs.get("num_moduli", 0)
            entry["calibrated"] += int(attrs.get("calibrated", False))
    return out


def merge_summaries(*summaries: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Add per-name totals of several processes' summaries."""
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = out.setdefault(name, {key: 0 for key in entry})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return out
