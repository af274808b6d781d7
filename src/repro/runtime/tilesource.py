"""Out-of-core operands: residue stacks staged on disk, streamed as tiles.

An ``(N, rows, cols)`` INT8 residue stack is ``N`` times the footprint of
the (float64) operand it encodes — N=15 DGEMM emulation at 32768² is a
16 GiB stack per side.  :class:`TileSource` prepares such operands without
ever materialising the stack in RAM:

* the source matrix is scanned in *strips* (row strips for the A side,
  column strips for the B side — the direction of that side's scale
  vector), each strip's pre-scale bounds computed independently and
  concatenated.  The fast-mode scale formula is per-row/per-column, so the
  strip-wise pass is **bit-identical** to a whole-matrix
  :func:`~repro.core.scaling.fast_mode_prescale`;
* each strip is truncate-scaled and residue-converted on its own, and the
  INT8 slices written straight into a disk-backed ``.npy``
  (:func:`numpy.lib.format.open_memmap`) — peak RAM is one strip, not one
  stack;
* the staged file is reopened read-only and wrapped in a regular
  :class:`~repro.core.operand.ResidueOperand` whose ``slices`` is the
  memory-map.  Everything downstream works unchanged: the
  :class:`~repro.runtime.plan.ExecutionPlan` tiles the output under
  ``memory_budget_mb``, the thread scheduler slices the map (the OS pages
  in only the touched tiles), and the process backend ships the map as a
  filename/offset descriptor so every worker streams its own tiles
  (:func:`~repro.runtime.process.file_descriptor`).

Results are bit-identical to the in-core path: conversion is elementwise,
so neither the strip boundaries nor the storage medium can change a bit.

The source matrix itself may be a memory-map too — it is only ever read in
strips — which is how operands too large for RAM enter the pipeline.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import time
from typing import List, Optional

import numpy as np

from .. import faults
from ..config import ComputeMode, Ozaki2Config
from ..core.conversion import residue_slices, truncate_scaled
from ..core.operand import ResidueOperand, resolve_moduli, table_for
from ..core.scaling import (
    PrescaleBounds,
    fast_mode_prescale,
    scale_exponent_budget,
    scale_from_prescale,
)
from ..errors import ConfigurationError
from ..utils.validation import require_finite

__all__ = ["TileSource"]

_LOG = logging.getLogger(__name__)

#: Default strip budget: float64 elements read per strip (~32 MiB).  Small
#: enough that strip workspace never rivals the budgeted tile workspace,
#: large enough that the per-strip Python overhead vanishes.
_DEFAULT_STRIP_ELEMENTS = 4 * 2**20


def _strip_width(total: int, other: int, strip_elements: Optional[int]) -> int:
    """Rows (or columns) per strip so one strip holds ``strip_elements``."""
    budget = int(strip_elements or _DEFAULT_STRIP_ELEMENTS)
    return max(1, min(int(total), budget // max(1, int(other))))


def _concat_prescale(parts: List[PrescaleBounds], axis: int) -> PrescaleBounds:
    """Concatenate strip-wise prescale bounds into the whole-matrix bounds.

    Every field of :class:`PrescaleBounds` is per-row (A side) or per-column
    (B side), and each strip computed its rows/columns from exactly the same
    elements the whole-matrix pass would — so concatenation reproduces
    ``fast_mode_prescale(x, axis)`` bitwise.
    """
    return PrescaleBounds(
        axis=axis,
        clamp_term=np.concatenate([p.clamp_term for p in parts]),
        m_exp=np.concatenate([p.m_exp for p in parts]),
        max_abs=np.concatenate([p.max_abs for p in parts]),
    )


class TileSource:
    """Stage residue stacks on disk and serve them as memory-mapped operands.

    Use as a context manager (or call :meth:`close`); the staging directory
    and every ``.npy`` written into it are removed on exit.  The returned
    :class:`~repro.core.operand.ResidueOperand` objects become invalid once
    the source is closed — multiply first, close last.

    Parameters
    ----------
    directory:
        Where to stage the stacks.  Defaults to a fresh temporary directory
        (removed wholesale on close); an explicit directory must exist and
        only the files this source created are removed from it.
    strip_elements:
        Float64 elements read per conversion strip (peak RAM of the
        preparation); default ~4M elements (32 MiB) per strip.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        strip_elements: Optional[int] = None,
    ) -> None:
        self._own_dir = directory is None
        self.directory = directory or tempfile.mkdtemp(prefix="repro-tiles-")
        if not os.path.isdir(self.directory):
            raise ConfigurationError(
                f"TileSource staging directory does not exist: {self.directory!r}"
            )
        self.strip_elements = strip_elements
        self._files: List[str] = []
        self._count = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    def __enter__(self) -> "TileSource":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Remove every staged stack (and the owned staging directory)."""
        if self._closed:
            return
        self._closed = True
        if self._own_dir:
            shutil.rmtree(self.directory, ignore_errors=True)
        else:
            for path in self._files:
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        self._files.clear()

    # -- preparation ---------------------------------------------------------
    def prepare_a(
        self, a: np.ndarray, config: Optional[Ozaki2Config] = None
    ) -> ResidueOperand:
        """Stage the left operand's residues on disk; see :class:`TileSource`."""
        return self._prepare(a, "A", config)

    def prepare_b(
        self, b: np.ndarray, config: Optional[Ozaki2Config] = None
    ) -> ResidueOperand:
        """Stage the right operand's residues on disk."""
        return self._prepare(b, "B", config)

    def _prepare(
        self, x: np.ndarray, side: str, config: Optional[Ozaki2Config]
    ) -> ResidueOperand:
        if self._closed:
            raise ConfigurationError("TileSource has been closed")
        config = config or Ozaki2Config()
        if config.mode is not ComputeMode.FAST:
            raise ConfigurationError(
                "out-of-core preparation is fast-mode only (accurate mode "
                "couples the two sides' scale determination; see "
                "repro.core.operand)"
            )
        x = np.asarray(x)
        if x.ndim != 2 or x.dtype != np.float64:
            raise ConfigurationError(
                f"TileSource operands must be 2-D float64 (memmap or array), "
                f"got {x.dtype} with shape {x.shape}"
            )
        rows, cols = x.shape
        axis = 1 if side == "A" else 0
        total, other = (rows, cols) if side == "A" else (cols, rows)

        start = time.perf_counter()
        # Pass 1 — strip-wise prescale bounds (row strips for A, column
        # strips for B: the direction the per-row/per-column quantities run).
        width = _strip_width(total, other, self.strip_elements)
        parts: List[PrescaleBounds] = []
        for lo in range(0, total, width):
            strip = x[lo : lo + width] if side == "A" else x[:, lo : lo + width]
            require_finite(strip, side)  # as every in-core route rejects NaN/Inf
            parts.append(fast_mode_prescale(strip, axis=axis))
        prescale = _concat_prescale(parts, axis)

        if config.moduli_is_auto:
            # The in-core preparation's resolver and rule: the operand's own
            # max-abs (just scanned) selects the count, under the config's
            # selection model.
            config, _ = resolve_moduli(
                config,
                other,
                prescale.global_max_abs,
                prescale.global_max_abs,
            )
        table = table_for(config)
        scale_exp = scale_from_prescale(prescale, scale_exponent_budget(table, "fast"))

        # Pass 2 — truncate + residue-convert strip by strip, writing the
        # INT8 slices straight into the disk-backed stack.
        path = os.path.join(
            self.directory, f"operand_{side}_{self._count:04d}.npy"
        )
        self._count += 1
        staged = np.lib.format.open_memmap(
            path, mode="w+", dtype=np.int8, shape=(config.num_moduli, rows, cols)
        )
        def stage_strip(lo: int, hi: int) -> None:
            """Stage one strip, absorbing one write fault per strip.

            Strip conversion is a pure elementwise function of the source
            and the (already fixed) scale exponents, and each strip owns a
            disjoint slab of the stack — rewriting it is idempotent.  One transient
            write failure (fault site ``tile.stage``, or a real
            :class:`OSError` from the filesystem) is therefore retried in
            place; a second consecutive failure on the *same* strip is a
            persistent storage problem and propagates.
            """
            for attempt in (0, 1):
                try:
                    faults.raise_if("tile.stage")
                    if side == "A":
                        strip = truncate_scaled(x[lo:hi], scale_exp[lo:hi], side="left")
                        staged[:, lo:hi, :] = residue_slices(strip, table)
                    else:
                        strip = truncate_scaled(
                            x[:, lo:hi], scale_exp[lo:hi], side="right"
                        )
                        staged[:, :, lo:hi] = residue_slices(strip, table)
                    return
                except (faults.InjectedFault, OSError) as exc:
                    if attempt:
                        raise
                    _LOG.warning(
                        "stage_retry: re-staging %s strip [%d:%d) after a "
                        "write fault: %s",
                        side,
                        lo,
                        hi,
                        exc,
                    )

        try:
            for lo in range(0, total, width):
                stage_strip(lo, min(total, lo + width))
            staged.flush()
        finally:
            del staged  # release the writable map before the read-only open
        self._files.append(path)
        slices = np.lib.format.open_memmap(path, mode="r")
        elapsed = time.perf_counter() - start

        # No retained source: the whole point is that neither the stack nor
        # the matrix needs to stay in RAM.  resolve_for therefore raises for
        # out-of-core operands (re-prepare at the other count instead).
        return ResidueOperand(
            side=side,
            scale_exp=scale_exp,
            slices=slices,
            config=config,
            convert_seconds=elapsed,
            prescale=prescale,
            source=None,
        )
