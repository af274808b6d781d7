"""INT8 matrix engine with INT32 accumulation.

This simulator reproduces the arithmetic contract of NVIDIA INT8 Tensor
Cores (and the equivalent AMD/Intel units): operands are 8-bit signed
integers, products are accumulated in 32-bit signed integers, and an
accumulator overflow wraps around in two's complement.  Both Ozaki scheme I
(ozIMMU) and Ozaki scheme II issue all of their inner products through this
engine.

Two computation paths are provided:

* ``use_blas=True`` (default): the precision-matched path.  Operands are
  cast to float32 and multiplied with SGEMM over k-chunks of at most
  ``1024``.  Because ``|a|, |b| <= 128``, every product is at most
  ``2**14`` in magnitude and every partial sum of a chunk is an integer
  bounded by ``1024 * 2**14 = 2**24`` — exactly representable in binary32,
  so the chunk product is exact in *any* summation order BLAS chooses.
  The chunk results are then summed in int32, whose two's-complement
  wraparound is exactly the hardware accumulator's.
* ``use_blas=False``: operands are multiplied directly with NumPy integer
  arithmetic (int32 accumulators with native wraparound).  This is the
  byte-level reference used in the test suite to validate the fast path.

Section 4.3 of the paper discusses the only overflow case (``k = 2**17`` and
``p_1 = 256`` can reach exactly ``2**31``) and shows it is harmless because
the wrapped value is congruent modulo every modulus.  The engine reproduces
that wraparound exactly.
"""

from __future__ import annotations

import numpy as np

from ..errors import EngineError, OverflowRiskError
from ..types import INT8, INT32
from .base import MatrixEngine

__all__ = ["Int8MatrixEngine"]

#: Largest inner dimension for which an INT8 x INT8 -> INT32 product cannot
#: exceed the INT32 range by more than the single harmless 2**31 case.
_MAX_EXACT_K = 2**17

#: Widest k-chunk one float32 SGEMM sums: every partial sum is an integer
#: with ``|s| <= 1024 * 2**14 = 2**24``, exact in binary32 in any order.
_SGEMM_EXACT_K = 1024

#: Bytes of the float32 row block the stacked GEMV casts at a time: its
#: k-chunk SGEMVs read the block while it is still cache-resident.
_GEMV_BLOCK_BYTES = 1 << 20


def _chunked_sgemm(a32: np.ndarray, b32: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = a32 @ b32`` exactly, for INT8-valued float32 operands.

    Each k-chunk of at most :data:`_SGEMM_EXACT_K` runs as one float32
    SGEMM (or SGEMV for a vector ``b32``) and is cast to int32 exactly; the
    chunks are summed in int32, whose two's-complement wraparound is the
    hardware accumulator's (only reachable from ``k = 2**17``, Section 4.3).
    """
    k = a32.shape[1]
    out[...] = np.matmul(a32[:, :_SGEMM_EXACT_K], b32[:_SGEMM_EXACT_K])
    for start in range(_SGEMM_EXACT_K, k, _SGEMM_EXACT_K):
        stop = start + _SGEMM_EXACT_K
        out += np.matmul(a32[:, start:stop], b32[start:stop]).astype(np.int32)


def _exact_int8_product(a8: np.ndarray, b8: np.ndarray) -> np.ndarray:
    """Exact INT32 product of INT8 operands, 2-D or stacked.

    A stack is multiplied one residue matrix at a time
    (:func:`_chunked_sgemm`), so the float32 copies stay one matrix large
    (the per-matrix SGEMM calls are the ones a stacked ``matmul`` issues).
    """
    if a8.ndim == 2:
        return _exact_int8_product(a8[None], b8[None])[0]
    out = np.empty(a8.shape[:2] + b8.shape[2:], dtype=np.int32)
    for a_i, b_i, out_i in zip(a8, b8, out, strict=True):
        _chunked_sgemm(a_i.astype(np.float32), b_i.astype(np.float32), out_i)
    return out


def _aligned_float32(rows: int, cols: int) -> np.ndarray:
    """An uninitialised ``(rows, cols)`` float32 array on a 32-byte boundary.

    ``np.empty`` aligns to 16 bytes only, and SGEMV runs ~7% slower on a
    buffer 16 bytes past a 32-byte boundary, wherever malloc happens to put it.
    """
    nbytes = rows * cols * 4
    raw = np.empty(nbytes + 32, dtype=np.uint8)
    offset = -raw.ctypes.data % 32
    return raw[offset : offset + nbytes].view(np.float32).reshape(rows, cols)


def _exact_int8_matvec(a8: np.ndarray, v8: np.ndarray) -> np.ndarray:
    """Exact INT32 GEMV stack ``(N, m, k) @ (N, k) -> (N, m)`` of INT8 operands.

    Each residue matrix is cast to float32 in row blocks of about
    :data:`_GEMV_BLOCK_BYTES` (into one reused buffer), and the block's
    k-chunk SGEMVs (:func:`_chunked_sgemm`) run while it is cache-resident,
    so the INT8 stack is streamed from memory once.
    """
    n_stack, m, k = a8.shape
    rows = max(1, min(m, _GEMV_BLOCK_BYTES // (4 * max(k, 1))))
    out = np.empty((n_stack, m), dtype=np.int32)
    block = _aligned_float32(rows, k)
    for a_i, v_i, out_i in zip(a8, v8, out, strict=True):
        v32 = v_i.astype(np.float32)
        for r0 in range(0, m, rows):
            a32 = block[: min(rows, m - r0)]
            np.copyto(a32, a_i[r0 : r0 + rows])
            _chunked_sgemm(a32, v32, out_i[r0 : r0 + rows])
    return out


class Int8MatrixEngine(MatrixEngine):
    """Simulated INT8 Tensor Core (INT8 inputs, INT32 accumulation).

    Parameters
    ----------
    use_blas:
        Select the chunked float32/SGEMM fast path (exact, default) or the
        pure-integer reference path.
    strict_k:
        If True (default), refuse inner dimensions above ``2**17`` with
        :class:`~repro.errors.OverflowRiskError`; callers are expected to
        block the product (see :mod:`repro.core.blocking`).  If False, the
        engine performs the multiplication anyway with full wraparound
        semantics (useful for overflow-behaviour tests).
    """

    input_format = INT8
    output_format = INT32
    name = "int8"

    def __init__(self, use_blas: bool = True, strict_k: bool = True) -> None:
        super().__init__()
        self.use_blas = bool(use_blas)
        self.strict_k = bool(strict_k)

    # -- MatrixEngine hooks --------------------------------------------------
    def _prepare(self, x: np.ndarray, which: str) -> np.ndarray:
        if np.issubdtype(x.dtype, np.floating):
            if not np.all(x == np.round(x)):
                raise EngineError(
                    f"int8 engine: operand {which} contains non-integer values"
                )
        xi = np.asarray(x)
        lo, hi = self.input_format.int_min, self.input_format.int_max
        # Allow +128 on input: the hardware cast wraps it to -128, which is
        # congruent modulo 256 (Section 4.1); anything else out of range is a
        # caller bug.
        if np.any((xi < lo) | (xi > hi + 1)):
            raise EngineError(
                f"int8 engine: operand {which} has values outside [{lo}, {hi + 1}]"
            )
        as_int8 = xi.astype(np.int64)
        as_int8 = np.where(as_int8 == hi + 1, lo, as_int8)
        return as_int8.astype(np.int8)

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = a.shape[1]
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if self.use_blas:
            return _exact_int8_product(a, b)
        return self._compute_integer(a, b)

    # -- fused stacked path ---------------------------------------------------
    def matmul_stack(self, a: np.ndarray, b: np.ndarray, trusted: bool = False) -> np.ndarray:
        """Fused batched product ``(N, m, k) @ (N, k, n) -> (N, m, n)``.

        Unlike the generic per-slice fallback, this override validates the
        stacks once and runs the ``N`` residue GEMMs of one modulus chunk
        in a single engine call (:func:`_exact_int8_product`: float32 SGEMM
        per k-chunk), with one call's worth of ledger bookkeeping.

        ``trusted=True`` additionally skips the per-call validation sweeps
        when the operands are already INT8 — the contract for residue stacks
        produced by this library's own conversion (:func:`repro.core.
        conversion.residue_slices` and prepared operands), whose values are
        in range by construction.  Operands of any other dtype are validated
        regardless of the flag, so external callers keep full validation by
        default.  Results are bit-identical to ``N`` separate
        :meth:`~repro.engines.base.MatrixEngine.matmul` calls, and the op
        ledger records the same ``N`` GEMMs.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        self._check_stack_shapes(a, b)
        n_stack, m, k = a.shape
        n = b.shape[2]
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if trusted and a.dtype == np.int8 and b.dtype == np.int8:
            a8, b8 = a, b
        else:
            a8 = self._prepare(a, "A")
            b8 = self._prepare(b, "B")
        if self.use_blas:
            out = _exact_int8_product(a8, b8)
        else:
            out = self._compute_integer(a8, b8)
        self.counter.record_matmul(
            m,
            n,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )
        return out

    # -- fused stacked GEMV path ----------------------------------------------
    def matvec_stack(self, a: np.ndarray, v: np.ndarray, trusted: bool = False) -> np.ndarray:
        """Fused batched GEMV ``(N, m, k) @ (N, k) -> (N, m)``.

        The ``n = 1`` products are bandwidth-bound on the INT8 residue
        stack, so casting a whole residue matrix to float32 — the right call
        for GEMM, where the arithmetic amortises the cast — would stream it
        through memory twice more than the product reads it.  This override
        instead casts ~1 MiB row blocks and runs their k-chunk SGEMVs while
        they are cache-resident (:func:`_exact_int8_matvec`), so the stack
        is read once at one byte per element.  The chunk sums are exact and
        wrap in int32 like the hardware accumulator, so the result is
        bit-identical to :meth:`matmul_stack` for every ``k`` the engine
        accepts (only ``k = 2**17`` can reach the ``±2**31`` boundary,
        Section 4.3).
        ``use_blas=False`` contracts the INT8 operands with an
        INT32-accumulating :func:`numpy.einsum` instead (the integer
        reference).  ``trusted`` has the :meth:`matmul_stack` contract:
        INT8 stacks produced by this library's own conversion skip the
        per-call validation sweeps; any other dtype is validated regardless.
        The op ledger records the same ``N`` GEMVs as the generic fallback.
        """
        a = np.asarray(a)
        v = np.asarray(v)
        self._check_vec_stack_shapes(a, v)
        n_stack, m, k = a.shape
        if self.strict_k and k > _MAX_EXACT_K:
            raise OverflowRiskError(
                f"inner dimension k={k} exceeds 2**17; block the product "
                "(core.blocking) or construct the engine with strict_k=False"
            )
        if trusted and a.dtype == np.int8 and v.dtype == np.int8:
            a8, v8 = a, v
        else:
            a8 = self._prepare(a, "A")
            v8 = self._prepare(v, "B")
        if self.use_blas:
            out = _exact_int8_matvec(a8, v8)
        else:
            with np.errstate(over="ignore"):
                out = np.einsum("nmk,nk->nm", a8, v8, dtype=np.int32)
        self.counter.record_matmul(
            m,
            1,
            k,
            in_bytes=self.input_format.bytes_per_element,
            out_bytes=self.output_format.bytes_per_element,
            count=n_stack,
        )
        return out

    # -- computation paths ---------------------------------------------------
    @staticmethod
    def _compute_integer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Reference integer product with native int32 wraparound."""
        with np.errstate(over="ignore"):
            return np.matmul(a.astype(np.int32), b.astype(np.int32)).astype(np.int32)
