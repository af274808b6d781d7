"""Degenerate GEMM shapes (m == 0, k == 0, n == 0) are pinned behaviour.

The library rejects empty operands with a precise
:class:`~repro.errors.ValidationError` from ``check_gemm_operands`` /
``ensure_2d`` — consistently across :func:`repro.ozaki2_gemm`, the batched
runtime, operand preparation, and every baseline of the method registry —
rather than leaving the outcome to whatever NumPy happens to do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gemm import ozaki2_gemm
from repro.core.operand import prepare_a, prepare_b
from repro.runtime.batched import ozaki2_gemm_batched
from repro.baselines.registry import get_method
from repro.errors import ValidationError

#: (A shape, B shape) triples covering each degenerate dimension.
DEGENERATE_SHAPES = [
    pytest.param((0, 5), (5, 4), id="m=0"),
    pytest.param((3, 0), (0, 4), id="k=0"),
    pytest.param((3, 5), (5, 0), id="n=0"),
    pytest.param((0, 0), (0, 0), id="all=0"),
]

#: One representative method per registry family.
METHODS = [
    "DGEMM",
    "SGEMM",
    "TF32GEMM",
    "BF16x9",
    "cuMpSGEMM",
    "ozIMMU_EF-4",
    "OS II-fast-8",
    "OS II-accu-8",
]


@pytest.mark.parametrize("shape_a, shape_b", DEGENERATE_SHAPES)
@pytest.mark.parametrize("method", METHODS)
def test_every_baseline_raises_validation_error(method, shape_a, shape_b):
    spec = get_method(method)
    with pytest.raises(ValidationError, match="zero dimension"):
        spec(np.ones(shape_a), np.ones(shape_b))


@pytest.mark.parametrize("shape_a, shape_b", DEGENERATE_SHAPES)
def test_ozaki2_gemm_raises_validation_error(shape_a, shape_b):
    with pytest.raises(ValidationError, match="zero dimension"):
        ozaki2_gemm(np.ones(shape_a), np.ones(shape_b))


@pytest.mark.parametrize("shape_a, shape_b", DEGENERATE_SHAPES)
def test_batched_raises_validation_error(shape_a, shape_b):
    with pytest.raises(ValidationError, match="zero dimension"):
        ozaki2_gemm_batched([np.ones(shape_a)], [np.ones(shape_b)])


@pytest.mark.parametrize("shape_a, shape_b", DEGENERATE_SHAPES)
def test_degenerate_item_anywhere_in_batch_raises(shape_a, shape_b):
    good_a, good_b = np.ones((3, 5)), np.ones((5, 4))
    with pytest.raises(ValidationError, match="zero dimension"):
        ozaki2_gemm_batched(
            [good_a, np.ones(shape_a)], [good_b, np.ones(shape_b)]
        )


def test_prepare_rejects_degenerate_operands():
    with pytest.raises(ValidationError, match="zero dimension"):
        prepare_a(np.ones((0, 4)))
    with pytest.raises(ValidationError, match="zero dimension"):
        prepare_b(np.ones((4, 0)))


def test_error_message_names_the_operand_and_shape():
    with pytest.raises(ValidationError, match=r"A has a zero dimension \(shape \(0, 5\)\)"):
        ozaki2_gemm(np.ones((0, 5)), np.ones((5, 4)))
