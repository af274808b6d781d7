"""Host ceilings the per-layer numbers are compared with.

Run as its own process (``python3 perfbench/ceilings.py``) so its large
copy arrays never count towards a workload's peak memory; it inherits the
workload's BLAS thread setting from the environment.  Prints one JSON
object:

* ``host.blas64_gflops`` / ``host.blas32_gflops`` — NumPy ``matmul`` of
  1024×1024 float64 / float32 matrices, best of five;
* ``host.copy_gbs`` — ``np.copyto`` between two float64 arrays whose
  combined size is at least four times the last-level cache ``lscpu``
  reports, counting the bytes read plus the bytes written, best of three.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import time

import numpy as np

MATMUL_N = 1024
FALLBACK_L3_BYTES = 32 << 20
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def l3_bytes() -> int:
    """The L3 (else largest) cache size ``lscpu`` reports, in bytes."""
    if shutil.which("lscpu") is None:
        return FALLBACK_L3_BYTES
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return FALLBACK_L3_BYTES
    sizes = {}
    for line in text.splitlines():
        match = re.match(r"\s*L(\d)\w* cache:\s*([\d.]+)\s*([KMG])i?B?", line)
        if match:
            level = int(match.group(1))
            size = float(match.group(2)) * _UNITS[match.group(3)]
            sizes[level] = max(size, sizes.get(level, 0))
    return int(sizes[max(sizes)]) if sizes else FALLBACK_L3_BYTES


def blas_gflops(dtype, repeats: int = 5) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((MATMUL_N, MATMUL_N)).astype(dtype)
    b = rng.standard_normal((MATMUL_N, MATMUL_N)).astype(dtype)
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * MATMUL_N**3 / best / 1e9


def copy_gbs(array_bytes: int, repeats: int = 3) -> float:
    src = np.ones(array_bytes // 8)
    dst = np.zeros_like(src)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    return 2.0 * src.nbytes / best / 1e9


def measure() -> dict:
    l3 = l3_bytes()
    # Source plus destination span 4x the L3, so neither stays cache-resident.
    array_bytes = 2 * l3
    return {
        "host.blas64_gflops": blas_gflops(np.float64),
        "host.blas32_gflops": blas_gflops(np.float32),
        "host.copy_gbs": copy_gbs(array_bytes),
        "l3_bytes": l3,
        "copy_array_bytes": array_bytes,
        "matmul_n": MATMUL_N,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


if __name__ == "__main__":
    print(json.dumps(measure()))
