"""Shared pieces of the benchmark: statistics, set-up timing, correctness.

Everything here runs inside a workload process whose BLAS thread setting
was pinned by ``run.py`` before NumPy was first imported.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np
from repro.accuracy.reference import reference_gemm
from repro.harness.provenance import parse_provenance, stamp

#: What the import-timing child imports: the library and everything the
#: workloads reach through it.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.session, repro.service.client, repro.service.server; "
    "print(time.perf_counter() - t)"
)


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (inclusive linear interpolation)."""
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return float(cuts[int(q) - 1])


def time_import() -> float:
    """Seconds a fresh interpreter spends importing the library."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance(extra: Dict[str, object]) -> Dict[str, str]:
    """Host, versions and git revision, via ``repro.harness.provenance``."""
    fields = parse_provenance(stamp(extra))
    fields["cpus"] = str(os.cpu_count())
    fields["numpy"] = np.__version__
    return fields


@dataclasses.dataclass
class OpLog:
    """Latencies and work of one measured pass, split into rounds.

    A round is one cycle of a workload's operation list.  Every timing metric
    but the p50 is computed per round and reported as the median over
    rounds, so a stall of the host during one round does not move the
    run's figure.
    """

    latencies: List[float] = dataclasses.field(default_factory=list)
    rounds: List[int] = dataclasses.field(default_factory=list)
    flops: List[Dict[str, float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    err_ratios: List[float] = dataclasses.field(default_factory=list)

    def add(self, round_id: int, precision: str, flops: float, seconds: float) -> None:
        self.latencies.append(seconds)
        self.rounds.append(round_id)
        self.flops.append({precision: flops})

    def _per_round(self, fn) -> float:
        groups: Dict[int, List[int]] = {}
        for index, round_id in enumerate(self.rounds):
            groups.setdefault(round_id, []).append(index)
        return float(statistics.median(fn(indices) for indices in groups.values()))

    def gflops(self, precision: str) -> float:
        """Median over rounds of Σ flops / Σ call seconds of ``precision`` calls."""
        def rate(indices):
            picked = [i for i in indices if precision in self.flops[i]]
            seconds = sum(self.latencies[i] for i in picked)
            return sum(self.flops[i][precision] for i in picked) / seconds / 1e9 if seconds else 0.0
        return self._per_round(rate)

    def p99_ms(self) -> float:
        """Median over rounds of each round's p99 latency."""
        lat = self.latencies
        return 1e3 * self._per_round(lambda ix: percentile([lat[i] for i in ix], 99))

    def end_to_end(self) -> Dict[str, float]:
        """The timing metrics every closed-loop workload reports."""
        lat = self.latencies
        return {
            "op_p50_ms": 1e3 * percentile(lat, 50),
            "ops_per_s": self._per_round(lambda ix: len(ix) / sum(lat[i] for i in ix)),
            "dgemm_gflops": self.gflops("fp64"),
        }


def err_ratio(c: np.ndarray, a: np.ndarray, b: np.ndarray, bound: float,
              rows: np.ndarray) -> float:
    """Max error of ``c[rows]`` against the double-double reference, over ``bound``."""
    ref = reference_gemm(a[rows], b)
    err = float(np.max(np.abs(np.asarray(c, dtype=np.float64)[rows] - ref)))
    return err / bound


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
