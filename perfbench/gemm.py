"""``gemm_serial`` and ``gemm_par2``: raw emulated GEMMs through ``Session``.

Both run a fixed cycle of shapes on never-repeated operands drawn from the
paper's ``(rand − 0.5)·exp(0.5·randn)`` law, with the operand cache off, so
every call runs all of Algorithm 1.  A pass runs whole cycles until the
summed call time reaches the requested seconds, which keeps the shape mix
(and so every aggregate) the same from run to run.  Each output is checked
outside the timed region on sampled rows against the double-double
reference, as a ratio to the error bound of its configuration.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np
from repro import Session
from repro.config import Ozaki2Config
from repro.crt.adaptive import elementwise_error_bound
from repro.workloads.generators import phi_matrix

from .common import OpLog, err_ratio, peak_rss_mib, time_import, timed
from .layers import layer_metrics, phase_share_gap
from .spans import Tracer, summarize

Spec = Tuple[str, str, int, int, int]  # precision, mode, m, k, n

_F64_512 = ("fp64", "fast", 512, 512, 512)
_F32_512 = ("fp32", "fast", 512, 512, 512)
SERIAL_CYCLE: List[Spec] = [
    _F64_512, _F32_512, ("fp64", "fast", 1024, 1024, 1024),
    _F64_512, _F32_512, ("fp64", "fast", 256, 4096, 256),
    _F64_512, _F32_512, ("fp32", "fast", 1024, 1024, 1024),
    ("fp64", "accurate", 512, 512, 512), ("fp32", "fast", 256, 4096, 256),
]
PAR2_CYCLE: List[Spec] = [("fp64", "fast", 192, 192, 192)] * 24 + [
    ("fp64", "fast", 1536, 1536, 1536)
]
MODULI = {"fp64": 15, "fp32": 8}
CHECK_ROWS = 32
SETUP_REPEATS = 9


def _shrink(cycle: List[Spec], factor: int) -> List[Spec]:
    return [(p, mode, m // factor, k // factor, n // factor) for p, mode, m, k, n in cycle]


def _configs(parallelism: int) -> Dict[Tuple[str, str], object]:
    extra = {"parallelism": parallelism, "executor": "auto"} if parallelism > 1 else {}
    return {
        ("fp64", "fast"): Ozaki2Config.for_dgemm(num_moduli=MODULI["fp64"], **extra),
        ("fp64", "accurate"): Ozaki2Config.for_dgemm(
            num_moduli=MODULI["fp64"], mode="accurate", **extra
        ),
        ("fp32", "fast"): Ozaki2Config.for_sgemm(num_moduli=MODULI["fp32"], **extra),
    }


def _set_up(configs) -> object:
    """Session start plus one small call per configuration (tables, pool)."""
    session = Session(configs[("fp64", "fast")], cache_bytes=0)
    rng = np.random.default_rng(0)
    for config in configs.values():
        session.gemm(rng.standard_normal((64, 64)), rng.standard_normal((64, 64)), config=config)
    return session


def _measure(session, cycle, configs, seconds, seed, tracer=None) -> Tuple[OpLog, Dict[str, float]]:
    """One pass: whole cycles until the summed call time reaches ``seconds``."""
    operand_rng = np.random.default_rng([seed, 1])
    check_rng = np.random.default_rng([seed, 2])
    log = OpLog()
    phases: Dict[str, float] = {}
    cycles = 0
    while cycles == 0 or (log.latencies and sum(log.latencies) < seconds):
        cycles += 1
        for precision, mode, m, k, n in cycle:
            a = phi_matrix(m, k, precision=precision, rng=operand_rng)
            b = phi_matrix(k, n, precision=precision, rng=operand_rng)
            log.attempted += 1
            span = tracer.open("op", precision=precision) if tracer else None
            try:
                result, seconds_taken = timed(
                    session.gemm, a, b, config=configs[(precision, mode)]
                )
            except Exception:  # a failed call is counted, not fatal
                log.failed += 1
                continue
            finally:
                if tracer:
                    tracer.close(span)
            log.add(cycles, precision, 2.0 * m * n * k, seconds_taken)
            for key, value in result.phase_times.seconds.items():
                key = "convert" if key.startswith("convert") else key
                phases[key] = phases.get(key, 0.0) + value
            bound = elementwise_error_bound(
                k, float(np.max(np.abs(a))), float(np.max(np.abs(b))),
                result.config.num_moduli, 64 if precision == "fp64" else 32, mode,
            )
            rows = check_rng.choice(m, size=min(CHECK_ROWS, m), replace=False)
            ratio = err_ratio(result.value, a, b, bound, rows)
            log.err_ratios.append(ratio)
            if not ratio <= 1.0:
                log.wrong += 1
    return log, phases


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        ceilings: Dict[str, float]) -> Dict[str, object]:
    parallel = workload == "gemm_par2"
    cycle = PAR2_CYCLE if parallel else SERIAL_CYCLE
    if smoke:
        cycle = _shrink(cycle[-2:] if parallel else cycle, 8)
    configs = _configs(2 if parallel else 1)

    repeats = 1 if smoke else SETUP_REPEATS
    setups = []
    session = None
    for rep in range(repeats):
        import_seconds = time_import()
        if session is not None:
            session.close()
        start = time.perf_counter()
        session = _set_up(configs)
        setups.append(import_seconds + time.perf_counter() - start)
    try:
        ledger_before = session.ledger.copy()
        log, _ = _measure(session, cycle, configs, seconds, seed)
        ledger_after = session.ledger.copy()
        traced_log = None
        if trace:
            tracer = Tracer()
            tracer.install()
            tracer.enabled = True
            try:
                traced_log, phases = _measure(session, cycle, configs, seconds, seed, tracer)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            traced_ledger = session.ledger.difference(ledger_after)
    finally:
        session.close()

    logs = [log] + ([traced_log] if traced_log else [])
    attempted = sum(entry.attempted for entry in logs)
    failed = sum(entry.failed + entry.wrong for entry in logs)
    details = {
        "setup_samples": len(setups),
        "ops": len(log.latencies),
        "cycles": len(log.latencies) // len(cycle),
        "timed_seconds": sum(log.latencies),
        "checked_rows_per_op": CHECK_ROWS,
    }
    if not trace:
        metrics = {"setup_s": float(np.median(setups)), **log.end_to_end(),
                   "peak_rss_mb": peak_rss_mib()}
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "details": details}

    summary = summarize(tracer.spans)
    ops = len(traced_log.latencies)
    fault_events = sum(session.ledger.difference(ledger_before).fault_events.values())
    extras = {
        "op_p99_ms": log.p99_ms(),
        "sgemm_gflops": log.gflops("fp32"),
        "fail_ratio": failed / attempted,
        "err_ratio_max": max(log.err_ratios + traced_log.err_ratios),
        "int8.gemm_calls": traced_ledger.matmul_calls / ops,
        "int8.macs": traced_ledger.mac_ops / ops,
        "runtime.fault_events": fault_events,
        "adaptive.num_moduli_mean": float(np.mean([MODULI[spec[0]] for spec in cycle])),
        "trace.overhead_ms": 1e3 * (np.median(traced_log.latencies) - np.median(log.latencies)),
        # Process workers run the phases in other processes, where the
        # parent's spans cannot see them: cross-check the serial path only.
        "trace.phase_share_gap": 0.0 if parallel else phase_share_gap(summary, phases),
    }
    details["wrappers_missing"] = tracer.missing
    details["traced_ops"] = ops
    return {"metrics": layer_metrics(summary, ceilings, extras), "attempted": attempted,
            "failed": failed, "details": details}
