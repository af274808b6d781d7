"""``solve_prepared``: iterative solves against one prepared system matrix.

A ``Session`` with the operand cache on and ``num_moduli="auto"`` (the
calibrated model) prepares an n=1024 SPD matrix of condition number 1e3
once, in set-up.  The timed operations are whole solves to a relative
residual of 1e-10 for a seeded sequence of right-hand sides: plain CG,
with every fourth solve PCG+ILU(0).  Each solve is checked outside the
timed region: its true residual must meet the tolerance (within
:data:`TRUE_RESIDUAL_SLACK`), and one emulated
product with the solution is compared with the double-double reference as
a ratio to the selection's guaranteed bound.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
from repro import Session
from repro.config import Ozaki2Config
from repro.crt.adaptive import elementwise_error_bound
from repro.workloads.generators import ill_conditioned_spd_matrix

from .common import OpLog, err_ratio, peak_rss_mib, time_import, timed
from .layers import layer_metrics
from .spans import Tracer, summarize

N = 1024
COND = 1e3
TOL = 1e-10
#: The solvers stop on CG's recursively updated residual, which drifts
#: from the true residual ||b - A x|| / ||b||; on this system the true one
#: reads up to ~1.4x TOL at the stop, so the check allows twice TOL.
TRUE_RESIDUAL_SLACK = 2.0
PCG_EVERY = 4
SETUP_REPEATS = 5


def _set_up(a: np.ndarray):
    """Session start, preparation of ``a``, and one two-iteration warm-up solve."""
    session = Session(Ozaki2Config.for_dgemm(num_moduli="auto", selection_model="calibrated"))
    session.prepare(a, side="A")
    session.solve(a, a[:, 0], method="cg", tol=TOL, max_iter=2)
    return session


def _measure(session, a, seconds, seed, tracer=None):
    """Whole cycles of solves until the summed solve time reaches ``seconds``."""
    rng = np.random.default_rng([seed, 1])
    n = a.shape[0]
    log = OpLog()
    iterations, factor_seconds, moduli, residuals = [], [], [], []
    solves = []
    # Whole cycles (PCG_EVERY - 1 CG solves, then one PCG), so every run
    # has the same CG/PCG mix.
    while not solves or len(solves) % PCG_EVERY or (
        log.latencies and sum(log.latencies) < seconds
    ):
        cycle, position = divmod(len(solves), PCG_EVERY)
        pcg = position == PCG_EVERY - 1
        solves.append(pcg)
        b = a @ rng.standard_normal(n)
        options = {"method": "pcg", "precond": "ilu0"} if pcg else {"method": "cg"}
        log.attempted += 1
        span = tracer.open("op", precision="fp64") if tracer else None
        try:
            result, seconds_taken = timed(session.solve, a, b, tol=TOL, **options)
        except Exception:  # a failed solve is counted, not fatal
            log.failed += 1
            continue
        finally:
            if tracer:
                tracer.close(span)
        # Every iteration multiplies once by A (the first one starts the
        # recurrence); each product is an emulated n x n x 1 GEMV.
        log.add(cycle, "fp64", 2.0 * n * n * result.iterations, seconds_taken)
        iterations.append(result.iterations)
        moduli.extend(result.moduli_history)
        if pcg:
            factor_seconds.append(result.precond_seconds)

        enabled = tracer.enabled if tracer else False
        if tracer:
            tracer.enabled = False
        true_residual = np.linalg.norm(b - a @ result.value) / np.linalg.norm(b)
        product = session.gemv(a, result.value)
        if tracer:
            tracer.enabled = enabled
        selection = product.moduli_selection
        bound = selection.bound if selection is not None else elementwise_error_bound(
            n, float(np.max(np.abs(a))), float(np.max(np.abs(result.value))),
            product.config.num_moduli,
        )
        ratio = err_ratio(product.value[:, None], a, result.value[:, None], bound,
                          np.arange(n))
        log.err_ratios.append(ratio)
        residuals.append(true_residual / TOL)
        if not (result.converged and true_residual <= TRUE_RESIDUAL_SLACK * TOL
                and ratio <= 1.0):
            log.wrong += 1
    return log, {"iterations": iterations, "factor_seconds": factor_seconds,
                 "moduli": moduli, "true_residual_over_tol": residuals}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        ceilings: Dict[str, float]) -> Dict[str, object]:
    n = 128 if smoke else N
    a = ill_conditioned_spd_matrix(n, cond=COND, rng=np.random.default_rng([seed, 0]))
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        setups, session = [], None
        repeats = 1 if smoke else SETUP_REPEATS
        for rep in range(repeats):
            import_seconds = time_import()
            if session is not None:
                session.close()
            # The traced run records the last set-up's N selection.
            if tracer and rep == repeats - 1:
                tracer.enabled = True
            start = time.perf_counter()
            session = _set_up(a)
            setups.append(import_seconds + time.perf_counter() - start)
        if tracer:
            tracer.enabled = False
            setup_summary = summarize(tracer.spans)
            tracer.clear()
        try:
            log, info = _measure(session, a, seconds, seed)
            if tracer:
                cache_before = session.cache.stats()
                tracer.enabled = True
                traced_log, traced_info = _measure(session, a, seconds, seed, tracer)
                tracer.enabled = False
                cache_after = session.cache.stats()
        finally:
            session.close()
    finally:
        if tracer:
            tracer.uninstall()

    logs = [log] + ([traced_log] if trace else [])
    attempted = sum(entry.attempted for entry in logs)
    failed = sum(entry.failed + entry.wrong for entry in logs)
    details = {
        "n": n, "cond": COND, "tol": TOL, "setup_samples": len(setups),
        "solves": len(log.latencies), "timed_seconds": sum(log.latencies),
        "iterations": info["iterations"],
        "true_residual_over_tol_max": max(info["true_residual_over_tol"]),
    }
    if not trace:
        metrics = {"setup_s": float(np.median(setups)), **log.end_to_end(),
                   "peak_rss_mb": peak_rss_mib()}
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "details": details}

    summary = summarize(tracer.spans)
    hits = cache_after["hits"] - cache_before["hits"]
    misses = cache_after["misses"] - cache_before["misses"]
    iterations = traced_info["iterations"]
    extras = {
        "op_p99_ms": log.p99_ms(),
        "fail_ratio": failed / attempted,
        "err_ratio_max": max(log.err_ratios + traced_log.err_ratios),
        "adaptive.select_ms": 1e3 * setup_summary["select"]["seconds"]
        / setup_summary["select"]["calls"] if "select" in setup_summary else 0.0,
        "adaptive.calibrated_share": setup_summary["select"]["calibrated"]
        / setup_summary["select"]["calls"] if "select" in setup_summary else 0.0,
        "adaptive.num_moduli_mean": float(np.mean(traced_info["moduli"])),
        "solvers.iterations": float(np.mean(iterations)),
        "solvers.ms_per_iter": 1e3 * sum(traced_log.latencies) / sum(iterations),
        "preconditioners.factor_ms": 1e3 * float(np.mean(traced_info["factor_seconds"]))
        if traced_info["factor_seconds"] else 0.0,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": cache_after["evictions"] - cache_before["evictions"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.prepare_ms": 1e3 * setup_summary["cache.prepare"]["seconds"]
        / setup_summary["cache.prepare"]["calls"] if "cache.prepare" in setup_summary else 0.0,
        "trace.overhead_ms": 1e3 * (np.median(traced_log.latencies) - np.median(log.latencies)),
    }
    details["wrappers_missing"] = tracer.missing
    return {"metrics": layer_metrics(summary, ceilings, extras), "attempted": attempted,
            "failed": failed, "details": details}
