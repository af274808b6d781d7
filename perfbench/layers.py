"""Per-layer metrics of the traced run, named after the ``repro`` modules.

:data:`PER_LAYER` is the full list the traced run prints, in the order of
``BENCHMARK.json``; a layer a workload never reaches reads 0.  Times are
``*_ms_per_call`` (mean over that layer's calls) or ``*_ms`` (mean per
operation), shares are fractions of the summed operation wall time, and
bandwidths count the bytes of the arrays each call read and returned
(computed from the array sizes, not measured traffic).
"""

from __future__ import annotations

from typing import Dict, Mapping

#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER = (
    ("op_p99_ms", "ms", "lower"),
    ("sgemm_gflops", "GFLOP/s", "higher"),
    ("fail_ratio", "1", "lower"),
    ("err_ratio_max", "1", "lower"),
    ("scaling.ms_per_call", "ms", "lower"),
    ("scaling.share", "1", "lower"),
    ("conversion.ms_per_call", "ms", "lower"),
    ("conversion.share", "1", "lower"),
    ("conversion.gbs_computed", "GB/s", "higher"),
    ("conversion.pct_copy_bw", "%", "higher"),
    ("int8.matmul_ms_per_call", "ms", "lower"),
    ("int8.matmul_share", "1", "lower"),
    ("int8.gflops", "GFLOP/s", "higher"),
    ("int8.pct_blas64", "%", "higher"),
    ("int8.pct_blas32", "%", "higher"),
    ("int8.gemm_calls", "count", "lower"),
    ("int8.macs", "count", "lower"),
    ("int8.matvec_ms", "ms", "lower"),
    ("accumulation.accumulate_ms_per_call", "ms", "lower"),
    ("accumulation.accumulate_share", "1", "lower"),
    ("accumulation.gbs_computed", "GB/s", "higher"),
    ("accumulation.pct_copy_bw", "%", "higher"),
    ("accumulation.fp64_accumulate_ms_per_call", "ms", "lower"),
    ("accumulation.fp32_accumulate_ms_per_call", "ms", "lower"),
    ("accumulation.reconstruct_ms_per_call", "ms", "lower"),
    ("accumulation.unscale_ms_per_call", "ms", "lower"),
    ("runtime.execute_plan_ms", "ms", "lower"),
    ("runtime.glue_ms", "ms", "lower"),
    ("runtime.ipc_wait_ms", "ms", "lower"),
    ("runtime.fault_events", "count", "lower"),
    ("adaptive.select_ms", "ms", "lower"),
    ("adaptive.num_moduli_mean", "count", "lower"),
    ("adaptive.calibrated_share", "1", "higher"),
    ("gemv.ms_per_call", "ms", "lower"),
    ("gemv.share", "1", "lower"),
    ("solvers.iterations", "count", "lower"),
    ("solvers.ms_per_iter", "ms", "lower"),
    ("preconditioners.factor_ms", "ms", "lower"),
    ("cache.hit_ratio", "1", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.prepare_ms", "ms", "lower"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("coalescer.items_per_batch", "count", "higher"),
    ("server.shed", "count", "lower"),
    ("server.deadline_exceeded", "count", "lower"),
    ("client.retries", "count", "lower"),
    ("serve.generator_late_p99_ms", "ms", "lower"),
    ("host.blas64_gflops", "GFLOP/s", "higher"),
    ("host.blas32_gflops", "GFLOP/s", "higher"),
    ("host.copy_gbs", "GB/s", "higher"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.phase_share_gap", "1", "lower"),
)

#: Result.phase_times keys -> the span that covers the same lines of Algorithm 1.
PHASE_SPANS = {
    "scale": "scaling",
    "convert": "conversion",
    "matmul": "int8.matmul",
    "accumulate": "accumulate",
    "reconstruct": "reconstruct",
    "unscale": "unscale",
}


def _get(summary: Mapping[str, Mapping[str, float]], name: str, key: str) -> float:
    entry = summary.get(name)
    return float(entry[key]) if entry else 0.0


def _ms_per_call(summary, name: str) -> float:
    calls = _get(summary, name, "calls")
    return 1e3 * _get(summary, name, "seconds") / calls if calls else 0.0


def _gbs(summary, name: str) -> float:
    seconds = _get(summary, name, "seconds")
    return _get(summary, name, "bytes") / seconds / 1e9 if seconds else 0.0


def layer_metrics(
    summary: Mapping[str, Mapping[str, float]],
    ceilings: Mapping[str, float],
    extras: Mapping[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one process's span summary.

    ``extras`` supplies what spans cannot see (ledger and server counters,
    solver results, the cross-check) and overrides the span-derived value
    of the same name.
    """
    ops = _get(summary, "op", "calls")
    op_seconds = _get(summary, "op", "seconds")

    def share(name: str) -> float:
        return _get(summary, name, "seconds") / op_seconds if op_seconds else 0.0

    def per_op_ms(name: str) -> float:
        return 1e3 * _get(summary, name, "seconds") / ops if ops else 0.0

    matmul_seconds = _get(summary, "int8.matmul", "seconds")
    int8_gflops = (
        2.0 * _get(summary, "int8.matmul", "macs") / matmul_seconds / 1e9
        if matmul_seconds else 0.0
    )
    selects = _get(summary, "select", "calls")
    copy_gbs = ceilings.get("host.copy_gbs", 0.0)

    def pct(value: float, ceiling: float) -> float:
        return 100.0 * value / ceiling if ceiling else 0.0

    out = {name: 0.0 for name, _, _ in PER_LAYER}
    out.update({
        "scaling.ms_per_call": _ms_per_call(summary, "scaling"),
        "scaling.share": share("scaling"),
        "conversion.ms_per_call": _ms_per_call(summary, "conversion"),
        "conversion.share": share("conversion"),
        "conversion.gbs_computed": _gbs(summary, "conversion"),
        "conversion.pct_copy_bw": pct(_gbs(summary, "conversion"), copy_gbs),
        "int8.matmul_ms_per_call": _ms_per_call(summary, "int8.matmul"),
        "int8.matmul_share": share("int8.matmul"),
        "int8.gflops": int8_gflops,
        "int8.pct_blas64": pct(int8_gflops, ceilings.get("host.blas64_gflops", 0.0)),
        "int8.pct_blas32": pct(int8_gflops, ceilings.get("host.blas32_gflops", 0.0)),
        "int8.gemm_calls": _get(summary, "int8.matmul", "calls") / ops if ops else 0.0,
        "int8.macs": (
            (_get(summary, "int8.matmul", "macs") + _get(summary, "int8.matvec", "macs")) / ops
            if ops else 0.0
        ),
        "int8.matvec_ms": _ms_per_call(summary, "int8.matvec"),
        "accumulation.accumulate_ms_per_call": _ms_per_call(summary, "accumulate"),
        "accumulation.accumulate_share": share("accumulate"),
        "accumulation.gbs_computed": _gbs(summary, "accumulate"),
        "accumulation.pct_copy_bw": pct(_gbs(summary, "accumulate"), copy_gbs),
        "accumulation.fp64_accumulate_ms_per_call": _ms_per_call(summary, "accumulate@fp64"),
        "accumulation.fp32_accumulate_ms_per_call": _ms_per_call(summary, "accumulate@fp32"),
        "accumulation.reconstruct_ms_per_call": _ms_per_call(summary, "reconstruct"),
        "accumulation.unscale_ms_per_call": _ms_per_call(summary, "unscale"),
        "runtime.execute_plan_ms": per_op_ms("execute_plan"),
        "runtime.glue_ms": 1e3 * _get(summary, "op", "self_seconds") / ops if ops else 0.0,
        "runtime.ipc_wait_ms": per_op_ms("ipc_wait"),
        "adaptive.select_ms": _ms_per_call(summary, "select"),
        "adaptive.num_moduli_mean": _get(summary, "select", "num_moduli") / selects if selects else 0.0,
        "adaptive.calibrated_share": _get(summary, "select", "calibrated") / selects if selects else 0.0,
        "gemv.ms_per_call": _ms_per_call(summary, "gemv"),
        "gemv.share": share("gemv"),
        "cache.prepare_ms": _ms_per_call(summary, "cache.prepare"),
        "protocol.encode_ms": _ms_per_call(summary, "encode"),
        "protocol.decode_ms": _ms_per_call(summary, "decode"),
    })
    out.update({key: value for key, value in ceilings.items() if key in out})
    out.update(extras)
    return out


def phase_share_gap(summary, phase_seconds: Mapping[str, float]) -> float:
    """Largest |span share − Result.phase_times share| over the phases.

    ``phase_seconds`` sums each traced call's own ``phase_times`` (with
    ``convert`` = ``convert_A`` + ``convert_B``); both sides are divided by
    the summed op wall time.  The INT8 products of accurate-mode scaling
    are counted in the scale phase, as ``phase_times`` does.
    """
    op_seconds = _get(summary, "op", "seconds")
    if not op_seconds:
        return 0.0
    gaps = []
    for phase, span in PHASE_SPANS.items():
        seconds = _get(summary, span, "seconds")
        if span == "int8.matmul":
            seconds -= _get(summary, span, "scaling_seconds")
        gaps.append(abs(seconds - phase_seconds.get(phase, 0.0)) / op_seconds)
    return max(gaps)
