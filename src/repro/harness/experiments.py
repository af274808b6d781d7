"""Experiment sweeps feeding the per-figure reproductions.

Each sweep returns a list of plain dictionaries (one per data point) so that
tests can make assertions on them directly and the figures module can render
them as tables.  Accuracy sweeps actually *run* the numerical methods on
generated workloads; throughput / power / breakdown sweeps evaluate the
analytic GPU model (see DESIGN.md for the hardware substitution rationale).
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..accuracy import max_relative_error, reference_gemm
from ..baselines.registry import get_method
from ..perfmodel import modeled_tflops, phase_breakdown, power_efficiency
from ..types import FP32, FP64, Format, get_format
from ..workloads import phi_pair

__all__ = [
    "accuracy_sweep",
    "adaptive_moduli_sweep",
    "progressive_solver_sweep",
    "throughput_sweep",
    "power_sweep",
    "breakdown_sweep",
    "cpu_wallclock_sweep",
    "gemv_route_sweep",
    "gemv_line6_sweep",
    "preconditioner_sweep",
    "runtime_scaling_sweep",
    "batched_speedup_sweep",
    "prepared_reuse_sweep",
    "serve_throughput_sweep",
    "serve_cache_sweep",
]


def accuracy_sweep(
    methods: Sequence[str],
    phis: Sequence[float],
    ks: Sequence[int],
    m: int = 1024,
    n: int = 1024,
    precision: "Format | str" = FP64,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Maximum relative error of every method over a (phi, k) grid.

    This is the computation behind Figure 3: ``m = n`` fixed, ``k`` varied,
    ``phi`` controlling the exponent spread, error measured against the
    high-precision reference GEMM.
    """
    fmt = get_format(precision)
    rows: List[Dict[str, object]] = []
    for phi in phis:
        for k in ks:
            a, b = phi_pair(m, k, n, phi=phi, precision=fmt, seed=seed)
            reference = reference_gemm(a, b)
            for name in methods:
                spec = get_method(name, target=fmt)
                computed = spec(a, b)
                rows.append(
                    {
                        "precision": fmt.name,
                        "phi": float(phi),
                        "m": m,
                        "k": int(k),
                        "n": n,
                        "method": spec.name,
                        "max_rel_error": max_relative_error(computed, reference),
                    }
                )
    return rows


def throughput_sweep(
    methods: Sequence[str],
    gpus: Sequence[str],
    sizes: Sequence[int],
    target: "Format | str" = FP64,
) -> List[Dict[str, object]]:
    """Modelled TFLOPS of every method over square problems (Figures 4–5)."""
    fmt = get_format(target)
    rows: List[Dict[str, object]] = []
    for gpu in gpus:
        for size in sizes:
            for name in methods:
                spec = get_method(name, target=fmt)
                rows.append(
                    {
                        "gpu": gpu,
                        "n": int(size),
                        "method": spec.name,
                        "target": fmt.name,
                        "tflops": modeled_tflops(name, gpu, size, size, size, target=fmt),
                    }
                )
    return rows


def power_sweep(
    methods: Sequence[str],
    gpus: Sequence[str],
    sizes: Sequence[int],
    target: "Format | str" = FP64,
) -> List[Dict[str, object]]:
    """Modelled power efficiency (GFLOPS/W) over square problems (Figures 8–9)."""
    fmt = get_format(target)
    rows: List[Dict[str, object]] = []
    for gpu in gpus:
        for size in sizes:
            for name in methods:
                spec = get_method(name, target=fmt)
                rows.append(
                    {
                        "gpu": gpu,
                        "n": int(size),
                        "method": spec.name,
                        "target": fmt.name,
                        "gflops_per_watt": power_efficiency(
                            name, gpu, size, size, size, target=fmt
                        ),
                    }
                )
    return rows


def breakdown_sweep(
    methods: Sequence[str],
    gpus: Sequence[str],
    sizes: Sequence[int],
    target: "Format | str" = FP64,
) -> List[Dict[str, object]]:
    """Per-phase modelled time fractions (Figures 6–7)."""
    fmt = get_format(target)
    rows: List[Dict[str, object]] = []
    for gpu in gpus:
        for size in sizes:
            for name in methods:
                spec = get_method(name, target=fmt)
                fractions = phase_breakdown(name, gpu, size, size, size, target=fmt)
                for phase, fraction in fractions.items():
                    rows.append(
                        {
                            "gpu": gpu,
                            "n": int(size),
                            "method": spec.name,
                            "target": fmt.name,
                            "phase": phase,
                            "fraction": fraction,
                        }
                    )
    return rows


def cpu_wallclock_sweep(
    methods: Sequence[str],
    sizes: Sequence[int],
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 1,
) -> List[Dict[str, object]]:
    """Measured wall-clock time of this library's implementations (CPU).

    Not a figure from the paper — the paper measures GPU kernels — but a
    useful sanity check on the implementation cost of every method in this
    reproduction, and the basis of the pytest-benchmark CPU suite.
    """
    fmt = get_format(target)
    rows: List[Dict[str, object]] = []
    for size in sizes:
        a, b = phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed)
        for name in methods:
            spec = get_method(name, target=fmt)
            best = float("inf")
            for _ in range(max(1, repeats)):
                start = time.perf_counter()
                spec(a, b)
                best = min(best, time.perf_counter() - start)
            rows.append(
                {
                    "n": int(size),
                    "method": spec.name,
                    "target": fmt.name,
                    "seconds": best,
                    "effective_gflops": 2.0 * size**3 / best / 1e9,
                }
            )
    return rows


def runtime_scaling_sweep(
    sizes: Sequence[int],
    workers: Sequence[int] = (1, 4),
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 1,
) -> List[Dict[str, object]]:
    """Serial-vs-parallel wall clock of the execution runtime (this CPU).

    For every size, the same emulated GEMM runs once per worker count of
    ``workers`` (1 = strictly serial; a serial baseline run is injected,
    and reported, if ``workers`` does not start with 1); each row reports
    the best-of-``repeats`` wall time, the speedup relative to the serial
    run and whether the result was bit-identical to it — which the runtime
    guarantees (:mod:`repro.runtime.scheduler`).  The worker counts' repeats
    alternate, so a slow stretch of the host hits every count alike.
    """
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm

    fmt = precision_for_target(target)
    counts = list(workers)
    if not counts or counts[0] != 1:
        # The baseline must be the strictly serial run; inject it (its row
        # is reported too) rather than silently misusing the first entry.
        counts = [1] + counts
    rows: List[Dict[str, object]] = []
    for size in sizes:
        a, b = phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed)
        configs = [
            Ozaki2Config(precision=fmt, num_moduli=num_moduli, parallelism=int(count))
            for count in counts
        ]
        best = [float("inf")] * len(counts)
        outputs: List[Optional[np.ndarray]] = [None] * len(counts)
        for _ in range(max(1, repeats)):
            for index, config in enumerate(configs):
                start = time.perf_counter()
                outputs[index] = ozaki2_gemm(a, b, config=config)
                best[index] = min(best[index], time.perf_counter() - start)
        for count, config, seconds, c in zip(counts, configs, best, outputs, strict=True):
            rows.append(
                {
                    "n": int(size),
                    "method": config.method_name,
                    "workers": int(count),
                    "seconds": seconds,
                    "speedup_vs_serial": best[0] / seconds,
                    "bit_identical": bool(np.array_equal(c, outputs[0])),
                }
            )
    return rows


def process_scaling_sweep(
    sizes: Sequence[int],
    workers: Sequence[int] = (1, 2, 4),
    executors: Sequence[str] = ("thread", "process", "auto"),
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 5,
) -> List[Dict[str, object]]:
    """Thread pool vs process pool (vs ``"auto"``) wall clock per GEMM size.

    For every ``size^3`` emulated GEMM, one warm scheduler per
    ``(executor, workers)`` pair — its pool started and one untimed call
    made — runs the product once per round, the pairs alternating within
    each of ``repeats`` rounds so a slow stretch of the host hits them
    alike.  The process executor dispatches the residue work to worker
    *processes* over shared-memory stacks; the thread executor keeps it in
    this process and bands large conversions and accumulations across its
    threads; ``"auto"`` picks one of the two by the call's INT8 work (its
    ``backend`` column says which).  Every row reports the median wall
    time, the speedup over the strictly serial baseline (first row of its
    size), bitwise and op-ledger equality with that baseline — both
    guaranteed by the runtime regardless of backend — and the median
    per-phase seconds (``phase_<key>``).  ``workers == 1`` rows are forced
    onto the thread path (a one-worker process pool only adds IPC
    overhead), so exactly one serial baseline appears per size.
    """
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm
    from ..runtime.plan import plan_for_config
    from ..runtime.scheduler import Scheduler

    fmt = precision_for_target(target)
    counts = list(workers)
    if not counts or counts[0] != 1:
        counts = [1] + counts
    configs = [
        Ozaki2Config(
            precision=fmt, num_moduli=num_moduli, parallelism=int(count), executor=executor
        )
        for count in counts
        for executor in (("thread",) if count == 1 else tuple(executors))
    ]
    rows: List[Dict[str, object]] = []
    for size in sizes:
        a, b = phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed)
        seconds: List[List[float]] = [[] for _ in configs]
        phases: List[Dict[str, List[float]]] = [{} for _ in configs]
        results: list = [None] * len(configs)
        with contextlib.ExitStack() as stack:
            schedulers = [
                stack.enter_context(
                    Scheduler(parallelism=config.parallelism, executor=config.executor)
                )
                for config in configs
            ]
            for config, scheduler in zip(configs, schedulers, strict=True):
                ozaki2_gemm(a, b, config=config, scheduler=scheduler)
            for _ in range(max(1, repeats)):
                for index, (config, scheduler) in enumerate(
                    zip(configs, schedulers, strict=True)
                ):
                    start = time.perf_counter()
                    result = ozaki2_gemm(
                        a, b, config=config, scheduler=scheduler, return_details=True
                    )
                    seconds[index].append(time.perf_counter() - start)
                    for key, value in result.phase_times.seconds.items():
                        phases[index].setdefault(key, []).append(value)
                    results[index] = result
        serial = results[0]
        serial_seconds = float(np.median(seconds[0]))
        for config, elapsed, phase, result in zip(
            configs, seconds, phases, results, strict=True
        ):
            median = float(np.median(elapsed))
            row: Dict[str, object] = {
                "n": int(size),
                "method": result.method_name,
                "executor": config.executor,
                "backend": (
                    "serial"
                    if config.parallelism == 1
                    else plan_for_config(size, size, size, config).executor
                ),
                "workers": config.parallelism,
                "seconds": median,
                "speedup_vs_serial": serial_seconds / median,
                "bit_identical": bool(np.array_equal(result.value, serial.value)),
                "ledger_equal": result.ledger.as_dict() == serial.ledger.as_dict(),
            }
            for key, values in phase.items():
                row[f"phase_{key}"] = float(np.median(values))
            rows.append(row)
    return rows


def gemv_route_sweep(
    size: int,
    num_moduli: int = 15,
    iters: int = 5,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Residue-GEMV path vs the ``n = 1`` GEMM route (this CPU).

    Models one solver run: a ``size x size`` system matrix is prepared once
    (:func:`~repro.core.operand.prepare_a`), then ``iters`` distinct vectors
    are multiplied through the full plan/scheduler ``n = 1`` GEMM route
    (``ozaki2_gemm(prep, v[:, None])``) and through
    :func:`~repro.apps.solvers.prepared_matvec` (the dedicated
    :func:`~repro.core.gemv.prepared_gemv` kernel every solver iteration
    runs).  Two rows are returned — ``route`` = ``"gemm-n1"`` /
    ``"gemv-fast"`` — with the best-of-``repeats`` total wall time, the
    **per-iteration latency** (the figure a solver iteration pays), the GEMV
    path's speedup, and the bitwise/op-ledger equality flags that the GEMV
    path guarantees.  Every timed pass over the vectors follows an untimed
    warm pass of the same route.  Per-phase seconds of a representative
    call are attached under ``phase_<key>``.
    """
    from ..apps.solvers import prepared_matvec
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm
    from ..core.gemv import prepared_gemv
    from ..core.operand import prepare_a
    from ..engines.int8 import Int8MatrixEngine
    from ..runtime.scheduler import Scheduler

    fmt = precision_for_target(target)
    rng_seed = int(seed)
    a = phi_pair(size, size, size, phi=phi, precision=fmt, seed=rng_seed)[0]
    vectors = [
        phi_pair(size, size, 1, phi=phi, precision=fmt, seed=rng_seed + 1 + j)[1][:, 0]
        for j in range(max(1, int(iters)))
    ]

    config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
    prep = prepare_a(a, config=config)

    def gemm_n1(v: np.ndarray, sched: Scheduler) -> np.ndarray:
        product = ozaki2_gemm(prep, v[:, None], config=config, scheduler=sched)
        return np.asarray(product, dtype=np.float64).ravel()

    def gemv(v: np.ndarray, sched: Scheduler) -> np.ndarray:
        return prepared_matvec(prep, v, config, sched.engine)

    routes = {"gemm-n1": gemm_n1, "gemv-fast": gemv}
    best = {route: float("inf") for route in routes}
    outputs: Dict[str, List[np.ndarray]] = {}
    # The routes' repeats alternate, so a slow stretch of the host hits
    # both sides alike, and each timed pass follows an untimed warm pass of
    # its own route, so it never starts in the cache the other route left.
    for _ in range(max(1, repeats)):
        for route, product in routes.items():
            with Scheduler(
                parallelism=config.parallelism,
                executor=config.executor,
                max_pool_rebuilds=config.max_pool_rebuilds,
            ) as sched:
                for v in vectors:
                    product(v, sched)
                start = time.perf_counter()
                outs = [product(v, sched) for v in vectors]
                elapsed = time.perf_counter() - start
            if elapsed < best[route]:
                best[route] = elapsed
                outputs[route] = outs

    identical = all(
        np.array_equal(x, y) for x, y in zip(outputs["gemm-n1"], outputs["gemv-fast"], strict=True)
    )

    # Verification pass with fresh engines: the two routes must account for
    # exactly the same residue products.  Also yields per-phase seconds.
    v0 = vectors[0]
    gemm_engine = Int8MatrixEngine()
    gemm_details = ozaki2_gemm(
        prep, v0[:, None], config=config, engine=gemm_engine, return_details=True
    )
    gemv_engine = Int8MatrixEngine()
    gemv_details = prepared_gemv(
        prep, v0, config=config, engine=gemv_engine, return_details=True
    )
    ledger_equal = (
        gemm_details.ledger.as_dict() == gemv_details.ledger.as_dict()
    )

    details = {"gemm-n1": gemm_details, "gemv-fast": gemv_details}
    rows: List[Dict[str, object]] = []
    for route in ("gemm-n1", "gemv-fast"):
        row: Dict[str, object] = {
            "n": int(size),
            "method": config.method_name,
            "route": route,
            "iters": len(vectors),
            "seconds_total": best[route],
            "per_iter_seconds": best[route] / len(vectors),
            "speedup_vs_gemm": best["gemm-n1"] / best[route],
            "bit_identical": identical,
            "ledger_equal": ledger_equal,
            "prepare_seconds": prep.convert_seconds,
        }
        for key, value in details[route].phase_times.seconds.items():
            row[f"phase_{key}"] = value
        rows.append(row)
    return rows


def gemv_line6_sweep(
    sizes: Sequence[int],
    cases: Sequence["tuple[str, int]"] = (
        ("fp64", 8), ("fp64", 10), ("fp64", 11), ("fp64", 12), ("fp32", 8)
    ),
    iters: int = 4,
    repeats: int = 2,
    phi: float = 0.5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Line 6 of a prepared GEMV: the INT8 matvec route vs the FP64 route.

    For every ``size x size`` matrix and ``(precision, N)`` case the matrix
    is prepared once (:func:`~repro.core.operand.prepare_a`) and ``iters``
    vectors run through :func:`~repro.core.gemv.prepared_gemv` twice: on the
    prepared operand, whose kept ``A'`` takes the FP64 route when a digit
    fits (``digit_bits``, :func:`~repro.core.operand.fp64_digit_width`), and
    on a hand-constructed operand over the same residues, which keeps no
    ``A'`` and so runs the INT8 route.  One row per case: the digit count
    ``L`` and the rows per panel of the FP64 product (``panel_rows``,
    :func:`~repro.core.gemv.fp64_panel_rows`; 0 for one DGEMM), best-of-
    ``repeats`` per-GEMV latency of each route (alternating, so a slow
    stretch of the host hits both; each timed pass follows an untimed warm
    pass of its own route, so it never starts in the cache the other route
    left), the speedup, and whether the outputs and op ledgers are
    identical.
    """
    from ..config import Ozaki2Config
    from ..core.gemv import fp64_digit_count, fp64_panel_rows, prepared_gemv
    from ..core.operand import ResidueOperand, fp64_digit_width, prepare_a, table_for
    from ..core.scaling import scale_exponent_budget
    from ..engines.int8 import Int8MatrixEngine

    rows: List[Dict[str, object]] = []
    for size in sizes:
        for precision, num_moduli in cases:
            fmt = precision_for_target(precision)
            a = phi_pair(size, size, 1, phi=phi, precision=fmt, seed=seed)[0]
            vectors = [
                phi_pair(size, size, 1, phi=phi, precision=fmt, seed=seed + 1 + j)[1][:, 0]
                for j in range(max(1, int(iters)))
            ]
            config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
            fp64 = prepare_a(a, config=config)
            int8 = ResidueOperand(
                side="A", scale_exp=fp64.scale_exp, slices=fp64.slices, config=config
            )
            routes = {"int8": int8, "fp64": fp64}
            best = {route: float("inf") for route in routes}
            outputs: Dict[str, List[np.ndarray]] = {}
            for _ in range(max(1, repeats)):
                for route, operand in routes.items():
                    engine = Int8MatrixEngine()
                    for v in vectors:
                        prepared_gemv(operand, v, config, engine)
                    start = time.perf_counter()
                    outs = [prepared_gemv(operand, v, config, engine) for v in vectors]
                    best[route] = min(best[route], time.perf_counter() - start)
                    outputs[route] = outs
            ledgers = {
                route: prepared_gemv(
                    operand, vectors[0], config, Int8MatrixEngine(), return_details=True
                ).ledger.as_dict()
                for route, operand in routes.items()
            }
            table = table_for(config)
            width = fp64_digit_width(table, size)
            digits = (
                fp64_digit_count(scale_exponent_budget(table, "fast"), width)
                if fp64._a_prime is not None else 0
            )
            rows.append({
                "n": int(size),
                "precision": fmt.name,
                "method": config.method_name,
                "digit_bits": width,
                "digits": digits,
                "panel_rows": fp64_panel_rows(digits, size, size),
                "fp64_route": fp64._a_prime is not None,
                "int8_ms": 1e3 * best["int8"] / len(vectors),
                "fp64_ms": 1e3 * best["fp64"] / len(vectors),
                "speedup": best["int8"] / best["fp64"],
                "bit_identical": all(
                    np.array_equal(x, y)
                    for x, y in zip(outputs["int8"], outputs["fp64"], strict=True)
                ),
                "ledger_equal": ledgers["int8"] == ledgers["fp64"],
            })
            # Free this case's operands before the next one is prepared.
            del fp64, int8, routes, outputs
    return rows


def preconditioner_sweep(
    size: int = 96,
    kinds: Sequence[str] = ("none", "ilu0", "ssor"),
    cond: float = 1e3,
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    tol: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Iteration counts of PCG under each preconditioner, on one system.

    Solves one ill-conditioned SPD system
    (:func:`repro.workloads.ill_conditioned_spd_matrix`, condition number
    ``cond``) with :func:`~repro.apps.solvers.pcg_solve` under every
    preconditioner kind.  One row per kind reports convergence, the
    iteration count (``"none"`` is the plain-CG baseline the others are
    measured against), the one-time factor cost and the total wall time.
    """
    from ..apps.solvers import pcg_solve
    from ..config import Ozaki2Config
    from ..workloads import linear_system

    fmt = precision_for_target(target)
    config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
    if tol is None:
        tol = 1e-8 if fmt == FP64 else 1e-3
    a, b, _ = linear_system(size, kind="ill_spd", seed=seed, cond=cond)

    results = {
        kind: pcg_solve(a, b, config=config, tol=tol, precond=kind)
        for kind in kinds
    }
    baseline = results.get("none")
    rows: List[Dict[str, object]] = []
    for kind in kinds:
        result = results[kind]
        rows.append(
            {
                "n": int(size),
                "cond": float(cond),
                "method": result.method,
                "precond": kind,
                "converged": result.converged,
                "iterations": result.iterations,
                "residual": result.residual_norm,
                "iters_vs_cg": (
                    result.iterations / baseline.iterations
                    if baseline is not None and baseline.iterations
                    else float("nan")
                ),
                "factor_seconds": result.precond_seconds,
                "seconds": result.seconds,
            }
        )
    return rows


def batched_speedup_sweep(
    size: int,
    batch: int,
    num_moduli: int = 15,
    parallelism: int = 1,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Batched API vs a Python loop of serial calls, on ``batch`` problems.

    Returns two rows (``strategy`` = ``"loop"`` / ``"batched"``) with the
    best-of-3 wall time (the two strategies' repeats alternate, so a slow
    stretch of the host hits both alike), speedup of batched over the loop
    and a bitwise-equality flag.
    """
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm
    from ..runtime import ozaki2_gemm_batched

    fmt = precision_for_target(target)
    config = Ozaki2Config(
        precision=fmt, num_moduli=num_moduli, parallelism=int(parallelism)
    )
    pairs = [
        phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed + j)
        for j in range(batch)
    ]

    loop_seconds = batched_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        loop_results = [ozaki2_gemm(a, b, config=config) for a, b in pairs]
        loop_seconds = min(loop_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        batched_results = ozaki2_gemm_batched(
            [a for a, _ in pairs], [b for _, b in pairs], config=config
        )
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    identical = all(
        np.array_equal(x, y) for x, y in zip(loop_results, batched_results, strict=True)
    )
    common = {
        "n": int(size),
        "batch": int(batch),
        "method": config.method_name,
        "workers": config.parallelism,
        "bit_identical": identical,
    }
    return [
        {**common, "strategy": "loop", "seconds": loop_seconds, "speedup_vs_loop": 1.0},
        {
            **common,
            "strategy": "batched",
            "seconds": batched_seconds,
            "speedup_vs_loop": loop_seconds / batched_seconds,
        },
    ]


def prepared_reuse_sweep(
    size: int = 256,
    reuse_counts: Sequence[int] = (1, 2, 4, 8),
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Amortised speedup of convert-once/multiply-many vs fresh conversion.

    For every reuse count ``r``, one fixed ``A`` is multiplied against ``r``
    distinct partners twice: once with plain :func:`~repro.core.gemm.
    ozaki2_gemm` calls (A converted every time) and once through a single
    :func:`~repro.core.operand.prepare_a` whose residues serve all ``r``
    calls.  Rows report best-of-``repeats`` total wall time (the two
    routes' repeats alternate, so a slow stretch of the host hits both
    alike), amortised per-call time (the prepared total *includes* the
    one-time preparation), the amortised speedup, and bitwise equality —
    which the prepared path guarantees.
    """
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm
    from ..core.operand import prepare_a

    fmt = precision_for_target(target)
    config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
    max_reuse = max(reuse_counts)
    a, _ = phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed)
    partners = [
        phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed + 1 + j)[1]
        for j in range(max_reuse)
    ]

    rows: List[Dict[str, object]] = []
    for reuse in reuse_counts:
        plain_seconds = prepared_seconds = float("inf")
        plain_results = prepared_results = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            results = [ozaki2_gemm(a, partners[i], config=config) for i in range(reuse)]
            elapsed = time.perf_counter() - start
            if elapsed < plain_seconds:
                plain_seconds, plain_results = elapsed, results

            start = time.perf_counter()
            prep = prepare_a(a, config=config)
            results = [
                ozaki2_gemm(prep, partners[i], config=config) for i in range(reuse)
            ]
            elapsed = time.perf_counter() - start
            if elapsed < prepared_seconds:
                prepared_seconds, prepared_results = elapsed, results

        identical = all(
            np.array_equal(x, y) for x, y in zip(plain_results, prepared_results, strict=True)
        )
        rows.append(
            {
                "n": int(size),
                "method": config.method_name,
                "reuse": int(reuse),
                "seconds_unprepared": plain_seconds,
                "seconds_prepared": prepared_seconds,
                "amortised_unprepared": plain_seconds / reuse,
                "amortised_prepared": prepared_seconds / reuse,
                "amortised_speedup": plain_seconds / prepared_seconds,
                "bit_identical": identical,
            }
        )
    return rows


def precision_for_target(target: "Format | str") -> Format:
    """Coerce a target precision spec to FP64/FP32 (helper for sweeps)."""
    fmt = get_format(target)
    if fmt not in (FP64, FP32):
        raise ValueError(f"runtime sweeps emulate fp64 or fp32, got {fmt.name}")
    return fmt


def adaptive_moduli_sweep(
    families: Sequence[Dict[str, object]],
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Auto-N vs fixed-N emulation across workload families (this CPU).

    Each family is a dict with keys ``label``, ``m``, ``k``, ``n`` and
    optionally ``phi`` (default 0.5), ``precision`` (default fp64),
    ``num_moduli_fixed`` (default 15 — the paper's DGEMM default) and
    ``seed``.  For every family the same (A, B) pair runs through

    * the fixed configuration (``num_moduli=num_moduli_fixed``), and
    * the auto configuration (``num_moduli="auto"`` at the default
      ``target_accuracy`` unless the family overrides it),

    with best-of-``repeats`` wall clocks; the fixed and auto repeats
    alternate, so a slow stretch of the host hits both sides alike.  Each
    row reports the selected count, the measured end-to-end speedup next to
    the cost model's *predicted* ops speedup (:func:`repro.perfmodel.
    adaptive_moduli_savings`) and the ledgers' INT8 MAC ratio (``mac_ratio``,
    deterministic), the measured max element-wise error against the
    high-precision reference next to the selection's guaranteed bound
    (``within_bound``), and bitwise equality of the auto result against a
    fixed run at the selected count (``bit_identical`` — auto selection
    chooses the configuration, never the arithmetic).
    """
    from ..config import Ozaki2Config
    from ..core.gemm import ozaki2_gemm
    from ..perfmodel import adaptive_moduli_savings

    rows: List[Dict[str, object]] = []
    for family in families:
        fmt = precision_for_target(family.get("precision", FP64))
        m, k, n = int(family["m"]), int(family["k"]), int(family["n"])
        phi = float(family.get("phi", 0.5))
        seed = int(family.get("seed", 0))
        n_fixed = int(family.get("num_moduli_fixed", 15))
        target = family.get("target_accuracy")
        a, b = phi_pair(m, k, n, phi=phi, precision=fmt, seed=seed)

        fixed_cfg = Ozaki2Config(precision=fmt, num_moduli=n_fixed)
        auto_cfg = Ozaki2Config(
            precision=fmt, num_moduli="auto", target_accuracy=target
        )

        best = {"fixed": float("inf"), "auto": float("inf")}
        details = {}
        for _ in range(max(1, int(repeats))):
            for key, cfg in (("fixed", fixed_cfg), ("auto", auto_cfg)):
                start = time.perf_counter()
                result = ozaki2_gemm(a, b, config=cfg, return_details=True)
                elapsed = time.perf_counter() - start
                if elapsed < best[key]:
                    best[key], details[key] = elapsed, result

        auto = details["auto"]
        selection = auto.moduli_selection
        comparator = ozaki2_gemm(a, b, config=fixed_cfg.replace(num_moduli=auto.config.num_moduli))
        reference = reference_gemm(a, b)
        measured_error = float(np.max(np.abs(auto.value.astype(np.float64) - reference)))
        predicted = adaptive_moduli_savings(
            m, k, n, n_fixed, auto.config.num_moduli, target=fmt
        )
        rows.append(
            {
                "family": str(family.get("label", f"m{m}k{k}n{n}_phi{phi:g}")),
                "precision": fmt.name,
                "m": m,
                "k": k,
                "n": n,
                "phi": phi,
                "target": selection.target,
                "n_fixed": n_fixed,
                "n_auto": auto.config.num_moduli,
                "n_rigorous": int(selection.rigorous_num_moduli or auto.config.num_moduli),
                "decided_by": str(selection.decided_by),
                "target_met": bool(selection.met),
                "seconds_fixed": best["fixed"],
                "seconds_auto": best["auto"],
                "speedup": best["fixed"] / best["auto"],
                "predicted_speedup": predicted["predicted_ops_speedup"],
                "mac_ratio": details["fixed"].ledger.mac_ops / auto.ledger.mac_ops,
                "max_error": measured_error,
                "error_bound": float(selection.bound),
                "within_bound": bool(measured_error <= selection.bound),
                "bit_identical": bool(np.array_equal(auto.value, comparator)),
            }
        )
    return rows


def progressive_solver_sweep(
    size: int = 1024,
    cond: float = 1e3,
    num_moduli: int = 15,
    tol: float = 1e-10,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Progressive-precision CG vs the fixed-count solve (this CPU).

    Solves one ill-conditioned SPD system (the PCG benchmark family) with
    plain CG at the fixed count and with ``progressive=True`` (the
    moduli-escalation ladder of :class:`repro.apps.solvers._ModuliLadder`).
    Two rows — ``route`` = ``"fixed"`` / ``"progressive"`` — report
    convergence, iterations, the final relative residual (both routes face
    the *same* full-count residual check), the INT8 MACs on the solve's
    ledger (deterministic), wall clock, and the progressive route's moduli
    schedule as ``N:iterations`` segments.
    """
    from ..apps.solvers import cg_solve, moduli_schedule_segments
    from ..config import Ozaki2Config
    from ..workloads import linear_system

    a, b, _ = linear_system(size, kind="ill_spd", cond=cond, seed=seed)
    config = Ozaki2Config(num_moduli=num_moduli)

    rows: List[Dict[str, object]] = []
    for route, progressive in (("fixed", False), ("progressive", True)):
        result = cg_solve(a, b, config=config, tol=tol, progressive=progressive)
        segments = moduli_schedule_segments(result.moduli_history)
        rows.append(
            {
                "route": route,
                "n": int(size),
                "cond": float(cond),
                "method": result.method,
                "converged": bool(result.converged),
                "iterations": int(result.iterations),
                "residual": float(result.residual_norm),
                "tol": float(tol),
                "int8_macs": int(result.ledger.mac_ops),
                "seconds": float(result.seconds),
                "schedule": "->".join(f"{c}x{i}" for c, i in segments),
            }
        )
    rows[1]["speedup_vs_fixed"] = rows[0]["seconds"] / rows[1]["seconds"]
    rows[0]["speedup_vs_fixed"] = 1.0
    return rows


def serve_throughput_sweep(
    size: int = 384,
    requests: int = 24,
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
    repeats: int = 2,
) -> List[Dict[str, object]]:
    """Served warm-hit vs cold-miss throughput on a reuse-heavy trace.

    The service's value proposition in one number: a trace of ``requests``
    matrix–vector products against **one** recurring matrix (the iterative-
    solver/inference shape) is driven through ``repro serve`` twice —

    * **cold-miss route**: caching disabled on the server and fingerprints
      disabled on the client, so every request uploads the matrix bytes and
      pays the full residue conversion (the pre-service behaviour), and
    * **warm-hit route**: the default service configuration — the first
      request uploads and converts, every later request sends the 32-digit
      fingerprint and reuses the cached operand.

    Both routes serve over real sockets (loopback HTTP) and both answers
    are required to be **bit-identical** to each other and to the direct
    in-process :class:`~repro.session.Session` product.  Rows report
    best-of-``repeats`` requests/sec for each route, the speedup, and the
    measured warm hit rate.  The acceptance floor asserted by the
    benchmark is warm ≥ 2x cold.
    """
    from ..config import Ozaki2Config
    from ..service import ReproServer, ServiceClient

    fmt = precision_for_target(target)
    config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
    a, _ = phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed)
    rng = np.random.default_rng(seed + 1)
    vectors = [rng.standard_normal(size) for _ in range(requests)]

    def run_trace(client: ServiceClient):
        start = time.perf_counter()
        values = [client.gemv(a, v).value for v in vectors]
        return time.perf_counter() - start, values

    cold_seconds = float("inf")
    cold_values = None
    with ReproServer(config=config, port=0, cache_bytes=0).start() as server:
        client = ServiceClient(port=server.port, use_fingerprints=False)
        for _ in range(max(1, repeats)):
            elapsed, values = run_trace(client)
            if elapsed < cold_seconds:
                cold_seconds, cold_values = elapsed, values

    warm_seconds = float("inf")
    warm_values = None
    hit_rate = 0.0
    with ReproServer(config=config, port=0).start() as server:
        client = ServiceClient(port=server.port)
        client.gemv(a, vectors[0])  # the one cold miss: upload + convert
        for _ in range(max(1, repeats)):
            elapsed, values = run_trace(client)
            if elapsed < warm_seconds:
                warm_seconds, warm_values = elapsed, values
        stats = client.stats()["cache"]
        hit_rate = float(stats["hit_rate"])

    from ..session import Session

    with Session(config=config) as session:
        reference = [session.gemv(a, v).value for v in vectors]
    identical = all(
        np.array_equal(c, w) and np.array_equal(w, r)
        for c, w, r in zip(cold_values, warm_values, reference, strict=True)
    )
    return [
        {
            "trace": "gemv-reuse",
            "n": int(size),
            "requests": int(requests),
            "method": config.method_name,
            "seconds_cold": cold_seconds,
            "seconds_warm": warm_seconds,
            "rps_cold": requests / cold_seconds,
            "rps_warm": requests / warm_seconds,
            "speedup": cold_seconds / warm_seconds,
            "hit_rate": hit_rate,
            "bit_identical": bool(identical),
        }
    ]


def serve_cache_sweep(
    size: int = 256,
    working_set: int = 6,
    requests: int = 36,
    cache_entries: Sequence[int] = (1, 2, 4, 6),
    num_moduli: int = 15,
    target: "Format | str" = FP64,
    phi: float = 0.5,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Served throughput and hit rate as a function of cache capacity.

    A skewed trace (operand ``i`` of a ``working_set`` drawn with
    probability ∝ 1/(i+1) — popular matrices recur, cold ones straggle, the
    canonical serving distribution) of GEMV requests runs against servers
    whose operand cache holds 1 … ``working_set`` entries.  Rows report
    requests/sec, the measured hit rate and the evictions per capacity —
    the curve that tells an operator how to size ``--cache-mb`` for a
    workload: throughput rises with the hit rate until the cache covers the
    hot set, after which extra capacity buys nothing.
    """
    from ..config import Ozaki2Config
    from ..core.operand import prepare_a
    from ..service import ReproServer, ServiceClient

    fmt = precision_for_target(target)
    config = Ozaki2Config(precision=fmt, num_moduli=num_moduli)
    matrices = [
        phi_pair(size, size, size, phi=phi, precision=fmt, seed=seed + j)[0]
        for j in range(working_set)
    ]
    entry_bytes = prepare_a(matrices[0], config=config).nbytes

    rng = np.random.default_rng(seed + 100)
    weights = np.array([1.0 / (j + 1) for j in range(working_set)])
    trace = rng.choice(working_set, size=requests, p=weights / weights.sum())
    vectors = [rng.standard_normal(size) for _ in range(requests)]

    rows: List[Dict[str, object]] = []
    for capacity in cache_entries:
        # Budget for exactly `capacity` entries (nbytes varies by a few
        # hundred bytes between same-shape operands; half an entry of slack
        # absorbs that without admitting an extra one).
        cache_bytes = int(entry_bytes * (capacity + 0.5))
        with ReproServer(config=config, port=0, cache_bytes=cache_bytes).start() as server:
            client = ServiceClient(port=server.port)
            start = time.perf_counter()
            for step, pick in enumerate(trace):
                client.gemv(matrices[int(pick)], vectors[step])
            elapsed = time.perf_counter() - start
            stats = client.stats()["cache"]
        rows.append(
            {
                "capacity_entries": int(capacity),
                "working_set": int(working_set),
                "requests": int(requests),
                "rps": requests / elapsed,
                "hit_rate": float(stats["hit_rate"]),
                "hits": int(stats["hits"]),
                "misses": int(stats["misses"]),
                "evictions": int(stats["evictions"]),
            }
        )
    return rows
