"""Command-line interface: the ``repro`` script or ``python -m repro``.

Subcommands
-----------
``run``
    Run emulated GEMMs through the execution runtime — generated workloads,
    optional batching (``--batch``), worker-pool parallelism
    (``--parallel``) and convert-once operand reuse (``--prepare-a`` /
    ``--prepare-b``) — and print per-item timing/accuracy.
``solve``
    Solve a generated linear system with an iterative solver (Jacobi, CG or
    LU + iterative refinement) whose inner products reuse a prepared system
    matrix every iteration.
``figures``
    Regenerate one or all of the paper's figures and print the tables
    (optionally at the paper's full problem sizes).
``accuracy``
    Run an accuracy sweep for arbitrary methods / phi values / sizes.
``throughput``
    Evaluate the modelled GPU throughput of arbitrary methods and sizes.
``gemm``
    Multiply two ``.npy`` matrices with a chosen method and store / check the
    result (handy for quick experiments on real data).
``serve``
    Host the residue-GEMM service (:mod:`repro.service`): a long-lived
    :class:`~repro.session.Session` behind HTTP with transparent
    prepared-operand caching and request coalescing; ``--stats`` queries a
    running server's counters instead of serving.
``lint``
    Run the domain-aware static analyser (:mod:`repro.analysis`): RPR0xx
    rules enforcing dtype, determinism, ledger and lock discipline, with
    ``--format text|json`` output; exits nonzero on findings.
``selfcheck``
    Print version/configuration and run a fast end-to-end correctness check
    (used by CI as a post-install smoke test), including a ``repro lint``
    pass over the installed package.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    from . import __version__
    from .apps.solvers import SOLVERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ozaki scheme II GEMM-emulation reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run emulated GEMMs through the batched/parallel runtime"
    )
    run.add_argument("--size", default="512", help="problem size n or m,k,n")
    run.add_argument("--batch", type=int, default=1, help="number of GEMMs in the batch")
    _add_config_arguments(run)
    _add_runtime_arguments(run)
    run.add_argument("--mode", default="fast", choices=["fast", "accurate"])
    run.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help="cap the residue workspace; forces m/n output tiling",
    )
    run.add_argument("--phi", type=float, default=0.5, help="exponent spread of the workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--check", action="store_true", help="report error vs the high-precision reference"
    )
    run.add_argument(
        "--prepare-a",
        action="store_true",
        help="share one A across the batch, converted once (convert-once/multiply-many)",
    )
    run.add_argument(
        "--prepare-b",
        action="store_true",
        help="share one B across the batch, converted once",
    )
    run.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="arm seeded fault injection for this run, e.g. "
        "'worker.crash:times=1;shm.alloc:rate=0.5' (see repro.faults); "
        "the run must still produce bit-identical results",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault plan's per-site RNGs (with --inject-faults)",
    )

    solve = sub.add_parser(
        "solve", help="iterative solvers reusing a prepared system matrix"
    )
    solve.add_argument(
        "solver_pos", nargs="?", default=None, choices=list(SOLVERS), metavar="solver",
        help="jacobi (diagonally dominant), cg (SPD), pcg (preconditioned CG "
        "on the ill-conditioned SPD family), ir (LU + refinement); "
        "default jacobi",
    )
    solve.add_argument(
        "--solver", dest="solver_opt", default=None, choices=list(SOLVERS),
        help="alias for the positional solver argument",
    )
    solve.add_argument("--size", type=int, default=256, help="system dimension n")
    _add_config_arguments(solve)
    solve.add_argument(
        "--progressive",
        action="store_true",
        help="iterate at a reduced moduli count early and escalate as the "
        "residual shrinks (final iterations always run at the full count)",
    )
    solve.add_argument(
        "--tol", type=float, default=None,
        help="relative residual tolerance (default 1e-10 for fp64, 1e-5 for fp32)",
    )
    solve.add_argument("--max-iter", type=int, default=None)
    solve.add_argument(
        "--precond", default=None, choices=["none", "ilu0", "ssor"],
        help="preconditioner factored once before the iteration (jacobi/cg/pcg; "
        "pcg defaults to ilu0)",
    )
    solve.add_argument(
        "--omega", type=float, default=1.0,
        help="SSOR relaxation factor in (0, 2); 1.0 is symmetric Gauss-Seidel",
    )
    solve.add_argument(
        "--cond", type=float, default=None,
        help="condition number of the generated system (pcg's ill-conditioned "
        "SPD family only; default 1e4)",
    )
    solve.add_argument("--phi", type=float, default=0.5)
    solve.add_argument("--seed", type=int, default=0)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--only",
        default=None,
        help="comma-separated figure ids: 1, 3d, 3s, 4, 5, 6, 7, 8, 9, headline",
    )
    figures.add_argument("--full", action="store_true", help="use the paper's problem sizes")

    accuracy = sub.add_parser("accuracy", help="run an accuracy sweep")
    accuracy.add_argument("--methods", default="DGEMM,OS II-fast-15", help="comma-separated names")
    accuracy.add_argument("--phi", default="0.5", help="comma-separated phi values")
    accuracy.add_argument("--k", default="512", help="comma-separated inner dimensions")
    accuracy.add_argument("--m", type=int, default=256)
    accuracy.add_argument("--n", type=int, default=256)
    accuracy.add_argument("--precision", default="fp64", choices=["fp64", "fp32"])
    accuracy.add_argument("--seed", type=int, default=0)

    throughput = sub.add_parser("throughput", help="modelled GPU throughput")
    throughput.add_argument("--methods", default="DGEMM,OS II-fast-15,ozIMMU_EF-9")
    throughput.add_argument("--gpus", default="A100,GH200,RTX5080")
    throughput.add_argument("--sizes", default="1024,4096,16384")
    throughput.add_argument("--target", default="fp64", choices=["fp64", "fp32"])

    gemm = sub.add_parser("gemm", help="multiply two .npy matrices with a chosen method")
    gemm.add_argument("a", help="path to A (.npy)")
    gemm.add_argument("b", help="path to B (.npy)")
    gemm.add_argument("--method", default="OS II-fast-15")
    gemm.add_argument("--precision", default="fp64", choices=["fp64", "fp32"])
    gemm.add_argument("--out", default=None, help="where to save the product (.npy)")
    gemm.add_argument(
        "--check", action="store_true", help="also report the error vs the high-precision reference"
    )

    serve = sub.add_parser(
        "serve",
        help="host the residue-GEMM service (or query a running one with --stats)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind / query address")
    serve.add_argument(
        "--port", type=int, default=7723, help="bind / query port (0 = pick a free one)"
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=256.0,
        help="prepared-operand cache budget in MiB (0 disables caching)",
    )
    _add_config_arguments(serve)
    _add_runtime_arguments(serve)
    serve.add_argument("--mode", default="fast", choices=["fast", "accurate"])
    serve.add_argument(
        "--max-batch", type=int, default=16, help="largest coalesced batch"
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="shed GEMM requests (HTTP 503 + Retry-After) once the "
        "coalescer backlog reaches this many queued requests (0 = never)",
    )
    serve.add_argument(
        "--stats",
        action="store_true",
        help="query a RUNNING server's /v1/stats and print it (does not serve)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the domain-aware static analyser (RPR0xx rules) over paths",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyse (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule-code prefixes to run (e.g. 'RPR01,RPR030')",
    )

    sub.add_parser(
        "selfcheck",
        help="print version/config and run a fast end-to-end correctness check",
    )
    return parser


def _parse_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_size(text: str) -> tuple:
    """Parse ``--size``: either ``n`` (square) or ``m,k,n``."""
    try:
        parts = [int(p) for p in _parse_list(text)]
    except ValueError:
        raise SystemExit(f"--size expects integers ('n' or 'm,k,n'), got {text!r}") from None
    if len(parts) == 1:
        return parts[0], parts[0], parts[0]
    if len(parts) == 3:
        return tuple(parts)
    raise SystemExit(f"--size expects 'n' or 'm,k,n', got {text!r}")


def _resolve_workers(parallel: int) -> int:
    """Map the CLI's ``--parallel 0`` (one worker per CPU) to a real count."""
    import os

    return parallel if parallel != 0 else max(1, os.cpu_count() or 1)


def _default_moduli(precision: str, moduli) -> "int | str":
    from .config import DEFAULT_MODULI_DGEMM, DEFAULT_MODULI_SGEMM

    if moduli is None:
        return DEFAULT_MODULI_DGEMM if precision == "fp64" else DEFAULT_MODULI_SGEMM
    if isinstance(moduli, str):
        key = moduli.strip().lower()
        if key == "auto":
            return "auto"
        try:
            return int(key)
        except ValueError:
            raise SystemExit(
                f"--moduli expects an integer or 'auto', got {moduli!r}"
            ) from None
    return moduli


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the :class:`~repro.config.Ozaki2Config` accuracy flags shared
    by ``run``, ``solve`` and ``serve``."""
    parser.add_argument("--precision", default="fp64", choices=["fp64", "fp32"])
    parser.add_argument(
        "--moduli",
        default=None,
        help="number of CRT moduli N, or 'auto' for accuracy-driven selection",
    )
    parser.add_argument(
        "--target-accuracy",
        type=float,
        default=None,
        help="relative accuracy target of --moduli auto (default: 1e-10 "
        "for fp64, 1e-5 for fp32)",
    )
    parser.add_argument(
        "--selection-model",
        default="calibrated",
        choices=["calibrated", "rigorous"],
        help="error model of --moduli auto: 'calibrated' (measured margins, "
        "rigorous fallback) or 'rigorous' (a-priori bound only)",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the worker-pool flags of ``run`` and ``serve``.  ``solve``
    has none: each of its products is one engine GEMV."""
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        help="workers for the residue GEMMs (0 = one per CPU)",
    )
    parser.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process", "auto"],
        help="worker pool backend: 'thread' (worker threads; a large "
        "conversion or accumulation bands its rows across them too), "
        "'process' (shared-memory worker processes), or 'auto' (per GEMM: "
        "processes when --parallel > 1 and its INT8 work N*m*k*n reaches "
        "repro.runtime.plan.PROCESS_MIN_MACS, threads otherwise)",
    )


def _config_from_args(args, **extra):
    """The :class:`~repro.config.Ozaki2Config` of the accuracy flags, plus
    ``extra`` fields."""
    from .config import Ozaki2Config

    return Ozaki2Config(
        precision=args.precision,
        num_moduli=_default_moduli(args.precision, args.moduli),
        target_accuracy=args.target_accuracy,
        selection_model=args.selection_model,
        **extra,
    )


def _runtime_from_args(args) -> dict:
    """The :class:`~repro.config.Ozaki2Config` fields of the worker-pool flags."""
    return {"parallelism": _resolve_workers(args.parallel), "executor": args.executor}


def _cmd_run(args) -> int:
    import contextlib
    import time

    from . import faults
    from .core.operand import prepare_a, prepare_b
    from .harness import format_table
    from .runtime import Scheduler, ozaki2_gemm_batched
    from .workloads import phi_pair

    m, k, n = _parse_size(args.size)
    config = _config_from_args(
        args, mode=args.mode, memory_budget_mb=args.memory_budget_mb, **_runtime_from_args(args)
    )
    batch = max(1, args.batch)
    pairs = [
        phi_pair(m, k, n, phi=args.phi, precision=args.precision, seed=args.seed + j)
        for j in range(batch)
    ]
    # --prepare-a / --prepare-b: every batch item shares one operand on that
    # side, converted exactly once (the LU / iterative-solver reuse pattern).
    if args.prepare_a:
        pairs = [(pairs[0][0], b) for _, b in pairs]
    if args.prepare_b:
        pairs = [(a, pairs[0][1]) for a, _ in pairs]

    # --inject-faults arms the seeded chaos plan for exactly the prepared +
    # batched execution below; the resilience layers must absorb every fire
    # and the results must still be bit-identical to a fault-free run.
    armed = (
        faults.inject(args.inject_faults, seed=args.fault_seed)
        if args.inject_faults
        else contextlib.nullcontext()
    )
    start = time.perf_counter()
    with armed as plan, Scheduler(
        parallelism=config.parallelism,
        executor=config.executor,
        max_pool_rebuilds=config.max_pool_rebuilds,
    ) as sched:
        As = [prepare_a(pairs[0][0], config)] * batch if args.prepare_a else [a for a, _ in pairs]
        Bs = [prepare_b(pairs[0][1], config)] * batch if args.prepare_b else [b for _, b in pairs]
        results = ozaki2_gemm_batched(
            As, Bs, config=config, return_details=True, scheduler=sched
        )
        calls = sched.health()["calls"]
    elapsed = time.perf_counter() - start

    rows = []
    for j, result in enumerate(results):
        row = {
            "item": j,
            "method": result.method_name,
            "shape": f"{m}x{k}x{n}",
            "k_blocks": result.num_k_blocks,
            "int8_gemms": result.ledger.matmul_calls,
            "seconds": result.phase_times.total,
        }
        if args.check:
            from .accuracy import max_relative_error, reference_gemm

            a, b = pairs[j]
            row["max_rel_error"] = max_relative_error(result.value, reference_gemm(a, b))
        rows.append(row)
    prepared = "".join(
        label for label, on in (("A", args.prepare_a), ("B", args.prepare_b)) if on
    )
    title = f"repro run (batch={len(results)}, parallel={config.parallelism}"
    if config.executor != "thread":
        title += f", executor={config.executor}"
    if prepared:
        title += f", prepared={prepared}"
    print(format_table(rows, float_format=".3e", title=title + ")"))
    mnk = 2.0 * m * k * n * len(results)
    print(f"wall time {elapsed:.3f} s  ({mnk / elapsed / 1e9:.2f} effective GFLOP/s)")
    ran = ", ".join(f"{name} x{count}" for name, count in calls.items() if count)
    print(f"backend: {ran}")
    if plan is not None:
        listing = ", ".join(
            f"{site} {stat['fired']}/{stat['hits']}"
            for site, stat in plan.report().items()
        )
        print(f"fault plan (seed {plan.seed}): fired/hits per site — {listing}")
        events: dict = {}
        for result in results:
            for event, count in result.fault_events.items():
                events[event] = events.get(event, 0) + count
        if events:
            survived = ", ".join(f"{k}={v}" for k, v in sorted(events.items()))
            print(f"recovered on the ledger: {survived}")
    return 0


def _cmd_solve(args) -> int:
    from .apps.solvers import SOLVERS, moduli_schedule_segments
    from .workloads import linear_system

    if (
        args.solver_opt is not None
        and args.solver_pos is not None
        and args.solver_opt != args.solver_pos
    ):
        print(
            f"error: conflicting solver selections: positional {args.solver_pos!r} "
            f"vs --solver {args.solver_opt!r}",
            file=sys.stderr,
        )
        return 2
    solver = args.solver_opt or args.solver_pos or "jacobi"
    if solver == "ir" and args.precond is not None:
        print(
            "error: --precond does not apply to the ir solver (iterative "
            "refinement corrects with its own LU factors); use jacobi, cg or pcg",
            file=sys.stderr,
        )
        return 2
    if solver != "pcg" and args.cond is not None:
        print(
            "warning: --cond only shapes pcg's ill-conditioned SPD family; "
            f"ignored for the {solver} solver",
            file=sys.stderr,
        )
    config = _config_from_args(args)
    if solver == "pcg":
        kind = "ill_spd"
    elif solver == "cg":
        kind = "spd"
    else:
        kind = "diag_dominant"
    a, b, x_true = linear_system(
        args.size, kind=kind, phi=args.phi, seed=args.seed,
        cond=args.cond if args.cond is not None else 1e4,
    )

    # The fp32 emulation's residual floor sits around 1e-7, so the fp64
    # default tolerance would make every fp32 solve "fail"; scale it.
    tol = args.tol if args.tol is not None else (
        1e-10 if args.precision == "fp64" else 1e-5
    )
    # --precond default: pcg factors ILU(0) unless told otherwise; the other
    # solvers stay unpreconditioned unless a kind is requested explicitly.
    precond = args.precond if args.precond is not None else (
        "ilu0" if solver == "pcg" else None
    )
    options = {"tol": tol, "max_iter": args.max_iter, "progressive": args.progressive}
    if solver != "ir":  # refinement corrects with its own LU factors
        options.update(precond=precond, omega=args.omega)
    result = SOLVERS[solver](a, b, config=config, **options)

    error = float(np.max(np.abs(result.value - x_true)))
    matvecs = max(1, result.iterations)
    print(f"repro solve: {result.method} on n={args.size} ({kind})")
    print(f"  converged            {result.converged} ({result.iterations} iterations)")
    print(f"  relative residual    {result.residual_norm:.3e}  (tol {tol:.1e})")
    print(f"  max |x - x_true|     {error:.3e}")
    print(
        f"  prepare once         {result.prepare_seconds:.3e} s "
        f"(amortised {result.prepare_seconds / matvecs:.3e} s over {matvecs} matvecs)"
    )
    if result.precond != "none":
        print(
            f"  precondition once    {result.precond_seconds:.3e} s "
            f"({result.precond} factored before the iteration)"
        )
    if args.progressive and result.moduli_history:
        schedule = " -> ".join(
            f"N={c} x{i}" for c, i in moduli_schedule_segments(result.moduli_history)
        )
        print(f"  moduli schedule      {schedule}")
    print(f"  total wall time      {result.seconds:.3f} s")
    if not result.converged:
        print("error: solver did not reach the tolerance", file=sys.stderr)
        return 1
    return 0


def _cmd_lint(args) -> int:
    from .analysis import render_json, render_text, run_lint

    select = _parse_list(args.select) if args.select else ()
    findings, files_checked = run_lint(args.paths, select=select)
    if args.format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
        print(f"({files_checked} files checked)")
    return 1 if findings else 0


def _cmd_selfcheck(args) -> int:
    import platform

    import numpy

    from . import __version__
    from .accuracy import max_relative_error, reference_gemm
    from .config import Ozaki2Config
    from .core.gemm import ozaki2_gemm
    from .crt.constants import build_constant_table
    from .runtime import ozaki2_gemm_batched
    from .workloads import phi_pair

    print(f"repro {__version__}")
    print(f"python {platform.python_version()}  numpy {numpy.__version__}")

    table = build_constant_table(15, 64)
    print(f"constant table: N=15, P has {table.P_int.bit_length()} bits")

    a, b = phi_pair(96, 128, 80, phi=0.5, seed=0)
    checks = []

    from .engines.int8 import Int8MatrixEngine

    # The INT8 engine runs float32 SGEMM on k-chunks of 1024, relying on a
    # BLAS that sums integers up to 2**24 exactly: probe that very edge.
    probe = Int8MatrixEngine().matmul(
        np.full((2, 1024), -128, dtype=np.int8), np.full((1024, 2), -128, dtype=np.int8)
    )
    checks.append(
        (
            "INT8 engine SGEMM exact at k=1024 (all -128: sum 2**24)",
            bool(np.all(probe == 2**24)),
            "",
        )
    )

    from .core.accumulation import accumulate_residue_products, reconstruct_crt
    from .crt.residues import residues_to_int8, uint8_residues_stack
    from .utils.fma import fma

    # The residue kernels rely on a correctly rounded float64 multiply and
    # on exact integer floor-division: probe their edges against exact
    # Python-integer residues and the software FMA.
    moduli = build_constant_table(20, 64).moduli
    edge = np.array([2.0**93 - 2.0**40, -(2.0**93 - 2.0**40), 128.0 * (2**52 + 1), -128.0])
    centred = [[(int(x) + p // 2) % p - p // 2 for x in edge] for p in moduli]
    checks.append(
        (
            "conversion exact at |x| = 2**93 - 2**40 and the p = 256 tie",
            residues_to_int8(edge, moduli).tolist() == centred,
            "",
        )
    )
    lowest = uint8_residues_stack(np.full((len(moduli), 1, 1), -(2**31), dtype=np.int32), moduli)
    checks.append(
        (
            "int32 mod exact at -2**31",
            lowest.ravel().tolist() == [-(2**31) % p for p in moduli],
            "",
        )
    )
    probe_rng = np.random.default_rng(0)
    signs, exponents = probe_rng.choice([-1, 1], 256), probe_rng.uniform(60, 100, 256)
    values = [int(sign * 2.0**e) for sign, e in zip(signs, exponents, strict=True)]
    stack = np.array([[v % p for v in values] for p in table.moduli], dtype=np.int32)[:, :, None]
    c1, c2 = accumulate_residue_products(stack, table)
    q = np.rint(table.Pinv * c1)
    software = fma(-table.P2, q, fma(-table.P1, q, c1) + c2)
    rebuilt = reconstruct_crt(c1, c2, table)
    checks.append(
        (
            "CRT reconstruction bit-identical to the software FMA "
            "(log-uniform CRT values)",
            bool(np.array_equal(rebuilt.view(np.uint64), software.view(np.uint64))),
            "",
        )
    )

    serial = ozaki2_gemm(a, b, config=Ozaki2Config(parallelism=1))
    err = max_relative_error(serial, reference_gemm(a, b))
    checks.append(("serial OS II-fast-15 error < 1e-12", err < 1e-12, f"{err:.3e}"))

    parallel = ozaki2_gemm(a, b, config=Ozaki2Config(parallelism=2))
    checks.append(
        ("parallel result bit-identical", bool(np.array_equal(serial, parallel)), "")
    )

    process = ozaki2_gemm(
        a, b, config=Ozaki2Config(parallelism=2, executor="process")
    )
    checks.append(
        (
            "process-executor result bit-identical",
            bool(np.array_equal(serial, process)),
            "",
        )
    )

    tiled = ozaki2_gemm(a, b, config=Ozaki2Config(memory_budget_mb=0.25))
    checks.append(("tiled result bit-identical", bool(np.array_equal(serial, tiled)), ""))

    from .runtime import TileSource, live_segment_names

    with TileSource() as tiles:
        ooc_config = Ozaki2Config(
            parallelism=2, executor="process", memory_budget_mb=0.25
        )
        out_of_core = ozaki2_gemm(
            tiles.prepare_a(a, ooc_config),
            tiles.prepare_b(b, ooc_config),
            config=ooc_config,
        )
        # Staging under num_moduli="auto" selects the count every in-core
        # route selects, so the staged operand multiplies without re-deriving.
        auto = Ozaki2Config(num_moduli="auto")
        out_of_core_auto = ozaki2_gemm(tiles.prepare_a(a, auto), b, config=auto)
    checks.append(
        (
            "out-of-core streamed tiles bit-identical",
            bool(np.array_equal(serial, out_of_core)),
            "",
        )
    )
    checks.append(
        (
            "out-of-core auto-N bit-identical",
            bool(np.array_equal(ozaki2_gemm(a, b, config=auto), out_of_core_auto)),
            "",
        )
    )
    checks.append(
        (
            "no leaked shared-memory segments",
            not live_segment_names(),
            "",
        )
    )

    batched = ozaki2_gemm_batched([a, a], [b, b], config=Ozaki2Config(parallelism=2))
    checks.append(
        (
            "batched results bit-identical",
            all(np.array_equal(serial, c) for c in batched),
            "",
        )
    )

    from .core.operand import prepare_a, prepare_b

    prepared = ozaki2_gemm(prepare_a(a), prepare_b(b), config=Ozaki2Config(parallelism=1))
    checks.append(
        ("prepared-operand result bit-identical", bool(np.array_equal(serial, prepared)), "")
    )

    from .core.gemv import prepared_gemv

    v = b[:, 0]
    prep = prepare_a(a)
    gemv_fast = prepared_gemv(prep, v, config=Ozaki2Config())
    gemv_gemm = ozaki2_gemm(prep, v[:, None], config=Ozaki2Config())
    checks.append(
        (
            "residue-GEMV path bit-identical to n=1 GEMM route",
            bool(np.array_equal(gemv_fast, gemv_gemm.ravel())),
            "",
        )
    )

    # At N = 10 a prepared 300x1024 A side keeps a C-order A' and line 6
    # runs as FP64 products on row panels of it (128, 128 and 44 rows) on the
    # BLAS engine; the integer reference engine runs the INT8 route on the
    # same operand.
    n10 = Ozaki2Config(num_moduli=10)
    a10, v10 = phi_pair(300, 1024, 1, phi=0.5, seed=1)
    prep10 = prepare_a(a10, n10)
    fp64_route = prepared_gemv(
        prep10, v10[:, 0], n10, Int8MatrixEngine(), return_details=True
    )
    int8_route = prepared_gemv(
        prep10, v10[:, 0], n10, Int8MatrixEngine(use_blas=False), return_details=True
    )
    checks.append(
        (
            "prepared GEMV FP64 route (row panels) bit-identical to the INT8 route",
            prep10._a_prime is not None
            and prep10._a_prime.flags.c_contiguous
            and fp64_route.value.tobytes() == int8_route.value.tobytes()
            and fp64_route.ledger.as_dict() == int8_route.ledger.as_dict(),
            "",
        )
    )

    accurate_cfg = Ozaki2Config(mode="accurate", parallelism=1)
    accurate_fresh = ozaki2_gemm(a, b, config=accurate_cfg)
    accurate_prepared = ozaki2_gemm(
        prepare_a(a, config=accurate_cfg),
        prepare_b(b, config=accurate_cfg),
        config=accurate_cfg,
    )
    checks.append(
        (
            "accurate-mode prepared operands bit-identical to fresh prepare",
            bool(np.array_equal(accurate_fresh, accurate_prepared)),
            "",
        )
    )

    auto = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli="auto"), return_details=True)
    auto_fixed = ozaki2_gemm(a, b, config=Ozaki2Config(num_moduli=auto.config.num_moduli))
    checks.append(
        (
            f"auto moduli selection (N={auto.config.num_moduli}) bit-identical "
            "to fixed N",
            bool(np.array_equal(auto.value, auto_fixed)),
            "",
        )
    )

    rigorous = ozaki2_gemm(
        a,
        b,
        config=Ozaki2Config(num_moduli="auto", selection_model="rigorous"),
        return_details=True,
    )
    selection = auto.moduli_selection
    checks.append(
        (
            f"calibrated selection (N={auto.config.num_moduli}, decided by "
            f"{selection.decided_by}) never above rigorous "
            f"(N={rigorous.config.num_moduli}), bound met",
            auto.config.num_moduli <= rigorous.config.num_moduli
            and auto.bound_met
            and rigorous.bound_met,
            "",
        )
    )

    from . import faults

    # The site fires inside the worker processes (per-process counters), so
    # the parent-side evidence is the ledger's task_retry histogram.
    with faults.inject("worker.task_error:times=1", seed=7):
        injected = ozaki2_gemm(
            a, b, config=Ozaki2Config(parallelism=2, executor="process"),
            return_details=True,
        )
    checks.append(
        (
            "fault injection (worker task error) recovered bit-identically",
            bool(np.array_equal(serial, injected.value))
            and injected.fault_events.get("task_retry", 0) >= 1,
            "",
        )
    )

    with faults.inject("pool.spawn:times=99", seed=7):
        degraded = ozaki2_gemm(
            a, b, config=Ozaki2Config(
                parallelism=2, executor="process", max_pool_rebuilds=0
            ),
            return_details=True,
        )
    checks.append(
        (
            "fault injection (pool spawn) degraded to threads, bit-identical "
            "and on the ledger",
            bool(np.array_equal(serial, degraded.value))
            and degraded.degraded
            and degraded.fault_events.get("degraded_to_thread", 0) >= 1,
            "",
        )
    )

    from .session import Session
    from .workloads import ill_conditioned_spd_matrix

    spd = ill_conditioned_spd_matrix(48, cond=1e3, seed=0)
    rhs = spd @ np.ones(48)
    with Session(Ozaki2Config()) as session:
        cold = session.solve(spd, rhs, method="pcg", precond="ilu0")
        warm = session.solve(spd, rhs, method="pcg", precond="ilu0")
        misses = session.cache.stats()["misses"]
    checks.append(
        (
            "session preconditioner cache: warm PCG+ILU(0) bit-identical to "
            "cold, factored once",
            bool(np.array_equal(cold.value, warm.value))
            and cold.residual_history == warm.residual_history
            and cold.precond_seconds > 0.0
            and warm.precond_seconds == 0.0
            and misses == 2,  # the operand and the factors, on the cold solve
            "",
        )
    )

    from pathlib import Path

    from .analysis import run_lint

    package_root = Path(__file__).resolve().parent
    lint_findings, lint_files = run_lint([package_root])
    checks.append(
        (
            "repro lint clean on installed package",
            not lint_findings,
            f"{len(lint_findings)} findings in {lint_files} files",
        )
    )

    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"  [{status:>4}] {name}{suffix}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def _cmd_figures(args) -> int:
    from .harness import (
        figure1,
        figure3_dgemm,
        figure3_sgemm,
        figure4,
        figure5,
        figure6,
        figure7,
        figure8,
        figure9,
        headline_claims,
    )

    quick = not args.full
    registry = {
        "1": lambda: figure1(),
        "3d": lambda: figure3_dgemm(quick=quick),
        "3s": lambda: figure3_sgemm(quick=quick),
        "4": lambda: figure4(quick=quick),
        "5": lambda: figure5(quick=quick),
        "6": lambda: figure6(quick=quick),
        "7": lambda: figure7(quick=quick),
        "8": lambda: figure8(quick=quick),
        "9": lambda: figure9(quick=quick),
        "headline": lambda: headline_claims(),
    }
    selected = list(registry) if args.only is None else _parse_list(args.only)
    for key in selected:
        if key not in registry:
            print(f"unknown figure id {key!r}; known: {sorted(registry)}", file=sys.stderr)
            return 2
        print(registry[key]().render())
        print()
    return 0


def _cmd_accuracy(args) -> int:
    from .harness import accuracy_sweep, format_table

    rows = accuracy_sweep(
        methods=_parse_list(args.methods),
        phis=[float(x) for x in _parse_list(args.phi)],
        ks=[int(x) for x in _parse_list(args.k)],
        m=args.m,
        n=args.n,
        precision=args.precision,
        seed=args.seed,
    )
    print(format_table(rows, float_format=".3e", title="accuracy sweep"))
    return 0


def _cmd_throughput(args) -> int:
    from .harness import format_table, throughput_sweep

    rows = throughput_sweep(
        methods=_parse_list(args.methods),
        gpus=_parse_list(args.gpus),
        sizes=[int(x) for x in _parse_list(args.sizes)],
        target=args.target,
    )
    print(format_table(rows, float_format=".4g", title="modelled throughput (TFLOPS)"))
    return 0


def _cmd_gemm(args) -> int:
    from .baselines.registry import get_method

    a = np.load(args.a)
    b = np.load(args.b)
    spec = get_method(args.method, target=args.precision)
    c = spec(a, b)
    if args.out:
        np.save(args.out, c)
        print(f"saved {c.shape} product to {args.out}")
    if args.check:
        from .accuracy import max_relative_error, reference_gemm

        err = max_relative_error(c, reference_gemm(a, b))
        print(f"max relative error vs reference: {err:.3e}")
    if not args.out and not args.check:
        print(f"product shape {c.shape}, dtype {c.dtype}")
    return 0


def _print_serve_stats(stats: dict) -> None:
    """Render the /v1/stats document the way the other subcommands print."""
    cache = stats.get("cache", {})
    ledger = stats.get("ledger", {})
    coalescer = stats.get("coalescer", {})
    print(
        f"repro serve {stats.get('version', '?')} — {stats.get('method', '?')}, "
        f"up {float(stats.get('server_uptime_seconds', 0.0)):.1f} s, "
        f"{stats.get('requests', 0)} session requests"
    )
    print(
        "cache:     "
        f"{cache.get('entries', 0)} entries, "
        f"{cache.get('current_bytes', 0) / 1e6:.1f}/"
        f"{cache.get('capacity_bytes', 0) / 1e6:.1f} MB, "
        f"hits {cache.get('hits', 0)}, misses {cache.get('misses', 0)}, "
        f"evictions {cache.get('evictions', 0)}, "
        f"hit rate {100.0 * float(cache.get('hit_rate', 0.0)):.1f}%"
    )
    print(
        "coalescer: "
        f"{coalescer.get('requests', 0)} requests in "
        f"{coalescer.get('batches', 0)} batches "
        f"(largest {coalescer.get('largest_batch', 0)}, "
        f"mean {float(coalescer.get('mean_batch', 0.0)):.2f})"
    )
    print(
        "ledger:    "
        f"{ledger.get('matmul_calls', 0)} INT8 GEMMs, "
        f"{ledger.get('mac_ops', 0):.3e} MACs, "
        f"emulated calls {ledger.get('emulated_calls', {})}"
    )
    endpoints = stats.get("endpoint_requests", {})
    if endpoints:
        listing = ", ".join(f"{name}={count}" for name, count in sorted(endpoints.items()))
        print(f"endpoints: {listing}")


def _cmd_serve(args) -> int:
    if args.stats:
        from .service import ServiceClient

        client = ServiceClient(host=args.host, port=args.port, timeout=10.0)
        _print_serve_stats(client.stats())
        return 0

    from .service import ReproServer

    config = _config_from_args(args, mode=args.mode, **_runtime_from_args(args))
    server = ReproServer(
        config=config,
        host=args.host,
        port=args.port,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
        max_batch=args.max_batch,
        max_queue=args.max_queue,
    )
    print(
        f"repro serve listening on {server.host}:{server.port} "
        f"({config.method_name}, cache {args.cache_mb:.0f} MB) — Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "solve": _cmd_solve,
        "figures": _cmd_figures,
        "accuracy": _cmd_accuracy,
        "throughput": _cmd_throughput,
        "gemm": _cmd_gemm,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        from .errors import ReproError

        if isinstance(exc, ReproError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    raise SystemExit(main())
