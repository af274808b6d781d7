"""Benchmark of the ``repro`` package: one workload per invocation.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload gemm_serial --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``gemm_serial``    — raw fp64/fp32 emulated GEMMs, one thread;
* ``solve_prepared`` — CG / PCG+ILU(0) solves against a prepared matrix;
* ``serve_mixed``    — a ``ReproServer`` process driven over two
  keep-alive connections, closed loop then open loop at a fixed rate;
* ``gemm_par2``      — emulated GEMMs on the two-worker process executor.

The process pins OpenBLAS (and OpenMP/MKL) to one thread before NumPy is
first imported, imports ``repro`` from the checkout's ``src/`` and nowhere
else, and keeps temporary files under ``.bench_build/`` in the checkout.
Every process it starts, the library's own included, has ended and been
reaped when it exits (:mod:`perfbench.children`).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
host ceilings, repeats the workload with every layer wrapped
(:mod:`perfbench.spans`) and prints the per-layer metrics.  ``--smoke``
shrinks every workload to a few seconds for the benchmark's own tests.
The last line of standard output is the JSON result; the lines before it
repeat every metric with its unit, plus provenance and run details.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("gemm_serial", "solve_prepared", "serve_mixed", "gemm_par2")
BLAS_THREADS = "1"

#: ``(name, unit)`` of every end-to-end metric, in ``BENCHMARK.json`` order.
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("dgemm_gflops", "GFLOP/s"),
    ("peak_rss_mb", "MiB"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and one set-up, for the benchmark's own tests")
    return parser.parse_args(argv)


def _pin_environment() -> None:
    """Thread pinning, import path and temp dir, inherited by every child."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path[:0] = [str(SRC), str(ROOT)]


def _ceilings() -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "ceilings.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if "numpy" in sys.modules:
        print("error: numpy was imported before the BLAS threads were pinned",
              file=sys.stderr)
        return 2
    _pin_environment()

    from perfbench import children

    # Registered before the library (and multiprocessing) registers its own
    # exit handlers, so it runs after them, when nothing starts processes.
    children.become_subreaper()
    children.exit_on_sigterm()
    atexit.register(children.stop_all)

    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from perfbench import gemm, serve, solve
    from perfbench.common import provenance
    from perfbench.layers import PER_LAYER

    ceilings = _ceilings() if args.trace else {}
    runner = {"gemm_serial": gemm.run, "gemm_par2": gemm.run,
              "solve_prepared": solve.run, "serve_mixed": serve.run}[args.workload]
    outcome = runner(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.smoke, ceilings)

    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _ in PER_LAYER}
    metrics = {name: {"value": float(outcome["metrics"][name]), "unit": unit}
               for name, unit in units.items()}
    stamp = provenance({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    })
    print("provenance " + json.dumps(stamp))
    if ceilings:
        print("ceilings " + json.dumps(ceilings))
    print("details " + json.dumps(outcome["details"]))
    for name, entry in metrics.items():
        print(f"{name:44s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
