"""``serve_mixed``: a ``ReproServer`` process under a mixed request stream.

The server (:mod:`perfbench.serve_entry`, fp64 N=15, one worker, an
operand cache of :data:`CACHE_BYTES`) runs in its own process; this process
drives it over two keep-alive connections of one ``ServiceClient``.  Every
sixth request of the seeded stream is::

    gemv  gemm_resident  gemv  gemm_new  gemv  gemm_resident

* ``gemv``: a resident 256×256 matrix (fingerprint hit) times a new vector;
* ``gemm_resident``: a resident 128×128 A times a new 128×16 B — the GEMMs
  the coalescer batches;
* ``gemm_new``: a never-seen 64×64 A times a new 64×16 B; with the small
  cache budget these inserts force evictions (cache writes beside reads).

Phase 1 is closed loop (each connection sends its next request when the
last one returns) for :data:`CLOSED_SHARE` of the run; ``ops_per_s`` and
``dgemm_gflops`` are medians over its one-second windows.  Phase 2 is open
loop at the fixed :data:`RATE_PER_S`, at least :data:`OPEN_LOOP_MIN`
requests; each latency is timed from when the request was due, and the
generator's own lateness is recorded.  ``op_p50_ms`` is the median of all
phase-2 latencies.  Their p99 is a per-layer metric: host stalls move it
between runs by more than an end-to-end bound allows.  Every response is
then checked bit for bit against an in-process ``Session``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import numpy as np
from repro import Session
from repro.config import Ozaki2Config
from repro.crt.adaptive import elementwise_error_bound
from repro.service.client import ServiceClient
from repro.workloads.generators import phi_matrix

from .common import err_ratio, peak_rss_mib, percentile, time_import
from .layers import layer_metrics
from .spans import Tracer, merge_summaries, summarize

RATE_PER_S = 100.0
OPEN_LOOP_MIN = 1000
CLOSED_SHARE = 0.4
CLOSED_WINDOW_S = 1.0
SMOKE_OPEN_LOOP = 50
CONNECTIONS = 2
CACHE_BYTES = 8 << 20
NUM_MODULI = 15
GEMV_N = 256
RESIDENT_A = 128
NEW_A = 64
B_COLS = 16
PATTERN = ("gemv", "gemm_resident", "gemv", "gemm_new", "gemv", "gemm_resident")
SETUP_REPEATS = 5
CHECK_ERR_EVERY = 25
HERE = pathlib.Path(__file__).resolve().parent


class Mix:
    """The seeded request stream; request ``i`` is the same on every call."""

    def __init__(self, seed: int, scale: int = 1) -> None:
        self.seed = seed
        self.gemv_n, self.resident, self.new = GEMV_N // scale, RESIDENT_A // scale, NEW_A // scale
        rng = np.random.default_rng([seed, 0])
        self.gemv_mats = [phi_matrix(self.gemv_n, self.gemv_n, rng=rng) for _ in range(4)]
        self.resident_as = [phi_matrix(self.resident, self.resident, rng=rng) for _ in range(2)]

    def request(self, i: int) -> Tuple[str, np.ndarray, np.ndarray, float]:
        kind = PATTERN[i % len(PATTERN)]
        rng = np.random.default_rng([self.seed, 1, i])
        turn = i // len(PATTERN)
        if kind == "gemv":
            a = self.gemv_mats[turn % len(self.gemv_mats)]
            return kind, a, rng.standard_normal(self.gemv_n), 2.0 * self.gemv_n**2
        if kind == "gemm_resident":
            a = self.resident_as[turn % len(self.resident_as)]
        else:
            a = phi_matrix(self.new, self.new, rng=rng)
        b = phi_matrix(a.shape[1], B_COLS, rng=rng)
        return kind, a, b, 2.0 * a.shape[0] * a.shape[1] * B_COLS


def _call(target, kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One request on a ``ServiceClient`` or the same call on a ``Session``."""
    if kind == "gemv":
        return np.asarray(target.gemv(a, b).value)
    return np.asarray(target.gemm(a, b).value)


def _digest(value: np.ndarray) -> str:
    value = np.ascontiguousarray(value)
    return f"{value.dtype}{value.shape}" + hashlib.blake2b(
        value.tobytes(), digest_size=16
    ).hexdigest()


class CountingClient(ServiceClient):
    """``ServiceClient`` that counts re-sent requests."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.retries = 0
        self._retry_lock = threading.Lock()

    def _count_retry(self) -> None:
        with self._retry_lock:
            self.retries += 1

    def _sleep_before_retry(self, *args, **kwargs):  # transport error or 503
        self._count_retry()
        return super()._sleep_before_retry(*args, **kwargs)

    def _unlearn(self, *args, **kwargs):  # evicted operand: resent inline
        self._count_retry()
        return super()._unlearn(*args, **kwargs)


class ServerProcess:
    """The :mod:`perfbench.serve_entry` child and its command pipe."""

    def __init__(self, trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve_entry.py"),
             "--cache-bytes", str(CACHE_BYTES), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.port = self._read()["port"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process exited with {self.proc.poll()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> None:
        """Close the server's input, which stops it, and wait for the exit."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Records:
    """Completed requests of one phase, appended from the sender threads."""

    def __init__(self) -> None:
        self.done: List[Tuple[int, str, float, float, float]] = []
        self.failed: List[int] = []
        self.late: List[float] = []
        # ServiceClient memoises fingerprints by id(array); an operand freed
        # mid-run could hand its id, and so a stale fingerprint, to the next
        # request's operand.  Keeping every operand alive for the pass rules
        # that out.
        self.operands: List[Tuple[np.ndarray, np.ndarray]] = []


def _send(client, mix: Mix, i: int, due: float, records: Records, tracer) -> None:
    kind, a, b, flops = mix.request(i)
    records.operands.append((a, b))
    if due > 0.0:
        delay = due - time.perf_counter()
        if delay > 0.0:
            time.sleep(delay)
    sent = time.perf_counter()
    span = tracer.open("request") if tracer else None
    try:
        value = _call(client, kind, a, b)
    except Exception:  # failed or refused: counted against attempted
        records.failed.append(i)
        return
    finally:
        if tracer:
            tracer.close(span)
    done = time.perf_counter()
    if due > 0.0:
        records.late.append(sent - due)
    records.done.append((i, _digest(value), done - (due if due > 0.0 else sent), flops, done))


def _in_threads(worker) -> None:
    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(client, mix: Mix, first: int, seconds: float, tracer) -> Tuple[Records, float, int]:
    """Phase 1; returns the records, the start time and the next index."""
    records = Records()
    counter = itertools.count(first)
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        while time.perf_counter() < stop_at:
            with lock:
                i = next(counter)
            _send(client, mix, i, 0.0, records, tracer)

    _in_threads(worker)
    with lock:
        return records, start, next(counter)


def open_loop(client, mix: Mix, first: int, count: int, tracer) -> Records:
    records = Records()
    counter = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                j = next(counter)
            if j >= count:
                return
            _send(client, mix, first + j, start + j / RATE_PER_S, records, tracer)

    _in_threads(worker)
    return records


def _set_up(mix: Mix, trace: bool, seed: int):
    """Server boot until ``/v1/health`` answers, then the resident uploads."""
    server = ServerProcess(trace)
    try:
        client = CountingClient(port=server.port, timeout=60.0, retry_seed=seed)
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                client.health()
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)
        for matrix in mix.gemv_mats + mix.resident_as:
            client.prepare(matrix, side="A")
        warm = np.random.default_rng([seed, 2])
        client.gemv(mix.gemv_mats[0], warm.standard_normal(mix.gemv_n))
        client.gemm(mix.resident_as[0], warm.standard_normal((mix.resident, B_COLS)))
    except BaseException:
        server.stop()
        raise
    return server, client


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    def diff(*path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return float((b or 0) - (a or 0))

    faults_before = sum(before["ledger"]["fault_events"].values())
    faults_after = sum(after["ledger"]["fault_events"].values())
    batches = diff("coalescer", "batches")
    return {
        "hits": diff("cache", "hits"),
        "misses": diff("cache", "misses"),
        "evictions": diff("cache", "evictions"),
        "items_per_batch": diff("coalescer", "requests") / batches if batches else 0.0,
        "shed": diff("endpoint_requests", "shed"),
        "deadline": diff("endpoint_requests", "deadline"),
        "matmul_calls": diff("ledger", "matmul_calls"),
        "mac_ops": diff("ledger", "mac_ops"),
        "fault_events": float(faults_after - faults_before),
    }


def _pass(client, mix, first, seconds, tracer, open_min=OPEN_LOOP_MIN):
    """Phase 1 then phase 2; returns (closed, closed start, open, next index)."""
    closed, start, first = closed_loop(client, mix, first, CLOSED_SHARE * seconds, tracer)
    count = max(open_min, int(RATE_PER_S * (1.0 - CLOSED_SHARE) * seconds))
    opened = open_loop(client, mix, first, count, tracer)
    return closed, start, opened, first + count


def _closed_rates(records: Records, start: float) -> Tuple[float, float]:
    """Median over whole windows of (requests/s, fp64 GFLOP/s)."""
    windows: Dict[int, List[float]] = {}
    for _, _, _, flops, done in records.done:
        windows.setdefault(int((done - start) // CLOSED_WINDOW_S), []).append(flops)
    whole = [windows[w] for w in sorted(windows)[:-1]] or list(windows.values())
    return (float(np.median([len(w) / CLOSED_WINDOW_S for w in whole])),
            float(np.median([sum(w) / CLOSED_WINDOW_S / 1e9 for w in whole])))


def _verify(mix: Mix, phases: List[Records]) -> Tuple[int, List[float]]:
    """Bit-for-bit check of every response against an in-process Session."""
    wrong, ratios = 0, []
    with Session(Ozaki2Config.for_dgemm(num_moduli=NUM_MODULI), cache_bytes=CACHE_BYTES) as local:
        for records in phases:
            for i, digest, _, _, _ in sorted(records.done):
                kind, a, b, _ = mix.request(i)
                value = _call(local, kind, a, b)
                if _digest(value) != digest:
                    wrong += 1
                if i % CHECK_ERR_EVERY == 0:
                    b2 = b[:, None] if b.ndim == 1 else b
                    bound = elementwise_error_bound(
                        a.shape[1], float(np.max(np.abs(a))), float(np.max(np.abs(b))),
                        NUM_MODULI,
                    )
                    ratio = err_ratio(value.reshape(a.shape[0], -1), a, b2, bound,
                                      np.arange(a.shape[0]))
                    ratios.append(ratio)
                    wrong += int(not ratio <= 1.0)
    return wrong, ratios


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        ceilings: Dict[str, float]) -> Dict[str, object]:
    mix = Mix(seed, scale=4 if smoke else 1)
    open_min = SMOKE_OPEN_LOOP if smoke else OPEN_LOOP_MIN
    repeats = 1 if smoke else SETUP_REPEATS
    setups = []
    server = client = None
    for rep in range(repeats):
        import_seconds = time_import()
        if server is not None:
            client.close()
            server.stop()
        start = time.perf_counter()
        server, client = _set_up(mix, trace, seed)
        setups.append(import_seconds + time.perf_counter() - start)

    client_tracer = Tracer() if trace else None
    try:
        stats_before = client.stats()
        closed, closed_start, opened, first = _pass(client, mix, 0, seconds, None, open_min)
        stats_after = client.stats()
        if trace:
            client_tracer.install(only=("repro.service.client",))
            server.command("trace on")
            client_tracer.enabled = True
            t_closed, _, t_opened, _ = _pass(client, mix, first, seconds, client_tracer, open_min)
            client_tracer.enabled = False
            server_trace = server.command("trace off")
            traced_stats = _stats_delta(stats_after, client.stats())
    finally:
        if client_tracer:
            client_tracer.uninstall()
        client.close()
        server.stop()

    phases = [closed, opened] + ([t_closed, t_opened] if trace else [])
    wrong, ratios = _verify(mix, phases)
    attempted = sum(len(p.done) + len(p.failed) for p in phases)
    failed = sum(len(p.failed) for p in phases) + wrong
    latencies = [entry[2] for entry in opened.done]
    ops_per_s, gflops = _closed_rates(closed, closed_start)
    details = {
        "wrong_outputs": wrong, "request_errors": failed - wrong,
        "rate_per_s": RATE_PER_S, "connections": CONNECTIONS, "cache_bytes": CACHE_BYTES,
        "setup_samples": len(setups), "closed_loop_requests": len(closed.done),
        "open_loop_requests": len(opened.done), "percentile_samples": len(latencies),
        "generator_late_ms": {"p50": 1e3 * percentile(opened.late, 50),
                              "p99": 1e3 * percentile(opened.late, 99),
                              "max": 1e3 * max(opened.late)},
        "stats": _stats_delta(stats_before, stats_after),
    }
    if not trace:
        metrics = {
            "setup_s": float(np.median(setups)),
            "op_p50_ms": 1e3 * percentile(latencies, 50),
            "ops_per_s": ops_per_s,
            "dgemm_gflops": gflops,
            # The stopped (reaped) server is the largest child process.
            "peak_rss_mb": peak_rss_mib(),
        }
        return {"metrics": metrics, "attempted": attempted, "failed": failed,
                "details": details}

    summary = merge_summaries(server_trace["summary"], summarize(client_tracer.spans))
    ops = len(t_closed.done) + len(t_opened.done)
    traced_latencies = [entry[2] for entry in t_opened.done]
    hits, misses = traced_stats["hits"], traced_stats["misses"]
    extras = {
        "op_p99_ms": 1e3 * percentile(latencies, 99),
        "fail_ratio": failed / attempted,
        "err_ratio_max": max(ratios),
        "int8.gemm_calls": traced_stats["matmul_calls"] / ops,
        "int8.macs": traced_stats["mac_ops"] / ops,
        "runtime.fault_events": traced_stats["fault_events"] + details["stats"]["fault_events"],
        "adaptive.num_moduli_mean": float(NUM_MODULI),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": traced_stats["evictions"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "coalescer.items_per_batch": traced_stats["items_per_batch"],
        "server.shed": traced_stats["shed"],
        "server.deadline_exceeded": traced_stats["deadline"],
        "client.retries": float(client.retries),
        "serve.generator_late_p99_ms": 1e3 * percentile(t_opened.late, 99),
        "trace.overhead_ms": 1e3 * (percentile(traced_latencies, 50) - percentile(latencies, 50)),
    }
    details["wrappers_missing"] = server_trace["missing"] + client_tracer.missing
    return {"metrics": layer_metrics(summary, ceilings, extras), "attempted": attempted,
            "failed": failed, "details": details}
