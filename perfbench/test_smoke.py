"""Smoke tests of the benchmark itself (a few seconds per workload).

Run with ``python3 -m pytest perfbench/test_smoke.py`` from the repository
root; the repository's own test run does not collect this directory.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import PER_LAYER
from perfbench.run import END_TO_END, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _command(workload: str, trace: int):
    return [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.5", "--trace", str(trace), "--smoke"]


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    return subprocess.run(_command(workload, trace), cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def _session_members(sid: int):
    """``(pid, state)`` of every process, zombies included, in session ``sid``."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        try:
            fields = (entry / "stat").read_bytes().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append((int(entry.name), fields[0].decode()))
    return members


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_every_metric_and_workload():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_is_correct_and_complete(workload):
    result = _result(_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["gemm_serial", "serve_mixed"])
def test_traced_run_reports_every_layer(workload):
    result = _result(_run(workload, 1))
    assert result["correct"]
    assert list(result["metrics"]) == [name for name, _, _ in PER_LAYER]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["host.copy_gbs"] > 0 and metrics["host.blas64_gflops"] > 0
    assert metrics["runtime.fault_events"] == 0
    if workload == "gemm_serial":
        assert metrics["conversion.share"] > 0 and metrics["int8.gflops"] > 0
        assert metrics["trace.phase_share_gap"] < 0.05
    else:
        assert metrics["protocol.encode_ms"] > 0 and metrics["cache.hits"] > 0


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="needs /proc")
def test_leaves_no_process_behind():
    # The process executor's workers use shared memory, which starts
    # multiprocessing's resource tracker: the process most likely to outlive
    # the run, as an unreaped orphan.
    proc = subprocess.Popen(_command("gemm_par2", 0), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    out, err = proc.communicate(timeout=170)
    assert proc.returncode == 0, err
    assert json.loads(out.strip().splitlines()[-1])["correct"]
    assert _session_members(proc.pid) == []


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("gemm_serial", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
