"""Smoke test of the benchmark itself, at tiny width and length.

    python3 -m pytest -q perfbench/test_smoke.py

Runs both workloads traced and untraced in a few seconds each and checks
the output contract, the result file, and that the tracer leaves no
wrapper behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True, proc.stdout[-2000:]
    assert last["failed"] == 0 and last["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(last["metrics"]) == sorted(s["name"] for s in specs)
    for spec in specs:
        metric = last["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(last["metrics"][s["name"]]["value"] > 0 for s in specs)

    result = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}-tiny.json").read_text())
    assert result["correct"] is True and result["fail_rate"] == 0
    env = result["environment"]
    assert env["TASTAS_THREADS"] == "unset" and env["nproc"] >= 1
    assert env["numpy"] and env["blas"] and set(env["threads"].values()) == {"1"}
    assert not list((ROOT / ".perfbench").glob("work-*")), "work directory left behind"


def test_tracer_restores_every_attribute():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tastas.pipeline  # noqa: F401  (loads every module the tracer patches)
        from tastas.numerics import ops
        from tracer import Tracer, wrapped_attributes

        original = ops.bilstm_layer
        tracer = Tracer()
        tracer.install()
        assert ops.bilstm_layer is not original
        assert "tastas.numerics.ops.bilstm_layer" in wrapped_attributes()
        tracer.restore()
        assert ops.bilstm_layer is original
        assert wrapped_attributes() == []
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "train-1s", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
