"""Tests of the benchmark itself, on smoke-size inputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 11

worker.import_package()
from workloads import WORKLOADS  # noqa: E402


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    return out


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_lists_what_the_runs_emit():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END
    assert all(run.unit_of(n) == u for n, u in _units("per_layer").items())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke_run_emits_every_end_to_end_metric(workload):
    out = _run(workload, 0)
    assert {n: m["unit"] for n, m in out["metrics"].items()} \
        == _units("end_to_end")
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_emits_every_per_layer_metric(workload):
    out = _run(workload, 1)
    assert {n: m["unit"] for n, m in out["metrics"].items()} \
        == _units("per_layer")
    record = json.loads((run.OUT / f"result-{workload}-seed{SEED}-trace1.json"
                         ).read_text())
    plain, traced = record["untraced"]["cycles"], record["traced"]["cycles"]
    # tracing observes the package; it must not change a single result
    assert [c["checks"] for c in plain] == [c["checks"] for c in traced]
    assert [c["stderr"] for c in plain] == [c["stderr"] for c in traced]


def test_untraced_run_installs_no_wrappers(tmp_path):
    work = WORKLOADS["exact-jets"](SEED, True, tmp_path)
    assert worker.run_cycles(work, 0, trace=False)["wrapped"] == 0
    traced = worker.run_cycles(work, 0, trace=True)
    assert traced["wrapped"] == len(tracing.targets())
    assert tracing.wrapped_count() == 0


def _non_timing(result: dict) -> list:
    return [(c["checks"], c["stderr"],
             {k: v for k, v in c["layers"].items() if not k.endswith("_s")})
            for c in result["cycles"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_non_timing_output(workload, tmp_path):
    results = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        work = WORKLOADS[workload](SEED, True, workdir)
        results.append(_non_timing(worker.run_cycles(work, 0, trace=True)))
    assert results[0] == results[1]
    counts = results[0][0][2]
    assert counts["trace.spans"] > 0
