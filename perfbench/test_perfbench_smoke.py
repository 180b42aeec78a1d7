"""Smoke test of the repository benchmark at its tiny (``--size smoke``) size.

Every workload runs untraced and traced through the command line.  Each run
must be correct and emit exactly the metrics ``BENCHMARK.json`` declares,
with their units; together the traced runs must cross every declared span.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.fixture(scope="module")
def traced_results():
    return {workload: _result(workload, 1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_runs_emit_every_per_layer_metric_and_cross_every_span(traced_results):
    declared = _declared("per_layer")
    for metrics in (result["metrics"] for result in traced_results.values()):
        assert {name: m["unit"] for name, m in metrics.items()} == declared
    never_called = [
        name
        for name in declared
        if name.endswith(".calls")
        and all(r["metrics"][name]["value"] == 0 for r in traced_results.values())
    ]
    assert never_called == []


def test_tracer_uninstall_restores_every_original():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer as tracing
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    from repro.fleet import trainer as fleet_trainer
    from repro.split.protocol import SplitTrainingProtocol

    originals = (
        SplitTrainingProtocol.__dict__["training_step"],
        fleet_trainer.encode_decode_stacked,
    )
    tracer = tracing.Tracer().install()
    try:
        assert tracing.installed_wrappers()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert (
        SplitTrainingProtocol.__dict__["training_step"],
        fleet_trainer.encode_decode_stacked,
    ) == originals


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
