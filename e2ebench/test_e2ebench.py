"""Tests of the benchmark itself.

A tiny-size smoke of every workload (two compute ops each, untraced and
traced) and the checker's failure accounting.  Run from the repository
root: ``python3 -m pytest e2ebench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.pipeline.connectome as connectome_module
from e2ebench import run, workloads
from e2ebench.metrics import END_TO_END, LAYERS, PER_LAYER, UNGATED
from e2ebench.workloads import TINY
from repro.pipeline import run_workflow
from repro.telemetry import MetricsRegistry, use_registry

HERE = Path(__file__).resolve().parent


def _run(capsys, workload, trace=0, max_ops=2):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        size=TINY,
        max_ops=max_ops,
    )
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(capsys, workload):
    code, doc, out = _run(capsys, workload)
    assert code == 0, out
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 2
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == END_TO_END
    for name in (*END_TO_END, *UNGATED):
        # printed by name, with unit and count; hits only where there are any
        printed = f"  {name} " in out
        assert printed == (name != "hit_p50_s" or workload == "served")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_smoke_emits_every_layer_metric(capsys, workload):
    code, doc, out = _run(capsys, workload, trace=1, max_ops=4)
    assert code == 0, out
    metrics = {name: m["value"] for name, m in doc["metrics"].items()}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == PER_LAYER
    assert metrics["trace.max_residual_s"] <= 1e-6
    assert metrics["trace.ops"] >= 2
    layers = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    if workload == "atlas_sweep":
        assert layers["mcmc"] == 0 and layers["tracking"] == 0
    if workload == "served":
        assert layers["mcmc"] == 0 and layers["connectome"] == 0
        assert layers["tracking"] > 0 and metrics["service.handoff_s"] > 0
    else:
        assert max(layers, key=layers.get) == "connectome"


def test_benchmark_json_names_every_metric_with_its_unit():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_tampered_counts_matrix_is_a_failed_op(tmp_path, monkeypatch):
    workload = workloads.ColdPipeline(3, TINY, tmp_path)
    try:
        workload.setup()
        compute = connectome_module.compute_connectome

        def tampered(*args, **kwargs):
            result = compute(*args, **kwargs)
            result.counts[0, -1] += 1
            return result

        monkeypatch.setattr(connectome_module, "compute_connectome", tampered)
        ops = workload.run(0, max_ops=2)
    finally:
        workload.close()
    assert [op.kind for op in ops] == ["compute", "compute"]
    assert all("not symmetric" in op.error for op in ops)


def test_forced_store_hit_fails_cold_pipeline(capsys, monkeypatch):
    empty_store = workloads.ColdPipeline._store

    def stale_store(self, i):
        store = empty_store(self, i)
        if i >= 0:  # leave the set-up's warm-up op alone
            with use_registry(MetricsRegistry()):
                run_workflow(self._acquisition(i), spec=self.spec, store=store)
        return store

    monkeypatch.setattr(workloads.ColdPipeline, "_store", stale_store)
    code, doc, out = _run(capsys, "cold_pipeline")
    assert code != 0
    assert doc["correct"] is False
    assert doc["failed"] == doc["attempted"] == 2
    assert "sampling: expected store miss, got True" in out


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "served",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_scheduled_pause_runs_once(tmp_path):
    workload = workloads.AtlasSweep(3, TINY, tmp_path)
    calls = []
    try:
        workload.setup()
        # Both pause times lie past the window that two ops take.
        workload.pause_for(lambda: calls.append(len(calls)), [1e6, 2e6])
        ops = workload.run(0, max_ops=2)
    finally:
        workload.close()
    assert len(ops) == 2 and calls == [0, 1]
    assert workload.pauses == [] and workload.paused_s >= 0


def test_setup_only_prints_the_seconds_of_one_cold_set_up():
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cold_pipeline",
         "--seed", "1", "--seconds", "0", "--setup-only"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.split()[-1]) > 0
