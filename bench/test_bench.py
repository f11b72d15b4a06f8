"""Smoke test for the benchmark itself, at tiny sizes: `python -m pytest bench -q`."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "ensemble-lorenz": {"steps": 40, "ensemble": 2000},
    "sigma-lorenz": {"steps": 20},
    "linear-4x2": {"steps": 20},
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "WORKLOADS", {n: dataclasses.replace(w, **TINY[n]) for n, w in run.WORKLOADS.items()})


def run_bench(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_spec_names_the_benchmarks_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_) in spans.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload in run.WORKLOADS:
        _, result = run_bench(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_every_traced_layer_that_exists_records_spans(tiny, capsys):
    present, seen = set(), {}
    for workload in run.WORKLOADS:
        info, result = run_bench(capsys, workload, 1)
        assert abs(result["metrics"]["trace.self_sum_ratio"]["value"] - 1.0) < 0.01
        for layer, summary in info["trace"]["layers"].items():
            if summary != "absent":
                present.add(layer)
                seen[layer] = seen.get(layer, 0) + summary["spans"]
    assert present == set(spans.HOOKS)
    assert all(seen[layer] > 0 for layer in present), seen


def test_a_renamed_function_is_reported_absent(tiny, capsys, monkeypatch):
    monkeypatch.setitem(spans.HOOKS, "ukf", ("ukf", ("ukf_step", "make_sigma_set_renamed")))
    monkeypatch.setitem(spans.HOOKS, "gone", ("no_such_module", ("step",)))
    info, result = run_bench(capsys, "sigma-lorenz", 1)
    assert result["correct"] is True
    assert info["trace"]["layers"]["gone"] == "absent"
    assert info["trace"]["layers"]["ukf"]["spans"] > 0
    assert {"ukf.make_sigma_set_renamed", "no_such_module.step"} <= set(info["trace"]["absent"])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sigma-lorenz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
