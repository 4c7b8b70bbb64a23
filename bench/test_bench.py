"""Smoke test of the repo benchmark: every workload at a tiny scale.

Runs each workload once untraced and once traced, through the same sample
code a full run uses, and checks ``BENCHMARK.json`` against its limits.
"""

import json
import re
from pathlib import Path

import pytest

import compare
import run
from tracer import ROOT
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_samples():
    return {
        name: (run.run_sample(name, 2016, tiny=True),
               run.run_sample(name, 2016, traced=True, tiny=True))
        for name in WORKLOADS
    }


def test_every_workload_runs_and_tracing_changes_no_output(tiny_samples):
    for name, (plain, traced) in tiny_samples.items():
        assert plain["ok"], f"{name}: {plain['error']}"
        assert traced["ok"], f"{name}: {traced['error']}"
        assert traced["digest"] == plain["digest"], name


def test_layer_self_times_add_up_to_the_sample(tiny_samples):
    for name, (_plain, traced) in tiny_samples.items():
        total = sum(row["self_s"] for row in traced["layers"].values())
        assert total == pytest.approx(traced["run_s"], rel=0.02), name
        assert traced["layers"][ROOT]["calls"] == 1, name


def test_every_benchmark_metric_is_measured(tiny_samples):
    called = {layer for _plain, traced in tiny_samples.values()
              for layer, row in traced["layers"].items() if row["calls"]}
    named = {metric["name"].rsplit(".", 1)[0] for metric in SPEC["per_layer"]
             if metric["name"].endswith((".self_s", ".calls"))}
    assert named <= called
    produced = set(run.layer_values(tiny_samples["stream-resume"][1])) | {"trace.overhead"}
    assert {metric["name"] for metric in SPEC["per_layer"]} <= produced
    assert {metric["name"] for metric in SPEC["end_to_end"]} <= set(run.END_TO_END)


def test_benchmark_json_stays_within_its_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [metric["name"] for metric in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    for metric in metrics:
        assert unit.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {metric["name"]: metric["bound"] for metric in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    pairs = [(value, value * 0.9) for value in steady]
    assert compare.verdict(steady, [v * 1.2 for v in steady], [], 0.1, True)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.9 for v in steady], pairs, 0.1, True)[0] == "gain"
    assert compare.verdict(steady, [v * 0.9 for v in steady], pairs[:9], 0.1, True)[0] \
        == "unchanged"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0]
    assert compare.verdict(noisy, noisy, [], 0.1, True)[0] == "unresolved"
