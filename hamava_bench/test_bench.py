"""Checks on the benchmark itself.  Run with ``pytest hamava_bench`` (~3 min).

Outside tier-1's ``testpaths`` on purpose: these run the whole benchmark
three times at ``--quick`` size.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from hamava_bench.layers import FILE_LAYER, LAYERS, RUNTIME_PACKAGES
from hamava_bench.run import HOST_METRICS, ROOT, load_declaration

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_quick(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "hamava_bench", "run.py"), "--quick", "--seconds", "1", "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])["workloads"]


@pytest.fixture(scope="module")
def declaration() -> dict:
    return load_declaration()


@pytest.fixture(scope="module")
def quick_runs() -> tuple:
    return run_quick(11), run_quick(11)


def test_declaration_is_within_the_contract(declaration):
    assert set(declaration) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    assert 1 <= declaration["run_seconds"] <= 60
    names = [entry["name"] for kind in ("workloads", "end_to_end", "per_layer") for entry in declaration[kind]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in declaration["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in declaration["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("higher", "lower")
    setup = [entry for entry in declaration["end_to_end"] if entry["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(entry["bound"] for entry in declaration["end_to_end"])


def test_declared_workloads_are_the_implemented_ones(declaration):
    from hamava_bench.workloads import WORKLOADS

    assert {w["name"]: w["why"] for w in declaration["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_every_runtime_module_has_exactly_one_layer():
    package_root = os.path.join(ROOT, "src", "repro")
    found = set()
    for package in RUNTIME_PACKAGES:
        for directory, _dirs, files in os.walk(os.path.join(package_root, package)):
            for name in files:
                if name.endswith(".py"):
                    found.add(os.path.relpath(os.path.join(directory, name), package_root).replace(os.sep, "/"))
    assert found - set(FILE_LAYER) == set(), "new modules need a layer in hamava_bench/layers.py"
    assert set(FILE_LAYER) - found == set(), "layers.py lists modules that no longer exist"
    assert set(FILE_LAYER.values()) <= set(LAYERS)


def test_emitted_names_are_the_declared_names(declaration, quick_runs):
    declared = {entry["name"] for kind in ("end_to_end", "per_layer") for entry in declaration[kind]}
    for name, result in quick_runs[0].items():
        assert set(result["metrics"]) == declared, name
        assert all(NAME.match(metric) for metric in result["metrics"])
        for entry in declaration["end_to_end"]:
            assert result["metrics"][entry["name"]]["value"] != 0, (name, entry["name"])


def test_quick_runs_are_correct_and_lose_nothing(quick_runs):
    for name, result in quick_runs[0].items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert result["metrics"]["traced.coverage"]["value"] >= 0.90, name


def test_simulated_metrics_and_call_counts_repeat_exactly(declaration, quick_runs):
    first, second = quick_runs
    simulated = [e["name"] for e in declaration["end_to_end"] if e["name"] not in HOST_METRICS]
    exact = simulated + [e["name"] for e in declaration["per_layer"] if e["name"].endswith(".calls_per_op")]
    for name in first:
        for metric in exact:
            assert first[name]["metrics"][metric] == second[name]["metrics"][metric], (name, metric)


def test_the_sharded_workload_ran_its_forked_twin(quick_runs):
    # Bit-for-bit agreement of the twin is part of ``correct``; this checks it ran.
    for name, result in quick_runs[0].items():
        speedup = result["metrics"]["sim.sharded.speedup_vs_serial"]["value"]
        assert (speedup > 0) == (name == "geo32"), name


def test_a_second_seed_runs_clean():
    for name, result in run_quick(12).items():
        assert result["correct"] and result["failed"] == 0, name
