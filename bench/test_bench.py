"""Tests of the benchmark itself, at reduced input sizes.

    python3 -m pytest bench/test_bench.py -q

They check that every metric BENCHMARK.json declares is printed with its
unit, that a failed output check is counted, and that the benchmark refuses
to run without the library's sources.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_declared_metric(trace, section):
    proc = bench("--quick", "--workload", "all", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    for workload in SPEC["workloads"]:
        for metric in SPEC[section]:
            got = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float)
    assert proc.stdout.count("error_rate") == len(SPEC["workloads"])


def test_declared_workloads_and_layers_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOADS == list(workloads.WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    mapped = [m for layer in layer_map["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])


def test_failed_check_is_counted_in_error_rate(monkeypatch, capsys):
    def failing_check(inputs, out):
        raise workloads.CheckFailed("deliberately failed")

    name = "remark1_place_density"
    wl = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        workloads.Workload(wl.make_inputs, wl.repeat, failing_check, wl.reference))

    def in_process(workload, seed, seconds, trace, quick, setup_only):
        return workloads.run_child(workload, seed, seconds, trace, quick, setup_only,
                                   spawned=workloads.time.monotonic())

    monkeypatch.setattr(run, "spawn", in_process)
    metrics, attempted, failed = run.run_workload(name, 1, 0.0, 0, True)
    assert attempted >= 2 and failed == attempted
    assert re.search(r"error_rate\s+1\s+ratio", capsys.readouterr().out)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "study2d_uniform", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
