"""Smoke test of the benchmark at tiny size (about a minute):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--size", "tiny", "--seconds", "1",
         "--seed", "0", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def test_interaction_map_covers_benchmark_json():
    with open(os.path.join(HERE, "interactions.json")) as fh:
        interactions = json.load(fh)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(interactions["workloads"]) == set(WORKLOADS)
    assert set(interactions["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_unit(workload):
    proc, line = bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
        pattern = rf"^\s+{re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
        assert re.search(pattern, proc.stdout, re.M), m["name"]
    assert re.search(r"^\s+fail_frac\s+0 ", proc.stdout, re.M)


def test_traced_run_reports_every_per_layer_metric():
    proc, line = bench("--workload", "ic-p10-greedy", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {name: v["value"] for name, v in line["metrics"].items()}
    assert values["filtering.filter_step.calls"] == 100 * (10 + 10)
    assert values["sampler._score_mask_array.masks"] > values["sampler.select_greedy.calls"]
    assert "absent" not in proc.stdout


def test_perturbed_reference_is_reported_as_failure():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    cell = reference["tiny"]["ic-p10-random"]
    cell["h"] = math.nextafter(cell["h"], math.inf)
    path = os.path.join(ROOT, ".perfbench_runs", "perturbed-reference.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(reference, fh)
    proc, line = bench("--workload", "ic-p10-random", "--trace", "0", "--reference", path)
    assert proc.returncode != 0
    assert not line["correct"] and line["failed"] == line["attempted"] == 1
    assert "CHECK FAILED: h " in proc.stdout
