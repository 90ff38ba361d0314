"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e -q``.

Runs ``run.py --smoke`` (the full code path at 1 block × 12 queries per
workload, a few seconds) and checks what the driver relies on: the schema
of the emitted JSON, every metric of BENCHMARK.json present with its unit,
no failed query and a green span self-check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    child = _run("--smoke", "--out", str(out))
    assert child.returncode == 0, child.stdout + child.stderr
    return out


def test_every_workload_reports_every_metric(smoke):
    results = json.loads(smoke.read_text())["results"]
    assert [r["workload"] for r in results] == [w["name"] for w in CONTRACT["workloads"]]
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 12
        assert result["self_check"] == []
        for metric in CONTRACT["end_to_end"]:
            entry = result["e2e"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] > 0  # the driver refuses metrics that read 0
        assert set(result["layers"]) == {m["name"] for m in CONTRACT["per_layer"]}
        for metric in CONTRACT["per_layer"]:
            assert result["layers"][metric["name"]]["unit"] == metric["unit"]


def test_a_run_compares_clean_against_itself(smoke):
    child = _run("--compare", str(smoke), str(smoke))
    assert child.returncode == 0, child.stdout + child.stderr
    assert "0 worse" in child.stdout.splitlines()[-1]


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line(trace, section):
    child = _run("--workload", "warm_zipf", "--seed", "3", "--seconds", "10", "--trace", trace, "--smoke")
    assert child.returncode == 0, child.stdout + child.stderr
    line = json.loads(child.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT[section]
    }


def test_without_the_program_it_fails_before_printing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "warm_zipf", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode != 0
    assert child.stdout == ""
