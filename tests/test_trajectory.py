"""``BENCH_PERF.json``: the EXP-E1 trajectory, and the tool that keeps it.

The committed file must pass ``tools/trajectory.py --check``: every record
has the schema, and records stand in commit order (dates never go back; where
the repository's history holds both commits, each record's commit is at or
after the one above it).  The check itself must catch a record out of order
and a record without the schema, and ``append`` must build well-formed
records from what ``benchmarks/e2e/run.py --out`` writes.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    name = "trajectory_for_tests"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / "trajectory.py")
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((ROOT / "BENCH_PERF.json").read_text())


def test_the_committed_trajectory_checks_clean(committed):
    assert _tool().check(committed) == []


def test_every_workload_has_a_record_and_the_backfill_names_its_section(committed):
    records = committed["records"]
    assert {record["workload"] for record in records} == set(_tool().WORKLOADS)
    backfilled = [r for r in records if r["source"].startswith("docs/performance.md: ")]
    assert backfilled and all(record["ab"] for record in backfilled)
    performance = (ROOT / "docs" / "performance.md").read_text()
    for record in backfilled:
        title = record["source"].removeprefix("docs/performance.md: ")
        assert f"\n## {title}\n" in performance


def test_a_record_dated_before_the_one_above_it_is_out_of_order(committed):
    document = copy.deepcopy(committed)
    document["records"][-1]["date"] = "2000-01-01"
    assert any("dated before" in problem for problem in _tool().check(document))


def test_a_record_whose_commit_precedes_the_one_above_it_is_out_of_order(committed):
    tool = _tool()
    first, last = committed["records"][0], committed["records"][-1]
    base = last["commit"].rstrip("+")
    if tool._is_ancestor(first["commit"], base) is not True:
        pytest.skip("the history at hand does not hold both commits")
    document = {"records": [dict(last, commit=base), dict(first, date=last["date"])]}
    assert any("not an ancestor" in problem for problem in tool.check(document))


def test_a_record_without_the_schema_is_reported(committed):
    document = copy.deepcopy(committed)
    del document["records"][0]["host"]
    document["records"][1]["e2e"].pop("setup_s")
    problems = _tool().check(document)
    assert any(problem.startswith("record 0: keys") for problem in problems)
    assert any(problem.startswith("record 1: e2e") for problem in problems)


def _run(workload: str, scale: float) -> dict:
    metrics = dict(zip(_tool().METRICS, (2.0, 1.0, 100.0, 40.0, 0.1)))
    return {
        "workload": workload,
        "seed": 1,
        "e2e": {name: {"value": value * scale} for name, value in metrics.items()},
        "layers": {
            "core.server.handle_s": {"value": 0.4 * scale, "unit": "s"},
            "net.send_s": {"value": 0.2 * scale, "unit": "s"},
            "core.server.modelled_service_s": {"value": 9.0, "unit": "s"},
            "net.messages": {"value": 800, "unit": "count"},
        },
        "traced_busy_s": 1.0 * scale,
    }


def test_append_builds_one_record_per_workload_with_its_ratio(tmp_path):
    tool = _tool()
    paths = {}
    for side, scale in (("A", 1.0), ("B", 0.5)):
        paths[side] = tmp_path / f"{side}.json"
        runs = [_run("warm_zipf", scale), _run("eval_join", scale)]
        paths[side].write_text(json.dumps({"seed": 1, "results": runs}))
    records = tool.build_records(
        [str(paths["B"])], [str(paths["A"])],
        commit="96de643+", parent="96de643", host="test host", date="2026-10-16",
    )
    assert [record["workload"] for record in records] == ["warm_zipf", "eval_join"]
    record = records[0]
    assert record["e2e"]["query_ms_p50"] == 1.0
    assert record["ab"]["ratio"] == {name: 0.5 for name in tool.METRICS}
    # Shares of the traced wall; a modelled time and a count are no wall.
    assert record["layer_shares"] == {"core.server.handle_s": 0.4, "net.send_s": 0.2}
    assert tool.check({"records": records}) == []
