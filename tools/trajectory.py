#!/usr/bin/env python
"""The EXP-E1 trajectory: one commit-stamped record per workload in ``BENCH_PERF.json``.

``benchmarks/e2e/run.py --out RUN.json`` writes one run's results; this tool
turns runs into records and appends them to ``BENCH_PERF.json`` at the root
of the repository, so the file reads as a history, oldest first::

    python tools/trajectory.py append B1.json B2.json ... \\
        --parent-runs A1.json A2.json ... --parent 96de643 \\
        --commit 96de643+ --host "2-vCPU Intel Xeon, Python 3.11.7"
    python tools/trajectory.py --check

``append`` adds one record per workload found in the runs: the medians over
the runs of the five gated end-to-end metrics, the median share of the
traced block's wall of the five largest timed layers, and — when the parent
was measured in the same session (``--parent-runs``, interleaved with the
change's runs) — the parent's medians and the change ÷ parent ratio of each
metric.  The box this runs on switches between speeds far apart, so the
chain of ratios is the honest series; absolute values are context.

A record's ``commit`` is the measured tree: a commit hash, or ``HASH+`` for
a working tree on top of ``HASH`` (a change measured before its commit).
Records taken from the pairs of ``docs/performance.md`` carry that
section's title in ``source`` and only the medians the section gives
(the rest are ``null``).

``--check`` validates the file: the schema of every record, dates that never
go back, and — where the repository's history holds both commits — every
record's commit at or after the one before it.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_PERF.json"

#: The gated end-to-end metrics (``BENCHMARK.json``'s ``end_to_end``).
METRICS = ("query_ms_p50", "first_row_ms_p50", "net_bytes_per_query", "peak_rss_mb", "setup_s")
WORKLOADS = ("cold_default", "warm_zipf", "eval_join", "wire_tenants")
#: How many of the largest layer shares a record keeps.
TOP_LAYERS = 5
_COMMIT = re.compile(r"^[0-9a-f]{7,40}\+?$")
_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_RECORD_KEYS = {"commit", "date", "host", "workload", "seed", "e2e", "layer_shares", "ab", "source"}


def layer_shares(result: dict) -> dict[str, float]:
    """Each timed layer as a share of the traced block's in-flight wall —
    the shares ``run.py`` prints (the modelled service time is no wall)."""
    layers = result.get("layers") or {}
    busy = result.get("traced_busy_s")
    if not busy:
        return {}
    return {
        name: entry["value"] / busy
        for name, entry in layers.items()
        if entry["unit"] == "s" and name != "core.server.modelled_service_s"
    }


def _by_workload(paths: list[str]) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for result in json.loads(Path(path).read_text())["results"]:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def _medians(results: list[dict]) -> dict[str, float]:
    return {
        metric: round(statistics.median(r["e2e"][metric]["value"] for r in results), 6)
        for metric in METRICS
    }


def _top_shares(results: list[dict]) -> dict[str, float]:
    shares = [layer_shares(result) for result in results]
    names = {name for per_run in shares for name in per_run}
    median = {
        name: statistics.median(per_run.get(name, 0.0) for per_run in shares) for name in names
    }
    top = sorted(median.items(), key=lambda item: (-item[1], item[0]))[:TOP_LAYERS]
    return {name: round(share, 4) for name, share in top}


def build_records(
    change_runs: list[str],
    parent_runs: list[str],
    *,
    commit: str,
    parent: str | None,
    host: str,
    date: str,
) -> list[dict]:
    """One record per workload of ``change_runs`` (see the module doc)."""
    change, before = _by_workload(change_runs), _by_workload(parent_runs)
    records = []
    for workload in WORKLOADS:
        if workload not in change:
            continue
        results = change[workload]
        medians = _medians(results)
        ab = None
        if before.get(workload):
            parent_medians = _medians(before[workload])
            ab = {
                "parent": parent,
                "pairs": min(len(results), len(before[workload])),
                "parent_medians": parent_medians,
                "ratio": {
                    metric: round(medians[metric] / parent_medians[metric], 4)
                    for metric in METRICS
                    if parent_medians[metric]
                },
            }
        records.append({
            "commit": commit,
            "date": date,
            "host": host,
            "workload": workload,
            "seed": results[0]["seed"],
            "e2e": medians,
            "layer_shares": _top_shares(results),
            "ab": ab,
            "source": "benchmarks/e2e/run.py --out",
        })
    return records


def load() -> dict:
    return json.loads(TRAJECTORY.read_text())


def _is_ancestor(older: str, newer: str) -> bool | None:
    """Whether commit ``older`` is ``newer`` or one of its ancestors; None
    when the history at hand cannot say (e.g. a shallow clone)."""
    try:
        verdict = subprocess.run(
            ["git", "merge-base", "--is-ancestor", older, newer],
            cwd=ROOT, capture_output=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return {0: True, 1: False}.get(verdict.returncode)


def _order_problem(older: str, newer: str) -> str | None:
    base_old, base_new = older.rstrip("+"), newer.rstrip("+")
    if base_old == base_new:
        # The same tree, or a working tree after its own base.
        return None if newer.endswith("+") or not older.endswith("+") else (
            f"{newer} is listed after the working tree {older} on top of it"
        )
    if _is_ancestor(base_old, base_new) is False:
        return f"{older} is not an ancestor of {newer}, which follows it"
    return None


def check(document: dict) -> list[str]:
    """Every problem with the trajectory (empty when it is well-formed)."""
    problems = []
    records = document.get("records")
    if not isinstance(records, list) or not records:
        return ["no records"]
    for index, record in enumerate(records):
        where = f"record {index}"
        if set(record) != _RECORD_KEYS:
            problems.append(f"{where}: keys {sorted(record)} are not {sorted(_RECORD_KEYS)}")
            continue
        if not _COMMIT.match(record["commit"]):
            problems.append(f"{where}: commit {record['commit']!r}")
        if not _DATE.match(record["date"]):
            problems.append(f"{where}: date {record['date']!r}")
        if record["workload"] not in WORKLOADS:
            problems.append(f"{where}: workload {record['workload']!r}")
        if not record["host"] or not record["source"]:
            problems.append(f"{where}: empty host or source")
        if record["seed"] is not None and not isinstance(record["seed"], int):
            problems.append(f"{where}: seed {record['seed']!r} (an int, or null for several)")
        if set(record["e2e"]) != set(METRICS) or not all(
            value is None or value > 0 for value in record["e2e"].values()
        ):
            problems.append(f"{where}: e2e must give each of {METRICS} (a number or null)")
        if len(record["layer_shares"]) > TOP_LAYERS or not all(
            0 <= share <= 1 for share in record["layer_shares"].values()
        ):
            problems.append(f"{where}: at most {TOP_LAYERS} layer shares, each in [0, 1]")
        ab = record["ab"]
        if ab is not None and (
            set(ab) != {"parent", "pairs", "parent_medians", "ratio"}
            or not _COMMIT.match(ab["parent"] or "")
            or ab["pairs"] < 1
            or not set(ab["ratio"]) <= set(METRICS)
            or not ab["ratio"]
        ):
            problems.append(f"{where}: ab must name its parent, pairs, medians and ratios")
    for index in range(1, len(records)):
        older, newer = records[index - 1], records[index]
        if "date" in older and "date" in newer and newer["date"] < older["date"]:
            problems.append(f"record {index}: dated before the record above it")
        if "commit" in older and "commit" in newer:
            problem = _order_problem(older["commit"], newer["commit"])
            if problem:
                problems.append(f"record {index}: {problem}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="validate BENCH_PERF.json")
    commands = parser.add_subparsers(dest="command")
    append = commands.add_parser("append", help="append the records of some runs")
    append.add_argument("runs", nargs="+", help="JSON files from run.py --out (the change)")
    append.add_argument("--parent-runs", nargs="*", default=[], help="the parent's, interleaved")
    append.add_argument("--parent", help="the parent's commit (needed with --parent-runs)")
    append.add_argument("--commit", required=True, help="the measured tree: HASH or HASH+")
    append.add_argument("--host", required=True, help="e.g. '2-vCPU Intel Xeon, Python 3.11.7'")
    append.add_argument("--date", default=time.strftime("%Y-%m-%d", time.gmtime()))
    args = parser.parse_args(argv)

    if args.command == "append":
        if args.parent_runs and not args.parent:
            parser.error("--parent-runs needs --parent")
        document = load()
        document["records"].extend(build_records(
            args.runs, args.parent_runs, commit=args.commit, parent=args.parent,
            host=args.host, date=args.date,
        ))
        TRAJECTORY.write_text(json.dumps(document, indent=1, ensure_ascii=False) + "\n")
    elif not args.check:
        parser.error("nothing to do: give --check or append")
    problems = check(load())
    for problem in problems:
        print(problem)
    print(f"{TRAJECTORY.name}: {len(load()['records'])} records, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
