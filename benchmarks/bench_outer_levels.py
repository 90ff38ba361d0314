"""EXP-P6 — outer-level batching: batch joins over column arrays end-to-end.

EXP-P5 lowered the *innermost* plan level to batch kernels but still drove
every outer level through per-row closure chains, which is why its weakest
workloads were exactly the multi-level ones: the sitewide scan (a second
document alias ranging over a whole site) and the generic conjunct (whose
rows reach the leaf through an outer expansion).  EXP-P6 extends the
lowering to *every* level: each plan level is a batch operator that takes a
selection-vector batch of candidate bindings, applies its level-local
conjuncts, and expands the next table — through a cached hash index on the
join column when a usable equality join exists (``Table.index``), by batch
scan otherwise.  Tuples materialize only at projection.

This bench measures the full pipeline head-to-head against the row
executor over the shapes EXP-P5 left on the table:

* **sitewide-scan** — the multi-document leaf over a whole site's DOCUMENT
  table (paper §7.1); EXP-P5's worst case (~1.3x);
* **generic-conjunct** — attribute-vs-attribute predicates the specializer
  leaves to the per-row kernel (~1.35x under EXP-P5);
* **join-depth sweep** — 2-, 3- and 4-alias node-queries whose equality
  joins on shared variables (``a.base = d.url``, ``r.url = a.base``) lower
  to hash-index probes instead of nested scans.

The same three checks as EXP-P5 ride along (``--check`` gates them in CI):
row-for-row equality per (node-query, node-database) pair, full-engine
bit-equality of the default engine vs the interpreter
(``compiled_plans=False``) — here with a *joined* DISQL query so the probe
path itself is covered — and a
conservative speedup floor on the sitewide workload.

Run directly to (re)generate ``BENCH_PERF.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_outer_levels.py
    PYTHONPATH=src python benchmarks/bench_outer_levels.py --smoke --check
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.model.database import build_documents_table, build_node_database
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal
from repro.relational.query import NodeQuery, TableDecl
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig

sys.path.insert(0, str(Path(__file__).parent))
from bench_columnar import _hot_page, _small_page, check_engine_identical  # noqa: E402
from harness import format_table, merge_bench_record, ratio, report  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PERF.json"

#: CI floor on the *sitewide* workload — the shape this PR exists to fix.
#: Deliberately far below the measured speedup; it catches a regression
#: that makes outer-level batching pointless, not run-to-run jitter.
CHECK_SITEWIDE_FLOOR = 1.5

#: Full-run aggregate target over all workloads (ISSUE 10 acceptance).
AGGREGATE_TARGET = 2.5

#: Engine-equivalence web — small, but the query below carries a real
#: anchor join so the hash-probe path runs inside the full engine.
WEB_CONFIG = SyntheticWebConfig(
    sites=8, pages_per_site=4, local_out_degree=2, global_out_degree=2, seed=606
)
ENGINE_QUERY = (
    'select d.url, a.href from document d such that "{start}" (L|G)*3 d,\n'
    "     anchor a such that a.base = d.url\n"
    "where a.href != a.base"
)


def _nq(select, tables, where, sitewide=()):
    return NodeQuery(
        select=tuple(select),
        tables=tuple(tables),
        where=where,
        sitewide_aliases=tuple(sitewide),
    )


def _workloads(*, smoke: bool = False):
    """(name, node-query, databases, site_documents) per workload."""
    pages = 4 if smoke else 12
    link_count = 150 if smoke else 400
    mark_count = 40 if smoke else 120
    site_pages = 60 if smoke else 200

    hot = [
        build_node_database(
            parse_url(f"http://bench.example/hub{i}.html"),
            _hot_page(i, links=link_count, emphasized=mark_count),
        )
        for i in range(pages)
    ]
    site_documents = build_documents_table(
        [
            (
                parse_url(f"http://bench.example/site{i}.html"),
                _small_page(i) if i % 4 else _hot_page(i, links=30, emphasized=10),
            )
            for i in range(site_pages)
        ]
    )

    d = TableDecl("document", "d")
    a = TableDecl("anchor", "a")
    a2 = TableDecl("anchor", "a2")
    r = TableDecl("relinfon", "r")
    e = TableDecl("document", "e")
    return (
        (
            "sitewide-scan",
            _nq(
                [Attr("d", "url"), Attr("e", "title")],
                [d, e],
                Contains(Attr("e", "title"), Literal("topic")),
                sitewide=("e",),
            ),
            hot[: max(2, pages // 3)],
            site_documents,
        ),
        (
            "generic-conjunct",
            _nq(
                [Attr("a", "href")],
                [d, a],
                And(
                    Compare("!=", Attr("a", "ltype"), Literal("I")),
                    Compare("!=", Attr("a", "base"), Attr("a", "href")),
                ),
            ),
            hot,
            None,
        ),
        (
            "join-depth-2",
            # One expansion level through an equality join: the anchor
            # table is probed through its hash index on ``base``.
            _nq(
                [Attr("a", "href"), Attr("a", "label")],
                [d, a],
                And(
                    Compare("=", Attr("a", "base"), Attr("d", "url")),
                    Contains(Attr("a", "label"), Literal("topic")),
                ),
            ),
            hot,
            None,
        ),
        (
            "join-depth-3",
            # Two expansion levels, both join-keyed: anchors probed on
            # ``base``, relinfons probed on ``url`` through the anchor's
            # binding and narrowed by a level-local literal filter, with a
            # generic conjunct on top.
            _nq(
                [Attr("d", "url"), Attr("a", "href"), Attr("r", "text")],
                [d, a, r],
                And(
                    And(
                        Compare("=", Attr("a", "base"), Attr("d", "url")),
                        Compare("=", Attr("r", "url"), Attr("a", "base")),
                    ),
                    And(
                        Compare("=", Attr("r", "delimiter"), Literal("hr")),
                        Compare("!=", Attr("a", "href"), Attr("a", "base")),
                    ),
                ),
            ),
            hot,
            None,
        ),
        (
            "join-depth-4",
            # Three expansion levels sharing join variables: the second
            # anchor alias re-probes the same index on a shared variable,
            # the relinfon level carries a level-local literal filter.
            _nq(
                [Attr("a", "href"), Attr("a2", "href"), Attr("r", "text")],
                [d, a, r, a2],
                And(
                    And(
                        Compare("=", Attr("a", "base"), Attr("d", "url")),
                        Compare("=", Attr("r", "url"), Attr("a", "base")),
                    ),
                    And(
                        Compare("=", Attr("r", "delimiter"), Literal("hr")),
                        And(
                            Compare("=", Attr("a2", "base"), Attr("a", "base")),
                            Compare("=", Attr("a2", "ltype"), Literal("G")),
                        ),
                    ),
                ),
            ),
            hot[: max(2, pages // 2)],
            None,
        ),
    )


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time for one full pass (noise floor)."""
    best = float("inf")
    for __ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def check_rows_identical(workloads) -> int:
    """Row-for-row equality of columnar vs row execution; returns pairs."""
    pairs = 0
    for name, query, databases, site_documents in workloads:
        plan = compile_node_query(query)
        for database in databases:
            expected = plan.execute(database, site_documents)
            actual = plan.execute_columnar(database, site_documents)
            assert [(r.header, r.values) for r in actual] == [
                (r.header, r.values) for r in expected
            ], f"columnar rows diverge for {name} at {database.url}"
            pairs += 1
    return pairs


def measure(repeats: int = 7, *, smoke: bool = False) -> dict:
    """The EXP-P6 measurement: one dict, JSON-ready."""
    workloads = _workloads(smoke=smoke)

    pairs_checked = check_rows_identical(workloads)
    engine_rows = check_engine_identical(WEB_CONFIG, ENGINE_QUERY)

    per_workload = []
    for name, query, databases, site_documents in workloads:
        plan = compile_node_query(query)
        row_s = _time_best(
            lambda p=plan, s=site_documents: [p.execute(db, s) for db in databases],
            repeats,
        )
        col_s = _time_best(
            lambda p=plan, s=site_documents: [
                p.execute_columnar(db, s) for db in databases
            ],
            repeats,
        )
        rows = sum(len(plan.execute(db, site_documents)) for db in databases)
        per_workload.append(
            {
                "workload": name,
                "levels": len(query.tables),
                "row_s": round(row_s, 6),
                "columnar_s": round(col_s, 6),
                "speedup": round(row_s / col_s, 3),
                "rows_per_pass": rows,
            }
        )

    total_row = sum(w["row_s"] for w in per_workload)
    total_col = sum(w["columnar_s"] for w in per_workload)
    by_name = {w["workload"]: w for w in per_workload}
    return {
        "experiment": "EXP-P6",
        "title": "outer-level batch joins vs the row executor",
        "smoke": smoke,
        "repeats": repeats,
        "per_workload": per_workload,
        "row_total_s": round(total_row, 6),
        "columnar_total_s": round(total_col, 6),
        "speedup": round(total_row / total_col, 3),
        "sitewide_speedup": by_name["sitewide-scan"]["speedup"],
        "rows_identical_pairs": pairs_checked,
        "engine_identical_rows": engine_rows,
    }


def _report(result: dict) -> str:
    rows = [
        (
            w["workload"],
            w["levels"],
            f"{w['row_s'] * 1e3:.2f}",
            f"{w['columnar_s'] * 1e3:.2f}",
            f"{w['speedup']:.2f}x",
            w["rows_per_pass"],
        )
        for w in result["per_workload"]
    ]
    rows.append(
        (
            "TOTAL",
            "",
            f"{result['row_total_s'] * 1e3:.2f}",
            f"{result['columnar_total_s'] * 1e3:.2f}",
            ratio(result["row_total_s"], result["columnar_total_s"]),
            sum(w["rows_per_pass"] for w in result["per_workload"]),
        )
    )
    body = format_table(
        ("workload", "levels", "row (ms/pass)", "columnar (ms/pass)", "speedup",
         "rows"),
        rows,
    )
    body += (
        f"\n\nbest of {result['repeats']} passes per cell"
        f"{' (smoke sizing)' if result['smoke'] else ''}"
        f"\nchecked: {result['rows_identical_pairs']} (query, database) pairs"
        f" row-identical; engine run bit-identical"
        f" ({result['engine_identical_rows']} result rows, joined query)"
        " vs the interpreter"
        "\nsitewide-scan and generic-conjunct were EXP-P5's weakest shapes;"
        "\nthe join-depth sweep rides the cached hash indexes end-to-end"
    )
    report("EXP-P6", result["title"], body)
    return body


def bench_outer_levels(benchmark):
    result = measure()
    _report(result)
    merge_bench_record(RESULT_PATH, "EXP-P6", result)
    assert result["speedup"] >= AGGREGATE_TARGET, (
        f"aggregate speedup {result['speedup']}x below {AGGREGATE_TARGET}x target"
    )
    workloads = _workloads(smoke=True)
    __, query, databases, __unused = workloads[3]
    plan = compile_node_query(query)
    benchmark(lambda: [plan.execute_columnar(db) for db in databases])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: correctness + conservative sitewide speedup floor",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="smaller tables and fewer repeats (CI sizing); skips the"
             " BENCH_PERF.json merge",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing passes per cell"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (3 if args.smoke else 7)
    result = measure(repeats=repeats, smoke=args.smoke)
    _report(result)

    if args.check:
        floor = CHECK_SITEWIDE_FLOOR
        if result["sitewide_speedup"] < floor:
            print(
                f"FAIL: sitewide speedup {result['sitewide_speedup']}x below"
                f" the {floor}x CI floor",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: {result['rows_identical_pairs']} pairs row-identical, engine"
            f" bit-identical, sitewide {result['sitewide_speedup']}x"
            f" (floor {floor}x), aggregate {result['speedup']}x"
        )
        return 0

    if args.smoke:
        print(f"smoke run: aggregate speedup {result['speedup']}x (not merged)")
        return 0

    merge_bench_record(RESULT_PATH, "EXP-P6", result)
    print(f"merged EXP-P6 into {RESULT_PATH} (aggregate {result['speedup']}x)")
    if result["speedup"] < AGGREGATE_TARGET:
        print(
            f"WARNING: below the {AGGREGATE_TARGET}x EXP-P6 target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
