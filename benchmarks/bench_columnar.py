"""EXP-P5 (extension) — columnar node-query execution vs the row executor.

EXP-P1 removed the per-row *interpretation* overhead; what remains in the
row executor is per-row *dispatch* — one chained closure call per
candidate row per conjunct.  The columnar executor
(:meth:`repro.relational.compile.CompiledPlan.execute_columnar`) lowers
the innermost loop level to batch kernels over the leaf table's column
arrays (selection-vector style), which amortizes that dispatch across
every row of the batch.  This bench measures the lowering head-to-head
over the shapes that dominate real node-query work:

* **link-heavy anchor scans** — specialized equality and ``contains``
  kernels over wide ANCHOR tables;
* **relinfon filters** — delimiter equality plus substring match;
* **sitewide document scans** — the multi-document leaf ranging over a
  whole site's DOCUMENT table (paper §7.1);
* **generic conjuncts** — attribute-vs-attribute predicates that the
  specializer deliberately leaves to the per-row kernel;
* **a small-page honesty workload** — paper-sized tables where batching
  has nothing to amortize; reported so the aggregate is not cherry-picked.

Three checks ride along (what ``--check`` gates in CI):

1. row-for-row equality — for every (node-query, node-database) pair the
   columnar pass returns exactly the row executor's rows, in order;
2. engine equivalence — a full :class:`WebDisEngine` run is bit-identical
   (status, completion time, result rows in order) on the default engine
   vs the interpreter (``compiled_plans=False``);
3. a conservative speedup floor (CI machines are noisy; the headline
   number in ``BENCH_PERF.json`` is measured with more repeats).

Run directly to (re)generate ``BENCH_PERF.json`` at the repo root:

    PYTHONPATH=src python benchmarks/bench_columnar.py
    PYTHONPATH=src python benchmarks/bench_columnar.py --smoke --check  # CI gate
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.html.generator import PageSpec, render_page
from repro.model.database import build_documents_table, build_node_database
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal
from repro.relational.query import NodeQuery, TableDecl
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.synthetic import synthetic_start_url

sys.path.insert(0, str(Path(__file__).parent))
from harness import format_table, merge_bench_record, ratio, report  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_PERF.json"

#: CI floor: deliberately far below the measured speedup — it catches a
#: regression that makes the lowering pointless, not run-to-run jitter.
CHECK_SPEEDUP_FLOOR = 1.3

#: Engine-equivalence web (EXP-S1 family, small enough for the CI gate).
WEB_CONFIG = SyntheticWebConfig(
    sites=8, pages_per_site=4, local_out_degree=2, global_out_degree=2, seed=505
)
ENGINE_QUERY = (
    'select d.url from document d such that "{start}" (L|G)*3 d\n'
    'where d.title contains "topic"'
)


def _hot_page(index: int, *, links: int, emphasized: int) -> str:
    """A link-heavy page: global/local/interior anchors and bold/italic
    relinfons in page order, sized far beyond the paper's examples."""
    hrefs = []
    for i in range(links):
        if i % 7 == 0:
            hrefs.append((f"interior note {i}", f"#section-{i}"))
        elif i % 3 == 0:
            hrefs.append((f"local topic link {i}", f"/page{(index + i) % 40}.html"))
        else:
            hrefs.append(
                (
                    f"{'topic' if i % 2 else 'archive'} item {i}",
                    f"http://hub{(index + i) % 9}.example/doc{i}.html",
                )
            )
    marks = [
        ("b" if i % 2 else "i", f"{'detail' if i % 3 else 'aside'} fragment {i}")
        for i in range(emphasized)
    ]
    return render_page(
        PageSpec(
            title=f"hub page {index} topic",
            paragraphs=[f"body text of hub page {index}"],
            links=hrefs,
            emphasized=marks,
            ruled=[f"CONVENER person-{index}"],
        )
    )


def _small_page(index: int) -> str:
    """A paper-sized page (a handful of links): the honesty workload."""
    return _hot_page(index, links=5, emphasized=3)


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
    small = [
        build_node_database(
            parse_url(f"http://bench.example/leaf{i}.html"), _small_page(i)
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

    d, a, r = TableDecl("document", "d"), TableDecl("anchor", "a"), TableDecl(
        "relinfon", "r"
    )
    e = TableDecl("document", "e")
    return (
        (
            "anchor-scan",
            _nq(
                [Attr("a", "href"), Attr("a", "label")],
                [d, a],
                And(
                    Compare("=", Attr("a", "ltype"), Literal("G")),
                    Contains(Attr("a", "label"), Literal("topic")),
                ),
            ),
            hot,
            None,
        ),
        (
            "relinfon-filter",
            _nq(
                [Attr("d", "url"), Attr("r", "text")],
                [d, r],
                And(
                    Compare("=", Attr("r", "delimiter"), Literal("b")),
                    Contains(Attr("r", "text"), Literal("detail")),
                ),
            ),
            hot,
            None,
        ),
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
            "small-pages",
            _nq(
                [Attr("a", "href"), Attr("a", "label")],
                [d, a],
                And(
                    Compare("=", Attr("a", "ltype"), Literal("G")),
                    Contains(Attr("a", "label"), Literal("topic")),
                ),
            ),
            small,
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


def check_engine_identical(web_config=WEB_CONFIG, query=ENGINE_QUERY) -> int:
    """Full-engine bit-equality: default engine vs the interpreter."""
    disql = query.format(start=synthetic_start_url(web_config))
    runs = []
    for config in (EngineConfig(), EngineConfig(compiled_plans=False)):
        engine = WebDisEngine(build_synthetic_web(web_config), config=config)
        handle = engine.submit_disql(disql)
        done_at = engine.run()
        assert handle.status is QueryStatus.COMPLETE
        runs.append(
            (
                handle.status,
                done_at,
                [(label, row.header, row.values) for label, row, __ in handle.results],
            )
        )
    compiled, interpreted = runs
    assert compiled == interpreted, "compiled engine results differ from the interpreter's"
    assert compiled[2], "engine query returned no rows"
    return len(compiled[2])


def measure(repeats: int = 7, *, smoke: bool = False) -> dict:
    """The EXP-P5 measurement: one dict, JSON-ready."""
    workloads = _workloads(smoke=smoke)

    pairs_checked = check_rows_identical(workloads)
    engine_rows = check_engine_identical()

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
        scanned = sum(db.tuple_count() for db in databases)
        per_workload.append(
            {
                "workload": name,
                "row_s": round(row_s, 6),
                "columnar_s": round(col_s, 6),
                "speedup": round(row_s / col_s, 3),
                "rows_per_pass": rows,
                "tuples_in_leaf_dbs": scanned,
            }
        )

    total_row = sum(w["row_s"] for w in per_workload)
    total_col = sum(w["columnar_s"] for w in per_workload)
    return {
        "experiment": "EXP-P5",
        "title": "columnar batch execution vs the row executor",
        "smoke": smoke,
        "repeats": repeats,
        "per_workload": per_workload,
        "row_total_s": round(total_row, 6),
        "columnar_total_s": round(total_col, 6),
        "speedup": round(total_row / total_col, 3),
        "rows_identical_pairs": pairs_checked,
        "engine_identical_rows": engine_rows,
    }


def _report(result: dict) -> str:
    rows = [
        (
            w["workload"],
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
            f"{result['row_total_s'] * 1e3:.2f}",
            f"{result['columnar_total_s'] * 1e3:.2f}",
            ratio(result["row_total_s"], result["columnar_total_s"]),
            sum(w["rows_per_pass"] for w in result["per_workload"]),
        )
    )
    body = format_table(
        ("workload", "row (ms/pass)", "columnar (ms/pass)", "speedup", "rows"), rows
    )
    body += (
        f"\n\nbest of {result['repeats']} passes per cell"
        f"{' (smoke sizing)' if result['smoke'] else ''}"
        f"\nchecked: {result['rows_identical_pairs']} (query, database) pairs"
        f" row-identical; engine run bit-identical"
        f" ({result['engine_identical_rows']} result rows) vs the interpreter"
        "\n'small-pages' is the honesty workload: paper-sized tables where"
        " batching has little to amortize"
    )
    report("EXP-P5", result["title"], body)
    return body


def bench_columnar(benchmark):
    result = measure()
    _report(result)
    merge_bench_record(RESULT_PATH, "EXP-P5", result)
    assert result["speedup"] >= 2.0, f"speedup {result['speedup']}x below 2x target"
    workloads = _workloads(smoke=True)
    __, query, databases, __unused = workloads[0]
    plan = compile_node_query(query)
    benchmark(lambda: [plan.execute_columnar(db) for db in databases])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: correctness + conservative speedup floor",
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
        floor = CHECK_SPEEDUP_FLOOR
        if result["speedup"] < floor:
            print(
                f"FAIL: speedup {result['speedup']}x below the {floor}x CI floor",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: {result['rows_identical_pairs']} pairs row-identical, engine"
            f" bit-identical, speedup {result['speedup']}x (floor {floor}x)"
        )
        return 0

    if args.smoke:
        print(f"smoke run: speedup {result['speedup']}x (not merged)")
        return 0

    merge_bench_record(RESULT_PATH, "EXP-P5", result)
    print(f"merged EXP-P5 into {RESULT_PATH} (speedup {result['speedup']}x)")
    if result["speedup"] < 2.0:
        print("WARNING: below the 2x EXP-P5 target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
