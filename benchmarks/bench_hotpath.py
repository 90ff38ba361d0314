"""EXP-P1 (extension) — the node-query hot path: compiled plans vs the interpreter.

WEBDIS evaluates the *same* node-query at every node a clone reaches, so
per-evaluation cost is the engine's inner loop.  This is the one executor
micro-gate: the repo's two evaluators head-to-head —

* **interpreted** — :func:`repro.relational.query.evaluate_node_query`,
  which re-plans and re-walks the expression AST per candidate row (the
  executable specification, and what a compiled plan replays through);
* **compiled** —
  :meth:`repro.relational.compile.CompiledPlan.execute_columnar`, the
  batch pipeline, compiled once per structural node-query —

over every shape the executor has a distinct path for:

* the DISQL workload on the scalability web family (EXP-S1's generator):
  single-table filters, a relinfon join and a two-step chain over
  paper-sized pages;
* **hot pages** — link-heavy anchor scans and relinfon filters, where the
  leaf selection-vector kernels amortize per-row dispatch;
* **sitewide-scan** — the multi-document leaf over a whole site's DOCUMENT
  table (paper §7.1);
* **join-depth 2/3/4** — node-queries whose equality joins on shared
  variables (``a.base = d.url``, ``r.url = a.base``) lower to hash-index
  probes instead of nested scans;
* **selection-under-join** — EXP-E1's ``eval_join`` node-query (``anchor x
  relinfon``: a leaf-local ``contains``, a cross-alias ``contains``, an
  outer ``!=`` column pair), where the table-local conjuncts run once per
  table per execution, below the join, instead of once per outer binding.

Four checks ride along (they are what ``--check`` gates in CI):

1. row-for-row equality — for every (node-query, node-database) pair the
   compiled plan returns exactly the interpreter's rows, in order;
2. engine equivalence — full :class:`WebDisEngine` runs (a filter query
   and a joined one, so the probe path runs inside the engine) are
   bit-identical — status, completion time, result rows in order — on the
   default engine vs ``compiled_plans=False``;
3. one conservative speedup floor on the *weakest* shape, so no shape can
   regress behind another's large ratio;
4. an evaluation *count* on selection-under-join — ``str.lower`` calls (one
   per ``contains`` operand) and scalar comparisons per pass, against the
   bound "one per segment, plus what the cross-alias conjunct needs per
   (anchor, selected segment)".  A count repeats exactly, so it catches a
   selection sliding back inside the join on a runner too noisy for a
   timing floor.

Run directly for the table (also written to ``benchmarks/results/EXP-P1.txt``):

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py --check   # CI gate

End to end this layer is ``relational.exec_s`` on EXP-E1's ``eval_join``
workload (``benchmarks/e2e``).
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.disql import compile_disql
from repro.html.generator import PageSpec, render_page
from repro.model.database import DatabaseConstructor, build_node_database
from repro.relational import columnar
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal, _coerce_pair
from repro.relational.query import NodeQuery, TableDecl, evaluate_node_query
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.site import Page, Site
from repro.web.synthetic import synthetic_start_url

sys.path.insert(0, str(Path(__file__).parent))
from harness import format_table, ratio, report  # noqa: E402

#: The EXP-S1 web at scale 4: 16 sites x 5 pages.
WEB_CONFIG = SyntheticWebConfig(
    sites=16, pages_per_site=5, local_out_degree=2, global_out_degree=2, seed=504
)

#: DISQL workload: the scalability query plus join-heavier shapes, so the
#: bench covers single-table filters, a relinfon join and a two-step chain.
QUERIES = (
    (
        "title-filter",
        'select d.url from document d such that "{start}" (L|G)*3 d\n'
        'where d.title contains "topic"',
    ),
    (
        "relinfon-join",
        'select d.url, r.text\n'
        'from document d such that "{start}" (L|G)*2 d,\n'
        '     relinfon r such that r.delimiter = "b"\n'
        'where r.text contains "detail"',
    ),
    (
        "chained-steps",
        'select d.url, e.title\n'
        'from document d such that "{start}" G d\n'
        'where d.title contains "page"\n'
        '     document e such that d (L|G)*2 e\n'
        'where e.title contains "topic"',
    ),
)

#: Second engine-equivalence query: a real anchor join, so the hash-probe
#: path runs inside the full engine.
JOINED_QUERY = (
    'select d.url, a.href from document d such that "{start}" (L|G)*3 d,\n'
    "     anchor a such that a.base = d.url\n"
    "where a.href != a.base"
)

#: The one floor, on the weakest shape: deliberately far below the measured
#: ratios (2.7x and up) — it catches a regression that makes compilation
#: pointless for some shape, not run-to-run jitter.
SPEEDUP_FLOOR = 1.2

#: Sizing of the hot-page, sitewide and join shapes.  The interpreter runs
#: the 3- and 4-alias joins as nested scans, so the tables stay small
#: enough for a pass to take about a second.
HOT_PAGES = 4
HOT_LINKS = 150
HOT_MARKS = 40
SITE_PAGES = 60
#: selection-under-join's leaf-local literal: matches "fragment 1" and
#: "fragment 10".."fragment 19" of a hot page.
SELECTED_TEXT = "fragment 1"


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


def _nq(select, tables, where, sitewide=()):
    return NodeQuery(
        select=tuple(select),
        tables=tuple(tables),
        where=where,
        sitewide_aliases=tuple(sitewide),
    )


def _built_database(url, html):
    """A node database with all three relations built, rows and columns.

    Relations build on first read; left to the timed passes, whichever
    executor ran first would pay for that and the floor would compare
    different work.
    """
    database = build_node_database(url, html)
    for name in ("document", "anchor", "relinfon"):
        table = database.relation(name)
        table.row_list()
        table.columns()
    return database


def _workloads():
    """(name, node-query, databases, site_documents) per shape."""
    web = build_synthetic_web(WEB_CONFIG)
    start = synthetic_start_url(WEB_CONFIG)
    paper_sized = [
        _built_database(web.site(site_name).url_of(path), page.html)
        for site_name in web.site_names
        for path, page in sorted(web.site(site_name).pages.items())
    ]
    workloads = []
    for name, template in QUERIES:
        webquery = compile_disql(template.format(start=start))
        for k, step in enumerate(webquery.steps):
            workloads.append((f"{name}/q{k + 1}", step.query, paper_sized, None))

    hot = [
        _built_database(
            parse_url(f"http://bench.example/hub{i}.html"),
            _hot_page(i, links=HOT_LINKS, emphasized=HOT_MARKS),
        )
        for i in range(HOT_PAGES)
    ]
    site = Site("bench.example")
    for i in range(SITE_PAGES):
        html = (
            _hot_page(i, links=5, emphasized=3)
            if i % 4
            else _hot_page(i, links=30, emphasized=10)
        )
        site.add(Page(f"/site{i:02d}.html", html=html))
    site_documents = DatabaseConstructor().site_documents(site)
    d = TableDecl("document", "d")
    a = TableDecl("anchor", "a")
    a2 = TableDecl("anchor", "a2")
    r = TableDecl("relinfon", "r")
    e = TableDecl("document", "e")
    joined = And(
        Compare("=", Attr("a", "base"), Attr("d", "url")),
        Compare("=", Attr("r", "url"), Attr("a", "base")),
    )
    workloads += [
        (
            "hot-anchor-scan",
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
            "hot-relinfon-filter",
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
            hot[:2],
            site_documents,
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
            # Two expansion levels, both join-keyed, narrowed by a
            # level-local literal filter with a generic conjunct on top.
            _nq(
                [Attr("d", "url"), Attr("a", "href"), Attr("r", "text")],
                [d, a, r],
                And(
                    joined,
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
            # anchor alias re-probes the same index on a shared variable.
            _nq(
                [Attr("a", "href"), Attr("a2", "href"), Attr("r", "text")],
                [d, a, r, a2],
                And(
                    joined,
                    And(
                        Compare("=", Attr("r", "delimiter"), Literal("hr")),
                        And(
                            Compare("=", Attr("a2", "base"), Attr("a", "base")),
                            Compare("=", Attr("a2", "ltype"), Literal("G")),
                        ),
                    ),
                ),
            ),
            hot[:2],
            None,
        ),
        (
            "selection-under-join",
            # eval_join's node-query.  The interpreter nests all three
            # conjuncts under both scans; the pipeline selects ANCHOR and
            # RELINFON once each and runs only the middle one per binding.
            _nq(
                [Attr("d", "url"), Attr("a", "href"), Attr("r", "text")],
                [d, a, r],
                And(
                    And(
                        Contains(Attr("r", "text"), Literal(SELECTED_TEXT)),
                        Contains(Attr("a", "label"), Attr("r", "delimiter")),
                    ),
                    Compare("!=", Attr("a", "href"), Attr("a", "base")),
                ),
            ),
            hot[:2],
            None,
        ),
    ]
    return workloads


def _time_best(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time for one full pass (noise floor)."""
    best = float("inf")
    for __ in range(repeats):
        begin = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - begin)
    return best


def check_rows_identical(workloads) -> int:
    """Row-for-row equality of compiled vs interpreted; returns pair count."""
    pairs = 0
    for name, query, databases, site_documents in workloads:
        plan = compile_node_query(query)
        for database in databases:
            expected = evaluate_node_query(query, database, site_documents)
            actual = plan.execute_columnar(database, site_documents)
            assert [(r.header, r.values) for r in actual] == [
                (r.header, r.values) for r in expected
            ], f"compiled rows diverge for {name} at {database.url}"
            pairs += 1
    return pairs


@contextmanager
def counted_evaluations() -> Iterator[Counter]:
    """Count what the executor evaluates inside the block — counts that
    repeat exactly, taken under :func:`sys.setprofile`.

    ``str.lower``: one call per ``contains`` operand that is not a literal;
    ``scalar comparisons``: ``=``/``!=``/ordered closures and interpreter
    nodes (:func:`_coerce_pair` frames); ``columnar.<name>``: calls per
    batch stage and kernel.
    """
    counts: Counter = Counter()

    def on_event(frame, event, arg) -> None:
        if event == "c_call":
            if getattr(arg, "__name__", "") == "lower":
                counts["str.lower"] += 1
        elif event == "call":
            code = frame.f_code
            if code is _coerce_pair.__code__:
                counts["scalar comparisons"] += 1
            elif (
                code.co_filename == columnar.__file__
                and code.co_name.endswith(("kernel", "stage"))
                and not code.co_name.startswith("_")  # the builders
            ):
                counts[f"columnar.{code.co_name}"] += 1

    sys.setprofile(on_event)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def check_selection_count(workloads) -> dict:
    """Evaluations of one compiled pass over selection-under-join, counted.

    ``lowered``: ``str.lower`` calls — one per ``contains`` with a literal
    needle, two with a column needle; ``compared``: scalar ``=``/``!=``
    closures.  ``bound`` is what selections below the join allow — one
    ``lower`` per segment plus two per (anchor, selected segment), and no
    scalar comparison at all (the column pair has a kernel); ``nested`` is
    what evaluating the leaf-local conjunct per anchor would cost.
    """
    __, query, databases, site_documents = next(
        workload for workload in workloads if workload[0] == "selection-under-join"
    )
    plan = compile_node_query(query)
    with counted_evaluations() as counts:
        for database in databases:
            plan.execute_columnar(database, site_documents)
    bound = nested = 0
    for database in databases:
        anchors = len(database.relation("anchor"))
        texts = database.relation("relinfon").columns()[2]
        selected = sum(SELECTED_TEXT in text.lower() for text in texts)
        bound += len(texts) + 2 * anchors * selected
        nested += anchors * len(texts) + 2 * anchors * selected
    return {
        "lowered": counts["str.lower"],
        "compared": counts["scalar comparisons"],
        "bound": bound,
        "nested": nested,
    }


def check_engine_identical() -> int:
    """Full-engine bit-equality: default engine vs the interpreter."""
    start = synthetic_start_url(WEB_CONFIG)
    total_rows = 0
    for template in (QUERIES[0][1], JOINED_QUERY):
        runs = []
        for config in (EngineConfig(), EngineConfig(compiled_plans=False)):
            engine = WebDisEngine(build_synthetic_web(WEB_CONFIG), config=config)
            handle = engine.submit_disql(template.format(start=start))
            done_at = engine.run()
            assert handle.status is QueryStatus.COMPLETE
            runs.append(
                (
                    done_at,
                    [(label, row.header, row.values) for label, row, __ in handle.results],
                )
            )
        compiled, interpreted = runs
        assert compiled == interpreted, "engine results differ with compiled plans"
        assert compiled[1], "engine query returned no rows"
        total_rows += len(compiled[1])
    return total_rows


def measure(repeats: int = 7) -> dict:
    """The EXP-P1 measurement."""
    workloads = _workloads()

    pairs_checked = check_rows_identical(workloads)
    engine_rows = check_engine_identical()
    selection = check_selection_count(workloads)

    compile_begin = time.perf_counter()
    plans = [compile_node_query(query) for __, query, __dbs, __site in workloads]
    compile_seconds = time.perf_counter() - compile_begin

    per_shape = []
    for (name, query, databases, site_documents), plan in zip(workloads, plans):
        interpreted = _time_best(
            lambda q=query, s=site_documents: [
                evaluate_node_query(q, db, s) for db in databases
            ],
            repeats,
        )
        compiled = _time_best(
            lambda p=plan, s=site_documents: [
                p.execute_columnar(db, s) for db in databases
            ],
            repeats,
        )
        per_shape.append(
            {
                "shape": name,
                "levels": len(query.tables),
                "interpreted_s": interpreted,
                "compiled_s": compiled,
                "speedup": interpreted / compiled,
                "rows_per_pass": sum(
                    len(plan.execute_columnar(db, site_documents)) for db in databases
                ),
            }
        )

    weakest = min(per_shape, key=lambda shape: shape["speedup"])
    return {
        "repeats": repeats,
        "per_shape": per_shape,
        "interpreted_total_s": sum(s["interpreted_s"] for s in per_shape),
        "compiled_total_s": sum(s["compiled_s"] for s in per_shape),
        "weakest_shape": weakest["shape"],
        "speedup": round(weakest["speedup"], 3),
        "compile_once_s": compile_seconds,
        "rows_identical_pairs": pairs_checked,
        "engine_identical_rows": engine_rows,
        "selection": selection,
    }


def _failures(result: dict) -> list[str]:
    """What the gate rejects: the weakest shape under the floor, or
    selection-under-join evaluating more than selections below the join do."""
    failures = []
    if result["speedup"] < SPEEDUP_FLOOR:
        failures.append(
            f"{result['weakest_shape']} at {result['speedup']}x, below the"
            f" {SPEEDUP_FLOOR}x floor"
        )
    selection = result["selection"]
    if selection["lowered"] > selection["bound"] or selection["compared"]:
        failures.append(
            f"selection-under-join: {selection['lowered']} str.lower calls"
            f" (bound {selection['bound']}) and {selection['compared']} scalar"
            " comparisons (bound 0) per pass"
        )
    return failures


def _report(result: dict) -> None:
    rows = [
        (
            s["shape"],
            s["levels"],
            f"{s['interpreted_s'] * 1e3:.2f}",
            f"{s['compiled_s'] * 1e3:.2f}",
            f"{s['speedup']:.2f}x",
            s["rows_per_pass"],
        )
        for s in result["per_shape"]
    ]
    rows.append(
        (
            "TOTAL",
            "",
            f"{result['interpreted_total_s'] * 1e3:.2f}",
            f"{result['compiled_total_s'] * 1e3:.2f}",
            ratio(result["interpreted_total_s"], result["compiled_total_s"]),
            sum(s["rows_per_pass"] for s in result["per_shape"]),
        )
    )
    body = format_table(
        ("shape", "levels", "interp (ms/pass)", "compiled (ms/pass)", "speedup", "rows"),
        rows,
    )
    body += (
        f"\n\nbest of {result['repeats']} passes per cell; DISQL shapes run over"
        f" the {WEB_CONFIG.sites}x{WEB_CONFIG.pages_per_site} EXP-S1 web (seed"
        f" {WEB_CONFIG.seed}), the rest over {HOT_PAGES} hot pages"
        f" ({HOT_LINKS} links, {HOT_MARKS} marks) / a {SITE_PAGES}-page site"
        f"\ncompile-once cost: {result['compile_once_s'] * 1e3:.2f} ms for"
        f" {len(result['per_shape'])} plans"
        f"\nweakest shape: {result['weakest_shape']} at {result['speedup']}x"
        f" (floor {SPEEDUP_FLOOR}x)"
        f"\nchecked: {result['rows_identical_pairs']} (query, database) pairs"
        f" row-identical; engine runs bit-identical"
        f" ({result['engine_identical_rows']} result rows, filter + joined"
        " query) vs the interpreter"
        f"\nselection-under-join, counted per compiled pass:"
        f" {result['selection']['lowered']} str.lower calls (bound"
        f" {result['selection']['bound']}; {result['selection']['nested']} if"
        f" the leaf selection ran per anchor),"
        f" {result['selection']['compared']} scalar comparisons (bound 0)"
    )
    report("EXP-P1", "node-query hot path: compiled plans vs interpreter", body)


def bench_hotpath(benchmark):
    result = measure()
    _report(result)
    assert not _failures(result), _failures(result)
    __, query, databases, site_documents = _workloads()[0]
    plan = compile_node_query(query)
    benchmark(lambda: [plan.execute_columnar(db, site_documents) for db in databases])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="CI sizing: same checks, floor and count bound, fewer timing repeats",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing passes per cell"
    )
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else (3 if args.check else 7)
    result = measure(repeats=repeats)
    _report(result)

    verdict = (
        f"{result['rows_identical_pairs']} pairs row-identical, engine"
        f" bit-identical, weakest shape {result['weakest_shape']} at"
        f" {result['speedup']}x (floor {SPEEDUP_FLOOR}x), selection-under-join"
        f" {result['selection']['lowered']} str.lower calls per pass (bound"
        f" {result['selection']['bound']})"
    )
    failures = _failures(result)
    if failures:
        print(f"FAIL: {'; '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: {verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
