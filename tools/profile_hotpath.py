#!/usr/bin/env python
"""cProfile harness for the engine's hot paths (first touch / warm / join / wire).

Runs one of four workloads — each rebuilt from the config of the EXP-E1
cell whose layer it isolates — under :mod:`cProfile` and prints the top-N
functions by cumulative time, so a perf regression can be localized
without wiring up an external profiler::

    PYTHONPATH=src python tools/profile_hotpath.py                  # all
    PYTHONPATH=src python tools/profile_hotpath.py --workload build --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --workload warm --json
    PYTHONPATH=src python tools/profile_hotpath.py --workload join --top 40
    PYTHONPATH=src python tools/profile_hotpath.py --workload wire
    PYTHONPATH=src python tools/profile_hotpath.py --out warm.pstats  # dump
    PYTHONPATH=src python tools/profile_hotpath.py --json > prof.json

* ``build`` — the first touch of a page: ``build_node_database`` (the HTML
  scanner and DOCUMENT) plus a read of all three relations — which is what
  builds ANCHOR and RELINFON, link resolution included — over every page of
  EXP-E1's 32×20 spot-check web: the *full* constructor, more than
  ``cold_default`` pays per visit (its query never reads RELINFON).  After
  the profile, two unprofiled lines say which build costs what — µs per
  page for the full build and for scan + DOCUMENT only (``--json``:
  ``build_us_per_page``).  The web is built here from its config;
  ``tools/`` does not import ``benchmarks/e2e``;
* ``warm`` — the warm protocol path, what EXP-E1's ``warm_zipf`` pays: the
  same web, one engine, the 16-query zipf pool run once so every later
  probe is a memo hit, then 100 repeats under the profiler.  What is left
  is protocol — log table, memo probes, clone and report construction,
  CHT, message sizing — and hashing.  After the profile, one line per
  server stage (``docs/architecture.md``, "The server's stages") says what
  it cost a query in that profile — log-table admission, visit, report,
  dispatch and the rest of the pump (``--json``: ``stage_us_per_query``);
* ``join`` — the executor, what EXP-E1's ``eval_join`` pays: the 6×24
  anchor-rich web, one engine warmed by one traversal per start site, then
  the 100 ``anchor × relinfon`` joins with distinct literals (seed 1's).
  After the profile, two unprofiled passes print what one
  ``execute_columnar`` costs — µs, overall and split by whether the leaf's
  selection is empty, and evaluations counted by
  :func:`counted_evaluations`: column folds, ``str.lower`` calls, scalar
  comparisons, and calls per stage and batch kernel, then how many
  executions folded nothing and the ``str.lower`` calls they made — none,
  once every column they read is folded (``--json``:
  ``join_per_execution``).  The counts repeat exactly.  A
  third pass counts the fan-out per query: destinations iterated vs
  forwards emitted (``--json``: ``fanout_per_query``).  Then
  what compiling costs a query of that pool on the warmed engine: µs of
  ``compile_disql`` without and with the engine's templates, µs of plan
  lookups, and how many node-query compiles lowered a shape vs bound one
  (``--json``: ``compile_per_query``);
* ``wire`` — the socket path, what EXP-E1's ``wire_tenants`` pays, with one
  tenant instead of two: the 6×12 mostly-global web on
  ``AsyncioWebDisEngine`` over loopback TCP with the cost model zeroed, the
  12-query pool run once to warm every cache, then 108 sequential queries.
  After the profile, an unprofiled pass of the same loop prints what a query
  costs the event loop — wall, loop iterations, delivered messages, and
  handles (callbacks the loop ran) grouped by callback (``--json``:
  ``wire_loop_per_query``).  The counts repeat to within the few frames
  whose arrival order the kernel decides.  Then what the codec costs one
  result message that pass sent: µs to encode and to decode it again
  (``--json``: ``result_codec_us_per_message``).

``--json`` emits the top-N table as machine-readable JSON (one list per
workload: function, ncalls, tottime, cumtime) for diffing profiles across
commits.  For ``warm`` it adds ``warm_hash_frames_per_query``: the number of
Python-level ``__hash__`` frames one warm query runs, by class — the count
that says how much of the path is still hashing trees (it repeats exactly;
cProfile itself folds every generated ``__hash__`` into one row), and
``report_objects_per_query``: the report, ``ChtEntry`` and CHT record objects
one warm query constructs, by class, next to the clones and nodes it
processed (it repeats exactly too), and ``visits_per_query``: node visits,
node-queries evaluated, log-table drops and rewrites, rows shipped and
modelled bytes per warm query — what the §3.1.1 log table saves, counted.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SORT_KEYS = ("cumulative", "tottime", "ncalls")


def _spot_check_pages() -> list:
    """``(url, html)`` of EXP-E1's spot-check web, built outside the profile."""
    web = _spot_check_web()
    return [(url, web.html_for(url)) for url in web.urls()]


def _build_pass(pages: list, relations: tuple = ("document", "anchor", "relinfon")) -> None:
    """Every page of the spot-check web through the Database Constructor,
    reading ``relations`` of each (a relation is built by its first read)."""
    from repro.model.database import build_node_database

    for url, html in pages:
        database = build_node_database(url, html)
        for name in relations:
            database.relation(name).row_list()


def build_us_per_page(repeats: int = 5) -> dict[str, float]:
    """Unprofiled best-of-``repeats`` µs per page: the full build, and the
    part every visit pays whatever it reads (scan + DOCUMENT)."""
    pages = _spot_check_pages()
    result = {}
    for label, relations in (
        ("full", ("document", "anchor", "relinfon")),
        ("scan_and_document", ("document",)),
    ):
        best = float("inf")
        for __ in range(repeats):
            begin = time.perf_counter()
            _build_pass(pages, relations)
            best = min(best, time.perf_counter() - begin)
        result[label] = round(best / len(pages) * 1e6, 2)
    return result


def _spot_check_web():
    from repro.web.synthetic import SyntheticWebConfig, build_synthetic_web

    return build_synthetic_web(
        SyntheticWebConfig(
            sites=32, pages_per_site=20, local_out_degree=3,
            global_out_degree=2, padding_words=50,
        )
    )


#: Timed queries of one ``warm`` pass (the size of an EXP-E1 block).
WARM_REPEATS = 100


def _warm_engine() -> tuple:
    """``(engine, queries)``: a warmed engine and the zipf repeats to profile.

    The pool is EXP-E1's ``warm_zipf`` one — ``(L|G)*3`` then ``(L|G)*2``
    from eight start sites, zipf weights by rank — run once each so every
    later probe is a memo hit; the repeats are drawn with a fixed seed.
    """
    import random

    from repro import build_engine

    pool = [
        f'select d.url, d.title, a.href from document d such that '
        f'"http://site{index:03d}.example/" (L|G)*{depth} d, anchor a '
        f'where d.title contains "topic"'
        for depth in (3, 2)
        for index in range(0, 32, 4)
    ]
    engine = build_engine(_spot_check_web())
    for text in pool:
        engine.submit_disql(text)
        engine.run()
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)]
    queries = random.Random("profile-warm").choices(pool, weights, k=WARM_REPEATS)
    return engine, queries


def _warm_pass(warmed: tuple) -> None:
    """The warm protocol path: every row and fan-out probe is a memo hit."""
    engine, queries = warmed
    for text in queries:
        engine.submit_disql(text)
        engine.run()


def hash_frames_per_query() -> dict[str, float]:
    """Python-level ``__hash__`` frames per warm query, by class of ``self``.

    A second, unprofiled ``warm`` pass under :func:`sys.setprofile`: cProfile
    merges every dataclass-generated ``__hash__`` into one ``<string>`` row,
    so the per-class view needs the frame's ``self``.  A count, not a time —
    it repeats exactly.
    """
    warmed = _warm_engine()
    frames: Counter = Counter()

    def on_event(frame, event, arg) -> None:
        if event == "call" and frame.f_code.co_name == "__hash__":
            frames[type(frame.f_locals.get("self")).__name__] += 1

    sys.setprofile(on_event)
    try:
        _warm_pass(warmed)
    finally:
        sys.setprofile(None)
    per_query = {
        name: count / WARM_REPEATS for name, count in frames.most_common()
    }
    per_query["total"] = sum(frames.values()) / WARM_REPEATS
    return per_query


#: Classes whose constructions :func:`report_objects_per_query` counts: the
#: report type, CHT entries, and the CHT's records — history rows, read-side
#: instances and the books' own.
REPORT_OBJECT_CLASSES = (
    "CloneReport", "ChtEntry", "ChtRecord", "DispatchInstance", "_Instance",
)


def report_objects_per_query() -> dict[str, float]:
    """Report and CHT objects one warm query constructs, by class.

    A second, unprofiled ``warm`` pass under :func:`sys.setprofile`, counting
    ``__init__`` frames of :data:`REPORT_OBJECT_CLASSES` and, as the yardstick,
    ``clones`` (``CloneProcessor._process`` calls) and ``nodes`` (the
    destination nodes those clones covered).  A count — it repeats exactly.
    """
    warmed = _warm_engine()
    counts: Counter = Counter()

    def on_event(frame, event, arg) -> None:
        if event != "call":
            return
        name = frame.f_code.co_name
        if name == "__init__":
            kind = type(frame.f_locals.get("self")).__name__
            if kind in REPORT_OBJECT_CLASSES:
                counts[kind] += 1
        elif name == "_process" and frame.f_code.co_filename.endswith("visit.py"):
            counts["clones"] += 1
            counts["nodes"] += len(frame.f_locals["clone"].dest)

    sys.setprofile(on_event)
    try:
        _warm_pass(warmed)
    finally:
        sys.setprofile(None)
    per_query = {name: counts[name] / WARM_REPEATS for name in ("clones", "nodes")}
    objects = {name: counts[name] / WARM_REPEATS for name in REPORT_OBJECT_CLASSES}
    per_query.update(objects)
    per_query["total"] = sum(objects.values())
    return per_query


def visits_per_query() -> dict[str, float]:
    """What the node-query log table and the memo leave a warm query to do.

    A second, unprofiled ``warm`` pass read from the engine's own counters:
    node visits (the nodes the log tables admitted — inserted or rewritten),
    node-queries evaluated, log-table drops and rewrites, result rows the
    client received, and modelled bytes sent; then how the visits went —
    served whole by a visit entry of the memo, or down the part path
    (document, rows and fan-out probes), the visit entries stored, and the
    visits in a state with nothing to forward — all per query; and, for the
    whole pass, the flushes and the largest memo any one site held after a
    query.  Counts — they repeat exactly.
    """
    from repro.core import visit

    engine, queries = _warm_engine()
    stats = engine.stats
    memos = [server.memo for server in engine.servers.values()]
    seen: Counter = Counter()
    visit_for, process_node, one_visit = (
        visit.ResultMemo.visit_for, visit.process_node, visit.CloneProcessor._visit
    )

    def counting_visit_for(self, node, key):
        entry = visit_for(self, node, key)
        seen["visit_hits"] += entry is not None
        return entry

    def counting_process_node(*args, **kwargs):
        seen["part_path_visits"] += 1
        return process_node(*args, **kwargs)

    def counting_visit(self, clone, node, row, *args):
        seen["no_fanout_visits"] += not row.fanout()
        return one_visit(self, clone, node, row, *args)

    def counts() -> Counter:
        tables = [server.log_table for server in engine.servers.values()]
        return Counter(
            node_visits=sum(table.inserts + table.rewrites for table in tables),
            node_queries_evaluated=stats.node_queries_evaluated,
            log_drops=sum(table.drops for table in tables),
            log_rewrites=sum(table.rewrites for table in tables),
            bytes=stats.bytes_sent,
            visits_stored=sum(memo.entry_counts()["visits"] for memo in memos),
            memo_flushes=sum(memo.flushes for memo in memos),
        )

    before, rows, high_water = counts(), 0, 0
    visit.ResultMemo.visit_for = counting_visit_for
    visit.process_node = counting_process_node
    visit.CloneProcessor._visit = counting_visit
    try:
        for text in queries:
            handle = engine.submit_disql(text)
            engine.run()
            rows += len(handle.results)
            high_water = max(high_water, max(len(memo) for memo in memos))
    finally:
        visit.ResultMemo.visit_for = visit_for
        visit.process_node = process_node
        visit.CloneProcessor._visit = one_visit
    spent = counts()
    spent.subtract(before)
    spent.update(seen)
    spent["rows_shipped"] = rows
    names = (
        "node_visits", "node_queries_evaluated", "log_drops", "log_rewrites",
        "rows_shipped", "bytes", "visit_hits", "part_path_visits", "visits_stored",
        "no_fanout_visits",
    )
    per_query = {name: round(spent[name] / WARM_REPEATS, 2) for name in names}
    per_query["memo_flushes"] = spent["memo_flushes"]
    per_query["memo_high_water"] = high_water
    return per_query


#: The server's stages: label → ``(file, function)`` whose cumulative
#: profiled time is the stage's.
STAGES = {
    "admission": ("visit.py", "_observe"),
    "visit": ("visit.py", "_visit"),
    "report": ("visit.py", "_report"),
    "dispatch": ("server.py", "_dispatch_and_forward"),
}


def stage_us_per_query(stats: pstats.Stats) -> dict[str, float]:
    """Profiled µs per warm query in each of :data:`STAGES` — cumulative, a
    stage's callees included — and in the rest of the pump:
    ``QueryServer._pump`` minus the clone loop it runs
    (``CloneProcessor._process``).  Read from the ``warm`` profile, so
    the profiler's own overhead is in every number."""
    cumulative: Counter = Counter()
    for (filename, __, function), row in stats.stats.items():
        cumulative[(Path(filename).name, function)] += row[3]
    spent = {label: cumulative[key] for label, key in STAGES.items()}
    pump, clone_loop = cumulative[("server.py", "_pump")], cumulative[("visit.py", "_process")]
    spent["rest of pump"] = pump - clone_loop
    return {label: round(seconds / WARM_REPEATS * 1e6, 1) for label, seconds in spent.items()}


#: eval_join's sizing (``benchmarks/e2e/workloads.py``; restated here
#: because ``tools/`` does not import ``benchmarks/e2e``).
_RICH_SITES, _RICH_PAGES, _TOKENS = 6, 24, 100
_DELIMITERS = ("b", "i", "em", "strong", "u", "tt")


def _join_inputs(seed: int = 1) -> tuple:
    """``(web, warm-up queries, pool)`` of EXP-E1's ``eval_join``."""
    import random

    from repro import WebBuilder

    rng = random.Random(f"e2e-tokens:{seed}")
    tokens = [f"q{value:05x}" for value in rng.sample(range(16**5), _TOKENS)]
    builder = WebBuilder()
    for site_index in range(_RICH_SITES):
        site = builder.site(f"rich{site_index}.example")
        for page in range(_RICH_PAGES):
            serial = site_index * _RICH_PAGES + page
            other = (site_index + 1 + page % (_RICH_SITES - 1)) % _RICH_SITES
            targets = (
                f"/p{(page * 5 + 7) % _RICH_PAGES}.html",
                f"http://rich{other}.example/p{(page * 7 + 3) % _RICH_PAGES}.html",
            )
            segments = 15 + (serial * 5) % 16
            site.page(
                f"/p{page}.html",
                title=f"rich page {site_index}-{page}",
                links=[
                    (f"{_DELIMITERS[j % 6]} ref {j}", f"{targets[j % 2]}#s{j}")
                    for j in range(30 + (serial * 7) % 61)
                ],
                emphasized=[
                    (
                        _DELIMITERS[j % 6],
                        f"segment {tokens[(serial * 3 + j) % _TOKENS]} of page {page}",
                    )
                    for j in range(segments)
                ],
                ruled=[
                    f"ruled {tokens[(serial * 11 + j) % _TOKENS]} block"
                    for j in range(segments // 3)
                ],
            )

    def query(index: int, literal: str) -> str:
        return (
            f'select d.url, a.href, r.text from document d such that '
            f'"http://rich{index % _RICH_SITES}.example/p0.html" '
            f"(G|L)*2 d, anchor a, relinfon r "
            f'where r.text contains "{literal}" and a.label contains r.delimiter '
            f"and a.href != a.base"
        )

    warmup = [query(index, "zzzzzz") for index in range(_RICH_SITES)]
    pool = [query(index, literal) for index, literal in enumerate(tokens)]
    return builder.build(), warmup, pool


def _join_pass(inputs: tuple) -> None:
    """One warmed engine, every pool query once: each node visit compiles
    nothing new after the first and executes the join."""
    from repro import build_engine

    web, warmup, pool = inputs
    engine = build_engine(web)
    for text in (*warmup, *pool):
        engine.submit_disql(text)
        engine.run()


@contextmanager
def counted_evaluations() -> Iterator[Counter]:
    """Count what the executor evaluates inside the block — counts that
    repeat exactly, taken under :func:`sys.setprofile`.

    ``str.lower``: one call per cell a column fold lowers, and per
    ``contains`` operand a scalar closure lowers; ``table folds``: columns
    case-folded (:meth:`Table.folded`, once per table and column);
    ``scalar comparisons``: ``=``/``!=``/ordered closures and interpreter
    nodes (:func:`_coerce_pair` frames); ``columnar.<name>``: calls per
    batch stage and kernel.
    """
    from repro.relational import columnar, table
    from repro.relational.expr import _coerce_pair

    counts: Counter = Counter()

    def on_event(frame, event, arg) -> None:
        if event == "c_call":
            if getattr(arg, "__name__", "") == "lower":
                counts["str.lower"] += 1
        elif event == "call":
            code = frame.f_code
            if code is _coerce_pair.__code__:
                counts["scalar comparisons"] += 1
            elif code is table._fold.__code__:
                counts["table folds"] += 1
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


def _leaf_filter_is_empty(plan, database) -> bool:
    """Whether the conjuncts of ``plan``'s query over its leaf alias alone
    keep no row of ``database`` — for ``eval_join``, whether ``r.text
    contains "<literal>"`` (the leaf's selection, as ``explain --plan``
    shows) selects no segment.  Decided by the interpreter."""
    from repro.relational.expr import Attr, attrs_referenced, conjoin, conjuncts
    from repro.relational.query import NodeQuery, evaluate_node_query

    query = plan.query
    leaf = query.tables[-1]
    local = [
        conjunct for conjunct in conjuncts(query.where)
        if all(attr.alias == leaf.alias for attr in attrs_referenced(conjunct))
    ]
    attribute = database.relation(leaf.relation).schema.attributes[0]
    alone = NodeQuery((Attr(leaf.alias, attribute),), (leaf,), conjoin(local))
    return not evaluate_node_query(alone, database)


def join_per_execution() -> dict:
    """What one ``execute_columnar`` of ``eval_join`` costs (unprofiled):
    wall µs, overall and split by whether the leaf's selection (``r.text
    contains ...``) is empty — classified after the timed pass — and
    evaluations counted on a second pass."""
    from repro.relational.compile import CompiledPlan

    inputs = _join_inputs()
    original = CompiledPlan.execute_columnar
    timed_executions = []

    def timed(self, database, site_documents=None):
        begin = time.perf_counter()
        try:
            return original(self, database, site_documents)
        finally:
            timed_executions.append((self, database, time.perf_counter() - begin))

    CompiledPlan.execute_columnar = timed  # type: ignore[method-assign]
    try:
        _join_pass(inputs)
    finally:
        CompiledPlan.execute_columnar = original  # type: ignore[method-assign]
    spent = {True: [0, 0.0], False: [0, 0.0]}
    for plan, database, seconds in timed_executions:
        tally = spent[_leaf_filter_is_empty(plan, database)]
        tally[0] += 1
        tally[1] += seconds
    executions = len(timed_executions)

    def split(empty: bool) -> dict:
        count, seconds = spent[empty]
        return {
            "executions": count,
            "us_per_execution": round(seconds / count * 1e6, 2) if count else None,
        }

    # An execution that folds nothing reads every column it needs folded.
    unfolded = {"executions": 0, "str.lower": 0}
    with counted_evaluations() as counts:

        def counted(self, database, site_documents=None):
            folds, lowers = counts["table folds"], counts["str.lower"]
            try:
                return original(self, database, site_documents)
            finally:
                if counts["table folds"] == folds:
                    unfolded["executions"] += 1
                    unfolded["str.lower"] += counts["str.lower"] - lowers

        CompiledPlan.execute_columnar = counted  # type: ignore[method-assign]
        try:
            _join_pass(inputs)
        finally:
            CompiledPlan.execute_columnar = original  # type: ignore[method-assign]
    return {
        "executions": executions,
        "us_per_execution": round((spent[True][1] + spent[False][1]) / executions * 1e6, 2),
        "leaf_selection_empty": split(True),
        "leaf_selection_nonempty": split(False),
        "evaluations_per_execution": {
            name: round(count / executions, 2) for name, count in sorted(counts.items())
        },
        "executions_folding_nothing": unfolded,
    }


def fanout_per_query() -> dict:
    """Fan-out work per ``eval_join`` query on a warmed engine: the
    destinations ``_emit_forwards`` iterates (one ``Forward`` built per
    destination and state) vs the forwards it emits.  Counts; they repeat
    exactly."""
    from repro import build_engine
    from repro.core import processing

    web, warmup, pool = _join_inputs()
    engine = build_engine(web)
    for text in warmup:
        engine.submit_disql(text)
        engine.run()
    counts: Counter = Counter()
    forward, emit_forwards = processing.Forward, processing._emit_forwards

    def counted_forward(row, target):
        counts["destinations"] += 1
        return forward(row, target)

    def counted_emit_forwards(outcome, *args):
        before = len(outcome.forwards)
        emit_forwards(outcome, *args)
        counts["forwards"] += len(outcome.forwards) - before

    processing.Forward = counted_forward
    processing._emit_forwards = counted_emit_forwards
    try:
        for text in pool:
            engine.submit_disql(text)
            engine.run()
    finally:
        processing.Forward = forward
        processing._emit_forwards = emit_forwards
    return {
        "queries": len(pool),
        "destinations_iterated": round(counts["destinations"] / len(pool), 2),
        "forwards_emitted": round(counts["forwards"] / len(pool), 2),
    }


def compile_per_query(repeats: int = 5) -> dict:
    """What compiling costs one ``eval_join`` query on a warmed engine
    (unprofiled): ``compile_disql`` µs without and with the engine's
    templates (best of ``repeats`` passes over the pool), plan-lookup µs
    (``PlanCache.plan_for``, value misses included), and the node-query
    compiles of one pass over the pool that lowered a shape vs bound one."""
    import repro.core.plancache as plancache_module
    import repro.relational.compile as compile_module
    from repro import build_engine
    from repro.disql import compile_disql

    web, warmup, pool = _join_inputs()
    engine = build_engine(web)
    for text in warmup:
        engine.submit_disql(text)
        engine.run()

    plan_for = plancache_module.PlanCache.plan_for
    compile_node_query = plancache_module.compile_node_query
    lower = compile_module._lower
    counts = {"lookup_s": 0.0, "compiles": 0, "lowerings": 0}

    def timed_plan_for(self, query, origin=None):
        begin = time.perf_counter()
        try:
            return plan_for(self, query, origin)
        finally:
            counts["lookup_s"] += time.perf_counter() - begin

    def counted_compile(query, lowerings=None):
        counts["compiles"] += 1
        return compile_node_query(query, lowerings)

    def counted_lower(query, where):
        counts["lowerings"] += 1
        return lower(query, where)

    plancache_module.PlanCache.plan_for = timed_plan_for  # type: ignore[method-assign]
    plancache_module.compile_node_query = counted_compile
    compile_module._lower = counted_lower
    try:
        for text in pool:
            engine.submit_disql(text)
            engine.run()
    finally:
        plancache_module.PlanCache.plan_for = plan_for  # type: ignore[method-assign]
        plancache_module.compile_node_query = compile_node_query
        compile_module._lower = lower

    def per_query_us(**kwargs) -> float:
        best = float("inf")
        for __ in range(repeats):
            begin = time.perf_counter()
            for text in pool:
                compile_disql(text, **kwargs)
            best = min(best, time.perf_counter() - begin)
        return round(best / len(pool) * 1e6, 2)

    return {
        "queries": len(pool),
        "disql_us": {
            "compile": per_query_us(),
            "template": per_query_us(templates=engine._templates),
        },
        "plan_lookup_us": round(counts["lookup_s"] / len(pool) * 1e6, 2),
        "node_compiles": {
            "lowerings": counts["lowerings"],
            "binds": counts["compiles"] - counts["lowerings"],
        },
    }


#: Timed queries of one ``wire`` pass (the size of an EXP-E1 block).
WIRE_REPEATS = 108


def _wire_inputs() -> tuple:
    """``(web, pool)`` of EXP-E1's ``wire_tenants``, built from their configs."""
    from repro.web.synthetic import SyntheticWebConfig, build_synthetic_web

    web = build_synthetic_web(
        SyntheticWebConfig(
            sites=6, pages_per_site=12, local_out_degree=2,
            global_out_degree=3, padding_words=30,
        )
    )
    web.total_bytes()  # pages render lazily
    pool = [
        f'select d.url, d.title, a.href from document d such that '
        f'"http://site{site:03d}.example{path}" (L|G)*2 d, anchor a '
        f'where d.title contains "topic"'
        for site in range(6)
        for path in ("/", "/page1.html")
    ]
    return web, pool


def _wire_pass(
    inputs: tuple, measure: dict | None = None, tapped: list | None = None
) -> None:
    """One tenant's closed loop over real loopback sockets.

    With ``measure`` the timed part runs under the loop counters and fills
    it, and every result message it sends is appended to ``tapped``;
    without, it just runs (under whatever profiler the caller enabled).
    """
    import asyncio

    from repro import EngineConfig
    from repro.core.aio_engine import AsyncioWebDisEngine
    from repro.core.messages import ResultMessage
    from repro.testing.loopcost import count_handles

    web, pool = inputs
    config = EngineConfig(
        transport="asyncio", node_service_time=0.0,
        parse_time_per_kb=0.0, eval_time_per_tuple=0.0,
    )

    async def main() -> None:
        engine = AsyncioWebDisEngine(web, config=config)
        loop = asyncio.get_running_loop()
        try:
            async def one(text: str) -> None:
                done = loop.create_future()
                engine.submit_disql(text, on_complete=lambda handle: done.set_result(None))
                await done

            for text in pool:
                await one(text)
            queries = (pool * (WIRE_REPEATS // len(pool) + 1))[:WIRE_REPEATS]
            if measure is None:
                for text in queries:
                    await one(text)
                return
            iterations = [0]
            run_once = loop._run_once

            def counted_run_once() -> None:
                iterations[0] += 1
                run_once()

            loop._run_once = counted_run_once  # type: ignore[method-assign]
            if tapped is not None:

                def tap(now, src, dst, port, payload) -> None:
                    if isinstance(payload, ResultMessage):
                        tapped.append(payload)

                engine.network.add_tap(tap)
            messages = engine.stats.messages_sent
            with count_handles() as handles:
                begin = time.perf_counter()
                for text in queries:
                    await one(text)
                wall = time.perf_counter() - begin
                by_callback = dict(handles.most_common())
            del loop._run_once  # back to the class's method
            measure.update(
                wall_ms=round(wall / WIRE_REPEATS * 1e3, 3),
                loop_iterations=round(iterations[0] / WIRE_REPEATS, 2),
                messages=round((engine.stats.messages_sent - messages) / WIRE_REPEATS, 2),
                handles=round(sum(by_callback.values()) / WIRE_REPEATS, 2),
                handles_by_callback={
                    name: round(count / WIRE_REPEATS, 2) for name, count in by_callback.items()
                },
            )
        finally:
            await engine.aclose()

    asyncio.run(main())


def wire_loop_per_query(tapped: list) -> dict:
    """What one sequential socket query costs the event loop (unprofiled);
    the result messages it sent are appended to ``tapped``."""
    measured: dict = {}
    _wire_pass(_wire_inputs(), measured, tapped)
    return measured


def result_codec_us_per_message(messages: list, repeats: int = 5) -> dict:
    """µs per result message to encode, to decode, and both: the result
    messages a ``wire`` pass sent, coded again here (unprofiled, best of
    ``repeats``, the codec's tables warm as in the pass)."""
    from repro.wire import decode_message, encode_message

    best_encode = best_decode = float("inf")
    for __ in range(repeats):
        begin = time.perf_counter()
        encoded = [encode_message(message) for message in messages]
        middle = time.perf_counter()
        for blob in encoded:
            decode_message(blob)
        best_encode = min(best_encode, middle - begin)
        best_decode = min(best_decode, time.perf_counter() - middle)
    count = len(messages)
    return {
        "messages": count,
        "bytes": round(sum(map(len, encoded)) / count, 1),
        "encode": round(best_encode / count * 1e6, 2),
        "decode": round(best_decode / count * 1e6, 2),
        "total": round((best_encode + best_decode) / count * 1e6, 2),
    }


#: Per workload: what prepares its input before the profiler is switched on,
#: and the pass that is profiled.
WORKLOADS = {
    "build": (_spot_check_pages, _build_pass),
    "warm": (_warm_engine, _warm_pass),
    "join": (_join_inputs, _join_pass),
    "wire": (_wire_inputs, _wire_pass),
}


def profile_workload(
    name: str, sort: str, top: int, out: str | None
) -> tuple[str, list[dict], pstats.Stats]:
    """Profile one workload; returns (stats text, JSON rows, the stats)."""
    prepare, run_pass = WORKLOADS[name]
    inputs = prepare()
    profiler = cProfile.Profile()
    profiler.enable()
    run_pass(inputs)
    profiler.disable()

    if out:
        profiler.dump_stats(out)

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)

    sort_index = {"cumulative": 3, "tottime": 2, "ncalls": 1}[sort]
    entries = sorted(
        (
            {
                "function": f"{filename}:{line}({func})",
                "ncalls": ncalls,
                "tottime": round(tottime, 6),
                "cumtime": round(cumtime, 6),
            }
            for (filename, line, func), (__, ncalls, tottime, cumtime, __c)
            in stats.stats.items()
        ),
        key=lambda row: (row["ncalls"], row["tottime"], row["cumtime"])[
            sort_index - 1
        ],
        reverse=True,
    )[:top]
    return buffer.getvalue(), entries, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all",
        help="which perf workload to profile (default: all)",
    )
    parser.add_argument(
        "--top", type=int, default=25, help="functions to print (default 25)"
    )
    parser.add_argument(
        "--sort", choices=SORT_KEYS, default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also dump raw pstats data to this path (snakeviz-compatible)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the top-N table as JSON instead of pstats text",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    as_json: dict[str, object] = {}
    for name in names:
        out = None
        if args.out:
            out = args.out if len(names) == 1 else f"{name}-{args.out}"
        text, entries, stats = profile_workload(name, args.sort, args.top, out)
        stages = stage_us_per_query(stats) if name == "warm" else None
        per_page = build_us_per_page() if name == "build" else None
        tapped: list = []
        per_query = wire_loop_per_query(tapped) if name == "wire" else None
        codec = result_codec_us_per_message(tapped) if tapped else None
        per_execution = join_per_execution() if name == "join" else None
        compiles = compile_per_query() if name == "join" else None
        fanout = fanout_per_query() if name == "join" else None
        if args.json:
            as_json[name] = entries
            if stages:
                as_json["stage_us_per_query"] = stages
                as_json["warm_hash_frames_per_query"] = hash_frames_per_query()
                as_json["report_objects_per_query"] = report_objects_per_query()
                as_json["visits_per_query"] = visits_per_query()
            if per_page:
                as_json["build_us_per_page"] = per_page
            if per_query:
                as_json["wire_loop_per_query"] = per_query
                as_json["result_codec_us_per_message"] = codec
            if per_execution:
                as_json["join_per_execution"] = per_execution
                as_json["compile_per_query"] = compiles
                as_json["fanout_per_query"] = fanout
        else:
            print(f"== {name.upper()} workload — top {args.top} by {args.sort} ==")
            print(text)
            if stages:
                print(f"per warm query, by server stage (profiled µs, {WARM_REPEATS} queries):")
                for label, us in stages.items():
                    print(f"  {us:10.1f}  {label}")
                print()
            if per_page:
                print(f"full build (all three relations read): {per_page['full']} µs/page")
                print(f"scan + DOCUMENT only: {per_page['scan_and_document']} µs/page\n")
            if per_execution:
                empty = per_execution["leaf_selection_empty"]
                nonempty = per_execution["leaf_selection_nonempty"]
                print(
                    f"per execute_columnar (unprofiled, {per_execution['executions']} "
                    f"executions): {per_execution['us_per_execution']} µs — leaf selection"
                    f" empty {empty['executions']} × {empty['us_per_execution']} µs,"
                    f" non-empty {nonempty['executions']} × {nonempty['us_per_execution']} µs;"
                    " evaluations:"
                )
                for name, count in per_execution["evaluations_per_execution"].items():
                    print(f"  {count:10.2f}  {name}")
                unfolded = per_execution["executions_folding_nothing"]
                print(
                    f"executions that folded nothing: {unfolded['executions']},"
                    f" with {unfolded['str.lower']} str.lower calls between them"
                )
                print(
                    f"fan-out per query ({fanout['queries']} queries, warmed engine):"
                    f" {fanout['destinations_iterated']} destinations iterated,"
                    f" {fanout['forwards_emitted']} forwards emitted"
                )
                print(
                    f"per query (unprofiled, {compiles['queries']} queries, warmed engine):"
                    f" compile_disql {compiles['disql_us']['compile']} µs, through the"
                    f" engine's templates {compiles['disql_us']['template']} µs; plan"
                    f" lookups {compiles['plan_lookup_us']} µs; node-query compiles:"
                    f" {compiles['node_compiles']['lowerings']} lowered,"
                    f" {compiles['node_compiles']['binds']} bound\n"
                )
            if per_query:
                print(
                    f"per sequential query (unprofiled, {WIRE_REPEATS} queries): "
                    f"{per_query['wall_ms']} ms wall, {per_query['loop_iterations']} loop "
                    f"iterations, {per_query['messages']} delivered messages, "
                    f"{per_query['handles']} handles:"
                )
                for callback, count in per_query["handles_by_callback"].items():
                    print(f"  {count:8.2f}  {callback}")
                print(
                    f"per result message ({codec['messages']} tapped, {codec['bytes']} bytes):"
                    f" encode {codec['encode']} µs, decode {codec['decode']} µs\n"
                )
        if out and not args.json:
            print(f"raw profile dumped to {out}")
    if args.json:
        print(json.dumps(as_json, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
