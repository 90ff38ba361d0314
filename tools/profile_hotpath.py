#!/usr/bin/env python
"""cProfile harness for the engine's hot paths (first touch / warm / join / wire).

Runs one of four workloads — each on the web and queries of the EXP-E1 cell
whose layer it isolates, imported read-only from
``benchmarks/e2e/workloads.py`` — under :mod:`cProfile`, prints the top-N
functions by cumulative time, then the workload's derived figures as one
JSON object (``--json`` puts its keys beside the top-N tables, for diffing a
change against its parent)::

    PYTHONPATH=src python tools/profile_hotpath.py                  # all
    PYTHONPATH=src python tools/profile_hotpath.py --workload build --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --workload join --top 40
    PYTHONPATH=src python tools/profile_hotpath.py --out warm.pstats  # dump
    PYTHONPATH=src python tools/profile_hotpath.py --json > prof.json

* ``build`` — ``build_node_database`` plus a read of all three relations
  (what builds ANCHOR and RELINFON) over every page of the 32×20 spot-check
  web: the *full* constructor.  Then unprofiled µs per page for the full
  build and for scan + DOCUMENT only (``build_us_per_page``), and the bytes
  a cached database keeps per page after scan + DOCUMENT, after a reach
  visit and after the ``cold_default`` pool's plans and the interpreter ran
  on that web, and after a full read and after the ``eval_join`` pool's
  plans and the interpreter ran on ``eval_join``'s rich web
  (``retained_bytes_per_page``);
* ``warm`` — what ``warm_zipf`` pays: one engine, the 16-query zipf pool run
  once so every later probe is a memo hit, then 100 repeats — protocol and
  hashing.  Then the profiled µs per query of each server stage
  (``stage_us_per_query``; ``docs/architecture.md``, "The server's
  stages"), and counts per query from unprofiled passes: ``__hash__`` frames
  and report / CHT objects constructed, by class
  (``warm_hash_frames_per_query``, ``report_objects_per_query``), and what
  the §3.1.1 log table and the memo leave a query to do
  (``visits_per_query``); then the modelled bytes per query of an
  unprofiled pass by part — envelope, clone query text, clone rest, report
  URLs, ids, rows, states and ends (``bytes_per_query_by_part``) — the
  clone query text a link, or a destination, had already been sent for the
  same query (``repeated_query_bytes_per_query``), and the µs per query of
  the ``ResultMessage.size_bytes()`` walks of that pass's result messages, a
  micro-benchmark figure (``sizing_us_per_query``);
* ``join`` — what ``eval_join`` pays: the 6×24 anchor-rich web, one engine
  warmed by one traversal per start site, then 100 ``anchor × relinfon``
  joins with distinct literals.  Then calls of and profiled µs per
  ``execute_columnar`` and the evaluations of one, counted by
  :func:`counted_evaluations` (``join_per_execution``), and what compiling
  costs a pool query on the warmed engine: ``compile_disql`` µs without and
  with the engine's templates, node-query compiles lowered vs bound, and
  profiled µs per plan lookup (``compile_per_query``);
* ``wire`` — what ``wire_tenants`` pays with one tenant instead of two: the
  6×12 web on ``AsyncioWebDisEngine`` over loopback TCP, the 12-query pool
  run once, then 108 sequential queries.  Then, from an unprofiled pass,
  wall, loop iterations, delivered messages, the real bytes of the frames
  they travelled in beside their modelled ``net.bytes``, and loop handles by
  callback per query (``wire_loop_per_query``), µs to encode and decode
  again one result message that pass sent (``result_codec_us_per_message``),
  and the modelled bytes per query of that pass by part
  (``bytes_per_query_by_part``) and of repeated clone query text
  (``repeated_query_bytes_per_query``).

Counts repeat exactly (``wire``'s to within the frames whose arrival order
the kernel decides).  Each is read from the engine's own counters
(``NodeQueryLogTable``, ``ResultMemo``, ``CloneProcessor``, ``PlanCache``,
``TrafficStats``) or tallied under :func:`sys.setprofile`: the tool rebinds
nothing in ``repro`` (``tests/test_perf_hotpath.py::TestToolsPatchNothing``).
With several workloads, ``--out dir/p.pstats`` writes ``dir/<workload>-p.pstats``.
"""
from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import pstats
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.append(str(REPO_ROOT / "benchmarks" / "e2e"))  # workloads.py, read only

SORT_KEYS = ("cumulative", "tottime", "ncalls")
#: The EXP-E1 seed every input is built with (it names ``eval_join``'s literals).
SEED = 1


def _e1(name: str):
    """EXP-E1's workload ``name``: its web builder, query plan and config."""
    from workloads import WORKLOADS

    return next(workload for workload in WORKLOADS if workload.name == name)


def _run_all(engine, texts) -> None:
    """Each query of ``texts`` in turn, run to completion."""
    for text in texts:
        engine.submit_disql(text)
        engine.run()


def _pages(workload: str) -> list:
    """``(url, html)`` of EXP-E1 ``workload``'s web, built outside the profile."""
    web = _e1(workload).build_web(SEED)
    return [(url, web.html_for(url)) for url in web.urls()]


def _spot_check_pages() -> list:
    """``(url, html)`` of EXP-E1's spot-check web (``cold_default``)."""
    return _pages("cold_default")


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


def read_document(database) -> None:
    """What every visit reads of a database: DOCUMENT and the tuple count."""
    database.document
    database.tuple_count()


def read_reach(database) -> None:
    """What a visit of ``cold_default``'s reach query reads: DOCUMENT, ANCHOR
    and where the page's links lead."""
    from repro.model import LinkType

    read_document(database)
    database.anchor
    database.forward_targets(LinkType.LOCAL)


def read_all(database) -> None:
    """A reach visit's reads, then RELINFON: every relation built."""
    read_reach(database)
    database.relinfon


def pool_read(workload: str):
    """A read that runs every node-query shape of EXP-E1 ``workload``'s pool
    (the first query of each) through its compiled plan and through the
    interpreter, after a full read: what the executors leave on a cached
    page.  The plans are compiled here, before anything is traced."""
    from collections import OrderedDict

    from repro.disql import compile_disql
    from repro.relational.compile import compile_node_query

    lowerings: OrderedDict = OrderedDict()
    plans = []
    for text in _e1(workload).plan(SEED).pool:
        for step in compile_disql(text).steps:
            shapes = len(lowerings)
            plan = compile_node_query(step.query, lowerings)
            if len(lowerings) > shapes and not step.query.sitewide_aliases:
                plans.append(plan)

    def read_pool(database) -> None:
        read_all(database)
        for plan in plans:
            plan.execute_columnar(database)
            plan.execute(database)

    return read_pool


def retained_bytes(pages: list, read) -> float:
    """Bytes per page that the database of each of ``pages`` keeps once
    ``read`` has read it: traced by :mod:`tracemalloc` after
    :func:`gc.collect`, beyond what the pages and the process held before.
    An untraced pass goes first, so what a first build fills once per
    process (the tag-name table, each URL's cached text) is not counted."""
    from repro.model.database import build_node_database

    for url, html in pages:
        read(build_node_database(url, html))
    databases = [None] * len(pages)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index, (url, html) in enumerate(pages):
            databases[index] = database = build_node_database(url, html)
            read(database)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / len(pages)


def retained_bytes_per_page() -> dict[str, int]:
    """What a cached page costs, for five read patterns: scan + DOCUMENT, a
    reach visit and the pool's executors (:func:`pool_read`) on the
    spot-check web, a full read and the pool's executors on ``eval_join``'s
    rich web (``tests/test_retained_pages.py`` bounds all but the first)."""
    spot, rich = _spot_check_pages(), _pages("eval_join")
    return {
        "spot_scan_and_document": round(retained_bytes(spot, read_document)),
        "spot_reach_visit": round(retained_bytes(spot, read_reach)),
        "spot_pool_read": round(retained_bytes(spot, pool_read("cold_default"))),
        "rich_full_read": round(retained_bytes(rich, read_all)),
        "rich_pool_read": round(retained_bytes(rich, pool_read("eval_join"))),
    }


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

    workload = _e1("warm_zipf")
    plan = workload.plan(SEED)
    engine = build_engine(workload.build_web(SEED))
    _run_all(engine, plan.warmup)
    queries = random.Random("profile-warm").choices(plan.pool, plan.weights, k=WARM_REPEATS)
    return engine, queries


def _warm_pass(warmed: tuple) -> None:
    """The warm protocol path: every row and fan-out probe is a memo hit."""
    _run_all(*warmed)


def _tally(on_event, run_pass, inputs) -> None:
    """``run_pass(inputs)``, unprofiled, with ``on_event`` as the
    :func:`sys.setprofile` hook that counts its frames."""
    sys.setprofile(on_event)
    try:
        run_pass(inputs)
    finally:
        sys.setprofile(None)


#: Classes whose constructions :func:`frames_per_query` counts: the report
#: type, CHT entries, and the CHT's records — history rows, read-side
#: instances and the books' own.
REPORT_OBJECT_CLASSES = ("CloneReport", "ChtEntry", "ChtRecord", "DispatchInstance", "_Instance")


def frames_per_query() -> tuple[dict[str, float], dict[str, float]]:
    """``(hash frames, report objects)`` per warm query — counts that repeat
    exactly, from a second, unprofiled ``warm`` pass under :func:`sys.setprofile`.

    Hash frames: Python-level ``__hash__`` frames by class of ``self``
    (cProfile merges every dataclass-generated ``__hash__`` into one
    ``<string>`` row, so the per-class view needs the frame's ``self``).
    Report objects: ``__init__`` frames of :data:`REPORT_OBJECT_CLASSES`
    and, as the yardstick, ``clones`` (``CloneProcessor._process`` calls)
    and ``nodes`` (the destination nodes those clones covered).
    """
    hashes: Counter = Counter()
    counts: Counter = Counter()

    def on_event(frame, event, arg) -> None:
        if event != "call":
            return
        name = frame.f_code.co_name
        if name == "__hash__":
            hashes[type(frame.f_locals.get("self")).__name__] += 1
        elif name == "__init__":
            kind = type(frame.f_locals.get("self")).__name__
            if kind in REPORT_OBJECT_CLASSES:
                counts[kind] += 1
        elif name == "_process" and frame.f_code.co_filename.endswith("visit.py"):
            counts["clones"] += 1
            counts["nodes"] += len(frame.f_locals["clone"].dest)

    _tally(on_event, _warm_pass, _warm_engine())
    frames = {name: count / WARM_REPEATS for name, count in hashes.most_common()}
    frames["total"] = sum(hashes.values()) / WARM_REPEATS
    objects = {name: counts[name] / WARM_REPEATS for name in ("clones", "nodes")}
    constructed = {name: counts[name] / WARM_REPEATS for name in REPORT_OBJECT_CLASSES}
    objects.update(constructed)
    objects["total"] = sum(constructed.values())
    return frames, objects


def visits_per_query() -> dict[str, float]:
    """What the node-query log table and the memo leave a warm query to do.

    A second, unprofiled ``warm`` pass read from the engine's own counters:
    node visits (the nodes the log tables admitted — inserted or rewritten),
    node-queries evaluated, log-table drops and rewrites, result rows the
    client received, and modelled bytes sent; then how the visits went —
    served whole by a visit entry of the memo (``ResultMemo.visit_hits``),
    or down the part path (``CloneProcessor.part_path_visits``: document,
    rows and fan-out probes), the visit entries stored, and the visits in a
    state with nothing to forward (``CloneProcessor.no_fanout_visits``) —
    all per query; and, for the whole pass, the flushes and the largest memo
    any one site held after a query.  Counts — they repeat exactly.
    """
    engine, queries = _warm_engine()
    stats = engine.stats
    servers = list(engine.servers.values())
    memos = [server.memo for server in servers]

    def counts() -> Counter:
        tables = [server.log_table for server in servers]
        return Counter(
            node_visits=sum(table.inserts + table.rewrites for table in tables),
            node_queries_evaluated=stats.node_queries_evaluated,
            log_drops=sum(table.drops for table in tables),
            log_rewrites=sum(table.rewrites for table in tables),
            bytes=stats.bytes_sent,
            visit_hits=sum(memo.visit_hits for memo in memos),
            part_path_visits=sum(server.part_path_visits for server in servers),
            visits_stored=sum(memo.entry_counts()["visits"] for memo in memos),
            no_fanout_visits=sum(server.no_fanout_visits for server in servers),
            memo_flushes=sum(memo.flushes for memo in memos),
        )

    before, rows, high_water = counts(), 0, 0
    for text in queries:
        handle = engine.submit_disql(text)
        engine.run()
        rows += len(handle.results)
        high_water = max(high_water, max(len(memo) for memo in memos))
    spent = counts()
    spent.subtract(before)  # keeps the zeros
    spent["rows_shipped"] = rows
    flushes = spent.pop("memo_flushes")
    per_query = {name: round(count / WARM_REPEATS, 2) for name, count in spent.items()}
    return {**per_query, "memo_flushes": flushes, "memo_high_water": high_water}


#: The parts ``bytes_per_query_by_part`` splits modelled bytes into.
BYTE_PARTS = (
    "envelope", "clone_query", "clone_rest", "report_urls", "ids", "rows", "states_ends",
)


def _report_parts(message, parts: Counter) -> None:
    """Add one result message's report bytes to ``parts``, read off the body
    its one sizing walk writes (``core.messages._write_reports``): URLs and
    ids as written — a string at its length and two quotes, an index or a
    child id step at its length, a ditto at 1 — states with the per-report
    and per-node framing, and the rest of the walk's charge, the rows."""
    from repro.core.messages import _write_reports

    def written(spelled) -> int:
        if type(spelled) is list:  # a ditto
            return 1
        return len(spelled) + 2 if type(spelled) is str else len(str(spelled))

    bodies: list = []
    total = _write_reports(message.reports, bodies)
    charged = 0
    for report, body in zip(message.reports, bodies):
        urls = sum(map(written, body["n"])) + sum(written(url) for url, __, __ in body["a"])
        ids = sum(written(cid) for __, __, cid in body["a"])
        if "i" in body:
            ids += written(body["i"])
        states = report.state.size_bytes() + 4 + 5 * len(report.nodes) + sum(
            1 if type(spelled) is list else state.size_bytes()
            for (__, spelled, __), (__, state) in zip(body["a"], report.new_entries)
        )
        parts["report_urls"] += urls
        parts["ids"] += ids
        parts["states_ends"] += states
        charged += urls + ids + states
    parts["rows"] += total - charged


def bytes_by_part(payloads: list, queries: int, envelope: int) -> dict[str, float]:
    """Modelled bytes per query of ``payloads``, by what carries them.

    ``envelope``: each message's network envelope (``envelope`` bytes,
    ``NetworkConfig.envelope_bytes``) and its own fixed fields
    (a result message's query id, a relay's path); ``clone_query`` /
    ``clone_rest``: a clone's query share — once per bundle — and its own
    fields; ``report_urls``, ``ids`` (dispatch and child ids), ``rows`` and
    ``states_ends`` (states and the per-report and per-node framing): what
    the reports of result messages write.  ``total`` is their sum, which is
    what ``TrafficStats.bytes_sent`` counted for them.
    """
    from repro.core.messages import CloneBundle, RelayMessage, ResultMessage
    from repro.core.webquery import QueryClone

    parts: Counter = Counter({part: 0 for part in BYTE_PARTS})
    total = 0
    for payload in payloads:
        size = payload.size_bytes()
        total += size + envelope
        parts["envelope"] += envelope
        if isinstance(payload, RelayMessage):
            parts["envelope"] += size - payload.inner.size_bytes()
            payload = payload.inner
        if isinstance(payload, ResultMessage):
            parts["envelope"] += payload.qid.size_bytes() + 8
            _report_parts(payload, parts)
            continue
        clones = payload.clones if isinstance(payload, CloneBundle) else (payload,)
        if not isinstance(payload, (CloneBundle, QueryClone)):
            raise TypeError(f"no parts for {type(payload).__name__}")
        query = max(clone.query_bytes() for clone in clones)
        own = sum(clone.own_bytes() for clone in clones)
        parts["clone_query"] += query
        parts["clone_rest"] += own
        parts["envelope"] += size - query - own
    assert sum(parts.values()) == total, (parts, total)
    by_part = {part: round(parts[part] / queries, 2) for part in BYTE_PARTS}
    by_part["total"] = round(total / queries, 2)
    return by_part


def sizing_us_per_query(payloads: list, queries: int, repeats: int = 5) -> dict[str, float]:
    """µs to size the result messages of ``payloads`` once, per query: one
    ``ResultMessage.size_bytes()`` walk each, on fresh copies so no cached
    size is read (unprofiled, best of ``repeats``).  A micro-benchmark: the
    figure leaves out everything else a send does."""
    from repro.core.messages import ResultMessage

    messages = [payload for payload in payloads if isinstance(payload, ResultMessage)]
    best = float("inf")
    for __ in range(repeats):
        copies = [ResultMessage(m.qid, m.reports, m.kind) for m in messages]
        begin = time.perf_counter()
        for message in copies:
            message.size_bytes()
        best = min(best, time.perf_counter() - begin)
    return {
        "micro_only": round(best / queries * 1e6, 1),
        "messages": round(len(messages) / queries, 2),
    }


def repeated_query_bytes(sends: list, queries: int) -> dict[str, float]:
    """Modelled clone query text per query that a link, or a destination,
    had already been sent for the same query.

    ``sends`` are ``(src, dst, payload)``; a clone or bundle carries its
    query's share once (``clone_query`` of :func:`bytes_by_part`).
    ``after_first_per_link``: the shares sent on a ``(src, dst, qid)`` after
    its first; ``after_first_per_destination``: the shares sent to a
    ``(dst, qid)`` after its first, from any source — what sending the query
    once per link, or once per destination, would leave out.
    """
    from repro.core.messages import CloneBundle
    from repro.core.webquery import QueryClone

    links: set = set()
    destinations: set = set()
    repeated = Counter(after_first_per_link=0, after_first_per_destination=0)
    for src, dst, payload in sends:
        if not isinstance(payload, (QueryClone, CloneBundle)):
            continue
        clones = payload.clones if isinstance(payload, CloneBundle) else (payload,)
        share = max(clone.query_bytes() for clone in clones)
        qid = clones[0].query.qid
        for name, key, seen in (
            ("after_first_per_link", (src, dst, qid), links),
            ("after_first_per_destination", (dst, qid), destinations),
        ):
            if key in seen:
                repeated[name] += share
            seen.add(key)
    return {name: round(count / queries, 2) for name, count in repeated.items()}


def warm_bytes_per_query() -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """``bytes_by_part``, ``repeated_query_bytes`` and ``sizing_us_per_query``
    of one unprofiled warm pass."""
    engine, queries = _warm_engine()
    sends: list = []
    engine.network.add_tap(lambda now, src, dst, port, payload: sends.append((src, dst, payload)))
    _warm_pass((engine, queries))
    envelope = engine.network.config.envelope_bytes
    sent = [payload for __, __, payload in sends]
    return (
        bytes_by_part(sent, WARM_REPEATS, envelope),
        repeated_query_bytes(sends, WARM_REPEATS),
        sizing_us_per_query(sent, WARM_REPEATS),
    )


def _by_function(stats: pstats.Stats) -> tuple[Counter, Counter]:
    """Calls and cumulative seconds per ``(file name, function)`` of a profile."""
    calls: Counter = Counter()
    cumulative: Counter = Counter()
    for (filename, __, function), row in stats.stats.items():  # directories stripped
        calls[(filename, function)] += row[1]
        cumulative[(filename, function)] += row[3]
    return calls, cumulative


def _profiled_us_per_call(stats: pstats.Stats, key: tuple[str, str]) -> tuple[int, float]:
    """``(calls, µs per call)`` of function ``key`` in a profile, its callees included."""
    calls, cumulative = _by_function(stats)
    return calls[key], round(cumulative[key] / calls[key] * 1e6, 2)


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
    __, cumulative = _by_function(stats)
    spent = {label: cumulative[key] for label, key in STAGES.items()}
    pump, clone_loop = cumulative[("server.py", "_pump")], cumulative[("visit.py", "_process")]
    spent["rest of pump"] = pump - clone_loop
    return {label: round(seconds / WARM_REPEATS * 1e6, 1) for label, seconds in spent.items()}


def _join_inputs() -> tuple:
    """``(web, warm-up queries, pool)`` of EXP-E1's ``eval_join``."""
    workload = _e1("eval_join")
    plan = workload.plan(SEED)
    return workload.build_web(SEED), plan.warmup, plan.pool


def _join_pass(inputs: tuple) -> None:
    """One warmed engine, every pool query once: each node visit compiles
    nothing new after the first and executes the join."""
    from repro import build_engine

    web, warmup, pool = inputs
    _run_all(build_engine(web), (*warmup, *pool))


def counted_evaluations(counts: Counter):
    """A :func:`sys.setprofile` hook that counts into ``counts`` what the
    executor evaluates — counts that repeat exactly.

    ``str.lower``: one call per cell a column fold lowers, and per
    ``contains`` operand a scalar closure lowers; ``table folds``: columns
    case-folded (:meth:`Table.folded`, once per table and column);
    ``scalar comparisons``: ``=``/``!=``/ordered closures and interpreter
    nodes (:func:`_coerce_pair` frames); ``columnar.<name>``: calls per
    batch stage and kernel.
    """
    from repro.relational import columnar, table
    from repro.relational.expr import _coerce_pair

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

    return on_event


def join_per_execution(stats: pstats.Stats) -> dict:
    """What one ``execute_columnar`` of ``eval_join`` costs: the calls and
    profiled µs per call in the ``join`` profile ``stats``, and evaluations
    counted on an unprofiled pass."""
    executions, us = _profiled_us_per_call(stats, ("compile.py", "execute_columnar"))
    counts: Counter = Counter()
    _tally(counted_evaluations(counts), _join_pass, _join_inputs())
    return {
        "executions": executions,
        "us_per_execution_profiled": us,
        "evaluations_per_execution": {
            name: round(count / executions, 2) for name, count in sorted(counts.items())
        },
    }


def compile_per_query(stats: pstats.Stats, repeats: int = 5) -> dict:
    """What compiling costs one ``eval_join`` query on a warmed engine:
    ``compile_disql`` µs without and with the engine's templates (unprofiled,
    best of ``repeats`` passes over the pool), the node-query compiles of one
    pass over the pool that lowered a shape vs bound one (``PlanCache``'s
    ``misses`` and ``hits``), and the profiled µs of one plan lookup
    (``PlanCache.plan_for``, a bind or a lowering) in the ``join`` profile
    ``stats``."""
    from repro import build_engine
    from repro.disql import compile_disql

    web, warmup, pool = _join_inputs()
    engine = build_engine(web)
    _run_all(engine, warmup)
    caches = [server.plans for server in engine.servers.values()]
    hits = sum(cache.hits for cache in caches)
    misses = sum(cache.misses for cache in caches)
    _run_all(engine, pool)
    hits = sum(cache.hits for cache in caches) - hits
    misses = sum(cache.misses for cache in caches) - misses

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
        "node_compiles": {"lowerings": misses, "binds": hits},
        "plan_lookup_us_profiled": _profiled_us_per_call(stats, ("plancache.py", "plan_for"))[1],
    }


#: Timed queries of one ``wire`` pass (the size of an EXP-E1 block).
WIRE_REPEATS = 108


def _wire_inputs() -> tuple:
    """``(web, pool, engine config)`` of EXP-E1's ``wire_tenants``."""
    from repro import EngineConfig

    workload = _e1("wire_tenants")
    web = workload.build_web(SEED)
    web.total_bytes()  # pages render lazily
    config = EngineConfig(transport=workload.transport, **workload.config)
    return web, workload.plan(SEED).pool, config


def _wire_pass(inputs: tuple, measure: dict | None = None, tapped: list | None = None) -> None:
    """One tenant's closed loop over real loopback sockets.

    With ``measure`` the timed part runs under the loop counters and fills
    it, and appends ``(src, dst, payload)`` for every message it delivered
    to ``tapped``; without, it just runs (under whatever profiler the caller
    enabled).
    """
    import asyncio

    from repro.core.aio_engine import AsyncioWebDisEngine
    from repro.testing.loopcost import count_handles
    from repro.wire import encode_envelope, encode_frame, encode_sequenced

    web, pool, config = inputs

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

            delivered: list = []
            engine.network.add_tap(
                lambda now, src, dst, port, payload: delivered.append((src, dst, port, payload))
            )
            messages, modelled = engine.stats.messages_sent, engine.stats.bytes_sent
            with count_handles() as handles:
                begin = time.perf_counter()
                for text in queries:
                    await one(text)
                wall = time.perf_counter() - begin
                by_callback = dict(handles.most_common())
            del loop._run_once  # back to the class's method
            # The frames the delivered messages travelled in, encoded again
            # (port and sequence number are fixed-size, so any will do).
            frame_bytes = sum(
                len(encode_frame(encode_sequenced(encode_envelope(src, payload), port, 0)))
                for src, __, port, payload in delivered
            )
            tapped.extend((src, dst, payload) for src, dst, __, payload in delivered)
            measure.update(
                wall_ms=round(wall / WIRE_REPEATS * 1e3, 3),
                loop_iterations=round(iterations[0] / WIRE_REPEATS, 2),
                messages=round((engine.stats.messages_sent - messages) / WIRE_REPEATS, 2),
                frame_bytes=round(frame_bytes / WIRE_REPEATS, 1),
                modelled_bytes=round((engine.stats.bytes_sent - modelled) / WIRE_REPEATS, 1),
                handles=round(sum(by_callback.values()) / WIRE_REPEATS, 2),
                handles_by_callback={
                    name: round(count / WIRE_REPEATS, 2) for name, count in by_callback.items()
                },
            )
        finally:
            await engine.aclose()

    asyncio.run(main())


def result_codec_us_per_message(payloads: list, repeats: int = 5) -> dict:
    """µs per result message to encode, to decode, and both: the result
    messages a ``wire`` pass sent, coded again here (unprofiled, best of
    ``repeats``, the codec's tables warm as in the pass)."""
    from repro.core.messages import ResultMessage
    from repro.wire import decode_message, encode_message

    messages = [payload for payload in payloads if isinstance(payload, ResultMessage)]
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


def derived(name: str, stats: pstats.Stats) -> dict[str, dict]:
    """What follows workload ``name``'s profile ``stats``, by ``--json`` key."""
    if name == "build":
        return {
            "build_us_per_page": build_us_per_page(),
            "retained_bytes_per_page": retained_bytes_per_page(),
        }
    if name == "warm":
        hashes, objects = frames_per_query()
        by_part, repeated, sizing = warm_bytes_per_query()
        return {
            "stage_us_per_query": stage_us_per_query(stats),
            "warm_hash_frames_per_query": hashes,
            "report_objects_per_query": objects,
            "visits_per_query": visits_per_query(),
            "bytes_per_query_by_part": by_part,
            "repeated_query_bytes_per_query": repeated,
            "sizing_us_per_query": sizing,
        }
    if name == "join":
        return {
            "join_per_execution": join_per_execution(stats),
            "compile_per_query": compile_per_query(stats),
        }
    per_query: dict = {}  # what one sequential socket query costs the event loop
    sends: list = []
    _wire_pass(_wire_inputs(), per_query, sends)
    from repro.net.network import NetworkConfig

    envelope = NetworkConfig().envelope_bytes  # the pass's engine runs the default
    tapped = [payload for __, __, payload in sends]
    return {
        "wire_loop_per_query": per_query,
        "result_codec_us_per_message": result_codec_us_per_message(tapped),
        "bytes_per_query_by_part": bytes_by_part(tapped, WIRE_REPEATS, envelope),
        "repeated_query_bytes_per_query": repeated_query_bytes(sends, WIRE_REPEATS),
    }


def dump_path(out: str, name: str) -> str:
    """Where ``--out`` dumps workload ``name``'s profile when several run:
    the name leads the file name, ``dir/p.pstats`` → ``dir/<name>-p.pstats``."""
    path = Path(out)
    return str(path.with_name(f"{name}-{path.name}"))


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

    entries = []
    for filename, line, function in stats.fcn_list[:top]:  # in the printed order
        __, ncalls, tottime, cumtime, ___ = stats.stats[(filename, line, function)]
        entries.append({
            "function": f"{filename}:{line}({function})",
            "ncalls": ncalls,
            "tottime": round(tottime, 6),
            "cumtime": round(cumtime, 6),
        })
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
            out = args.out if len(names) == 1 else dump_path(args.out, name)
        text, entries, stats = profile_workload(name, args.sort, args.top, out)
        figures = derived(name, stats)
        if args.json:
            as_json[name] = entries
            as_json.update(figures)
        else:
            print(f"== {name.upper()} workload — top {args.top} by {args.sort} ==")
            print(text)
            print(json.dumps(figures, indent=2, ensure_ascii=False))
            if out:
                print(f"raw profile dumped to {out}")
    if args.json:
        print(json.dumps(as_json, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
