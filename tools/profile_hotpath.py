#!/usr/bin/env python
"""cProfile harness for the engine's hot paths (EXP-P1 / EXP-P2 / first touch / warm / join / wire).

Runs one of the perf-bench workloads under :mod:`cProfile` and prints the
top-N functions by cumulative time, so a perf regression can be localized
without wiring up an external profiler::

    PYTHONPATH=src python tools/profile_hotpath.py                  # all
    PYTHONPATH=src python tools/profile_hotpath.py --workload p1
    PYTHONPATH=src python tools/profile_hotpath.py --workload p2 --top 40
    PYTHONPATH=src python tools/profile_hotpath.py --workload build --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --workload warm --json
    PYTHONPATH=src python tools/profile_hotpath.py --workload join
    PYTHONPATH=src python tools/profile_hotpath.py --workload wire
    PYTHONPATH=src python tools/profile_hotpath.py --sort tottime
    PYTHONPATH=src python tools/profile_hotpath.py --out p2.pstats  # dump
    PYTHONPATH=src python tools/profile_hotpath.py --json > prof.json

The ``p1`` / ``p2`` workloads are imported from the benches themselves, so
the profile always matches what the perf gates measure:

* ``p1`` — EXP-P1: every (node-query, node-database) pair of the hot-path
  bench — paper-sized pages, hot pages, the sitewide scan and the
  join-depth 2/3/4 shapes — evaluated with compiled plans and with the
  interpreter.  Each batch kernel (specialized equality, ``contains``,
  the generic per-row fallback), each expansion stage and the projectors
  show up as distinct frames of :mod:`repro.relational.columnar`;
* ``p2`` — EXP-P2: the frontier-batching drill-down workload, one full
  engine run with the knob on and one with it off;
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
  CHT, message sizing — and hashing;
* ``join`` — the executor, what EXP-E1's ``eval_join`` pays: the 6×24
  anchor-rich web, one engine warmed by one traversal per start site, then
  the 100 ``anchor × relinfon`` joins with distinct literals (seed 1's).
  After the profile, two unprofiled passes print what one
  ``execute_columnar`` costs — µs, and evaluations counted by the bench's
  own ``counted_evaluations`` (the counter behind its ``--check`` bound):
  ``str.lower`` calls (one per ``contains`` operand), scalar comparisons,
  and calls per stage and batch kernel (``--json``:
  ``join_per_execution``).  The counts repeat exactly;
* ``wire`` — the socket path, what EXP-E1's ``wire_tenants`` pays, with one
  tenant instead of two: the 6×12 mostly-global web on
  ``AsyncioWebDisEngine`` over loopback TCP with the cost model zeroed, the
  12-query pool run once to warm every cache, then 108 sequential queries.
  After the profile, an unprofiled pass of the same loop prints what a query
  costs the event loop — wall, loop iterations, delivered messages, and
  handles (callbacks the loop ran) grouped by callback (``--json``:
  ``wire_loop_per_query``).  The counts repeat to within the few frames
  whose arrival order the kernel decides.

``--json`` emits the top-N table as machine-readable JSON (one list per
workload: function, ncalls, tottime, cumtime) for diffing profiles across
commits.  For ``warm`` it adds ``warm_hash_frames_per_query``: the number of
Python-level ``__hash__`` frames one warm query runs, by class — the count
that says how much of the path is still hashing trees (it repeats exactly;
cProfile itself folds every generated ``__hash__`` into one row).
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

SORT_KEYS = ("cumulative", "tottime", "ncalls")


def _p1_pass() -> None:
    """One full EXP-P1 pass: compiled and interpreted evaluation."""
    from repro.relational.compile import compile_node_query
    from repro.relational.query import evaluate_node_query

    from bench_hotpath import _workloads

    for __, query, databases, site_documents in _workloads():
        plan = compile_node_query(query)
        for database in databases:
            plan.execute_columnar(database, site_documents)
            evaluate_node_query(query, database, site_documents)


def _p2_pass() -> None:
    """One full EXP-P2 cell: the drill-down query, knob on and off."""
    from bench_frontier import WORKLOADS, _run

    __, template, pages = WORKLOADS[1]
    _run(4, True, template, pages)
    _run(4, False, template, pages)


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
    from collections import Counter

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


def join_per_execution() -> dict:
    """What one ``execute_columnar`` of ``eval_join`` costs (unprofiled):
    wall µs, and evaluations counted on a second pass."""
    from repro.relational.compile import CompiledPlan

    from bench_hotpath import counted_evaluations

    inputs = _join_inputs()
    original = CompiledPlan.execute_columnar
    spent = [0, 0.0]

    def timed(self, database, site_documents=None):
        begin = time.perf_counter()
        try:
            return original(self, database, site_documents)
        finally:
            spent[0] += 1
            spent[1] += time.perf_counter() - begin

    CompiledPlan.execute_columnar = timed  # type: ignore[method-assign]
    try:
        _join_pass(inputs)
    finally:
        CompiledPlan.execute_columnar = original  # type: ignore[method-assign]
    executions = spent[0]

    with counted_evaluations() as counts:
        _join_pass(inputs)
    return {
        "executions": executions,
        "us_per_execution": round(spent[1] / executions * 1e6, 2),
        "evaluations_per_execution": {
            name: round(count / executions, 2) for name, count in sorted(counts.items())
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


def _wire_pass(inputs: tuple, measure: dict | None = None) -> None:
    """One tenant's closed loop over real loopback sockets.

    With ``measure`` the timed part runs under the loop counters and fills
    it; without, it just runs (under whatever profiler the caller enabled).
    """
    import asyncio

    from repro import EngineConfig
    from repro.core.aio_engine import AsyncioWebDisEngine
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


def wire_loop_per_query() -> dict:
    """What one sequential socket query costs the event loop (unprofiled)."""
    measured: dict = {}
    _wire_pass(_wire_inputs(), measured)
    return measured


WORKLOAD_PASSES = {
    "p1": _p1_pass, "p2": _p2_pass, "build": _build_pass, "warm": _warm_pass,
    "join": _join_pass, "wire": _wire_pass,
}
#: Input a pass takes, prepared before the profiler is switched on.
WORKLOAD_INPUTS = {
    "build": _spot_check_pages, "warm": _warm_engine, "join": _join_inputs,
    "wire": _wire_inputs,
}


def profile_workload(
    name: str, sort: str, top: int, out: str | None
) -> tuple[str, list[dict]]:
    """Profile one workload; returns (stats text, JSON rows)."""
    prepare = WORKLOAD_INPUTS.get(name)
    inputs = (prepare(),) if prepare else ()
    profiler = cProfile.Profile()
    profiler.enable()
    WORKLOAD_PASSES[name](*inputs)
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
    return buffer.getvalue(), entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=(*WORKLOAD_PASSES, "all"), default="all",
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

    names = list(WORKLOAD_PASSES) if args.workload == "all" else [args.workload]
    as_json: dict[str, object] = {}
    for name in names:
        out = None
        if args.out:
            out = args.out if len(names) == 1 else f"{name}-{args.out}"
        text, entries = profile_workload(name, args.sort, args.top, out)
        per_page = build_us_per_page() if name == "build" else None
        per_query = wire_loop_per_query() if name == "wire" else None
        per_execution = join_per_execution() if name == "join" else None
        if args.json:
            as_json[name] = entries
            if name == "warm":
                as_json["warm_hash_frames_per_query"] = hash_frames_per_query()
            if per_page:
                as_json["build_us_per_page"] = per_page
            if per_query:
                as_json["wire_loop_per_query"] = per_query
            if per_execution:
                as_json["join_per_execution"] = per_execution
        else:
            print(f"== {name.upper()} workload — top {args.top} by {args.sort} ==")
            print(text)
            if per_page:
                print(f"full build (all three relations read): {per_page['full']} µs/page")
                print(f"scan + DOCUMENT only: {per_page['scan_and_document']} µs/page\n")
            if per_execution:
                print(
                    f"per execute_columnar (unprofiled, {per_execution['executions']} "
                    f"executions): {per_execution['us_per_execution']} µs; evaluations:"
                )
                for name, count in per_execution["evaluations_per_execution"].items():
                    print(f"  {count:10.2f}  {name}")
                print()
            if per_query:
                print(
                    f"per sequential query (unprofiled, {WIRE_REPEATS} queries): "
                    f"{per_query['wall_ms']} ms wall, {per_query['loop_iterations']} loop "
                    f"iterations, {per_query['messages']} delivered messages, "
                    f"{per_query['handles']} handles:"
                )
                for callback, count in per_query["handles_by_callback"].items():
                    print(f"  {count:8.2f}  {callback}")
                print()
        if out and not args.json:
            print(f"raw profile dumped to {out}")
    if args.json:
        print(json.dumps(as_json, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
