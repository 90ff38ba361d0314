"""EXP-P4 (extension) — cross-query result caching on a zipfian workload.

The paper shares work *within* one query: the per-``(node, qid)`` log
table absorbs duplicate and subsumed clones of the same web-query (§5.2).
Across queries it starts from zero — two tenants asking the same question
re-fetch, re-parse and re-evaluate every page.  Real web-query workloads
are zipfian (a few hot questions dominate), so the extension adds a
per-site :class:`~repro.core.resultmemo.ResultMemo` keyed by ``(node,
node-query structural hash)`` — qid-independent, crash-cleared,
subsumption-aware — plus a structurally-keyed plan cache.

Workload per cell: a pool of ``pool`` structurally distinct drill queries
(start site × PRE depth; the depth-3 and depth-2 variants overlap, so the
subsumption path fires too), and ``draws`` submissions sampled from the
pool with zipf weights ``1/rank``.  The identical submission list runs
once with ``cross_query_caching`` on and once off.  Speedup is the virtual
**makespan** ratio — SimClock time, where the cost model charges
``service_time(html_bytes, tuples_scanned)`` per evaluated node and a
bare ``node_service_time`` per full memo hit — so the gate is
deterministic; wall-clock is reported alongside as a sanity signal.

``--check`` gates (CI, smoke cells):

1. **equivalence** — every submission's distinct row set, and its
   completion status, is identical with the memo on and off (caching must
   never change answers);
2. **speedup** — the cached run's virtual makespan beats the uncached
   run's by >10x in every cell (virtual time is deterministic, so the
   floor needs no noise margin);
3. **reuse is real** — memo hits dominate misses and at least one
   residual (subsumption) filter fired.

Run directly for the table (also written to ``benchmarks/results/EXP-P4.txt``):

    PYTHONPATH=src python benchmarks/bench_cross_query.py
    PYTHONPATH=src python benchmarks/bench_cross_query.py --smoke --check
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.web import SyntheticWebConfig, build_synthetic_web

sys.path.insert(0, str(Path(__file__).parent))
from harness import format_table, ratio, report  # noqa: E402

#: (draws, pool-size) cells.  The headline cell carries the >10x gate.
SCALES = ((120, 8), (400, 16))
SMOKE_SCALES = ((120, 8),)

#: Virtual-makespan speedup floor (both cells).  Deterministic — the
#: measured cells sit at ~12.7x and ~14.4x (see docs/performance.md), so
#: the ISSUE's >10x target is the floor itself, not floor-plus-margin.
CHECK_FLOOR = 10.0

#: Rich pages: parse + evaluate must dominate per-node protocol cost for
#: the memo's skip-the-parse hit to show up as wall-clock.
SITES = 8
PAGES_PER_SITE = 24
PADDING_WORDS = 4000

TEMPLATE = (
    'select d.url, d.title\n'
    'from document d such that "{start}" (L|G)*{depth} d\n'
    'where d.title contains "topic"'
)

ZIPF_SEED = 840


def _web_config() -> SyntheticWebConfig:
    return SyntheticWebConfig(
        sites=SITES, pages_per_site=PAGES_PER_SITE, local_out_degree=3,
        global_out_degree=2, padding_words=PADDING_WORDS, seed=ZIPF_SEED,
    )


def _pool(size: int) -> list[str]:
    """``size`` structurally distinct queries: start site × PRE depth.

    Interleaving depths means the zipf head contains both a general
    (depth-3) and a contained (depth-2) query over the same sites, so the
    subsumption path is exercised by the workload itself, not a side test.
    """
    texts = []
    for index in range(size):
        site = f"site{(index // 2) % SITES:03d}.example"
        depth = 3 if index % 2 == 0 else 2
        texts.append(TEMPLATE.format(start=f"http://{site}/", depth=depth))
    return texts


def _draws(draws: int, pool: list[str]) -> list[int]:
    """Zipf-weighted (``1/rank``) pool indices; every member occurs once."""
    rng = random.Random(ZIPF_SEED + draws)
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    picks = list(range(len(pool)))  # coverage: the cold cost is always paid
    picks += rng.choices(range(len(pool)), weights=weights,
                         k=draws - len(pool))
    rng.shuffle(picks)
    return picks


def _run(picks: list[int], pool: list[str], enabled: bool) -> dict:
    engine = WebDisEngine(
        build_synthetic_web(_web_config()),
        config=EngineConfig(cross_query_caching=enabled),
    )
    begin = time.perf_counter()
    handles = [engine.submit_disql(pool[index]) for index in picks]
    engine.run()
    wall = time.perf_counter() - begin
    stats = engine.stats
    return {
        "makespan": max(handle.completion_time for handle in handles),
        "rows": [
            frozenset(
                (label, row.header, row.values) for label, row, __ in handle.results
            )
            for handle in handles
        ],
        "statuses": [handle.status for handle in handles],
        "all_complete": {handle.status for handle in handles}
        == {QueryStatus.COMPLETE},
        "wall_s": wall,
        "events": engine.clock.events_executed,
        "documents_parsed": stats.documents_parsed,
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "plans_shared": stats.plans_shared,
        "residual_filters": stats.residual_filters,
    }


def measure(scales: tuple[tuple[int, int], ...]) -> dict:
    cells = []
    for draws, pool_size in scales:
        pool = _pool(pool_size)
        picks = _draws(draws, pool)
        on = _run(picks, pool, True)
        off = _run(picks, pool, False)
        cells.append(
            {
                "draws": draws,
                "pool": pool_size,
                "rows_identical": on.pop("rows") == off.pop("rows"),
                "statuses_identical": on.pop("statuses") == off.pop("statuses"),
                "all_complete": on["all_complete"] and off["all_complete"],
                "speedup": round(off["makespan"] / on["makespan"], 3),
                "wall_speedup": round(off["wall_s"] / on["wall_s"], 3),
                "parse_ratio": round(
                    off["documents_parsed"] / max(1, on["documents_parsed"]), 3
                ),
                "cached": {k: round(v, 6) if isinstance(v, float) else v
                           for k, v in on.items()},
                "uncached": {k: round(v, 6) if isinstance(v, float) else v
                             for k, v in off.items()},
            }
        )
    return {
        "experiment": "EXP-P4",
        "title": "cross-query result caching on a zipfian repeated workload",
        "sites": SITES,
        "pages_per_site": PAGES_PER_SITE,
        "padding_words": PADDING_WORDS,
        "scales": [list(scale) for scale in scales],
        "cells": cells,
    }


def _report(result: dict) -> str:
    rows = []
    for cell in result["cells"]:
        on, off = cell["cached"], cell["uncached"]
        rows.append(
            (
                cell["draws"],
                cell["pool"],
                f"{off['makespan']:.1f}",
                f"{on['makespan']:.1f}",
                f"{cell['speedup']:.1f}x",
                f"{cell['wall_speedup']:.1f}x",
                off["documents_parsed"],
                on["documents_parsed"],
                on["memo_hits"],
                on["residual_filters"],
                "yes" if cell["rows_identical"] else "NO",
            )
        )
    body = format_table(
        ("draws", "pool", "span off", "span on", "speedup", "wall gain",
         "parses off", "parses on", "memo hits", "residual", "rows ="),
        rows,
    )
    headline = result["cells"][-1]
    body += (
        f"\n\nheadline ({headline['draws']} zipfian draws over"
        f" {headline['pool']} distinct queries): the cross-query memo cuts"
        f" virtual makespan"
        f" {ratio(headline['uncached']['makespan'], headline['cached']['makespan'])}"
        f" ({headline['uncached']['makespan']:.1f}s →"
        f" {headline['cached']['makespan']:.1f}s virtual,"
        f" {headline['wall_speedup']}x wall), parsing"
        f" {headline['parse_ratio']}x fewer documents"
        f" ({headline['uncached']['documents_parsed']} →"
        f" {headline['cached']['documents_parsed']}), with"
        f" {headline['cached']['residual_filters']} subsumption residual"
        " filter(s); every submission's rows and status are identical with"
        " the memo on and off"
    )
    report("EXP-P4", result["title"], body)
    return body


def _check(result: dict) -> list[str]:
    """The CI gate failures (empty = pass)."""
    failures = []
    for cell in result["cells"]:
        label = f"{cell['draws']} draws/{cell['pool']} pool"
        if not cell["rows_identical"]:
            failures.append(f"{label}: rows diverge with caching on")
        if not cell["statuses_identical"]:
            failures.append(f"{label}: statuses diverge with caching on")
        if not cell["all_complete"]:
            failures.append(f"{label}: not every query reached COMPLETE")
        if cell["speedup"] < CHECK_FLOOR:
            failures.append(
                f"{label}: makespan speedup {cell['speedup']}x below the"
                f" {CHECK_FLOOR}x floor"
            )
        on = cell["cached"]
        if on["memo_hits"] <= on["memo_misses"]:
            failures.append(
                f"{label}: memo hits {on['memo_hits']} do not dominate"
                f" misses {on['memo_misses']}"
            )
        if on["residual_filters"] < 1:
            failures.append(f"{label}: the subsumption path never fired")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="only the small cell (CI-sized run)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: row equivalence + speedup floor + real reuse",
    )
    args = parser.parse_args(argv)

    result = measure(SMOKE_SCALES if args.smoke else SCALES)
    _report(result)

    if args.check:
        failures = _check(result)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        headline = result["cells"][-1]
        print(
            f"OK: rows identical on vs off across {len(result['cells'])}"
            f" cell(s); {headline['speedup']}x virtual-makespan speedup"
            f" ({headline['wall_speedup']}x wall) and"
            f" {headline['cached']['memo_hits']} memo hit(s) at"
            f" {headline['draws']} draws"
        )
        return 0

    print(f"{result['cells'][-1]['speedup']}x at the largest cell")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
