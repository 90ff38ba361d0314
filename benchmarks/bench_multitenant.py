"""EXP-P3 (extension) — multi-tenant fair scheduling vs the §4.4 FIFO.

The paper's server "sequentially processes the queue of pending
web-queries" (§4.4): one FIFO shared by every tenant.  When a hot query
floods a site with clones, every small query queued behind it waits for
the whole backlog — head-of-line blocking.  The fair scheduler
(``EngineConfig.scheduler="fair"``) keeps one run-queue per query and
round-robins across them, so a deep backlog only delays its own query.

Workload per scale ``K``: ``max(1, K // 100)`` hot drill queries
(``(L|G)*2 L*`` — fan out across sites, then exhaust each site's local
link closure) submitted at t=0, plus ``K`` small point queries (one local
hop from a homepage, spread round-robin across the sites) submitted on a
fixed stagger so they keep arriving *while* the hot backlog is queued —
the §4.4 pathology.  Both schedulers run the identical workload with the
same pump budget; every latency is SimClock virtual time (completion
minus submission), so the comparison is deterministic.

Measured per scale and scheduler: small-query p50/p99/max completion
latency, makespan, throughput (queries per virtual second), and Jain's
fairness index ``(Σx)²/(n·Σx²)`` over the small-query latencies.

``--check`` gates (CI, smoke scales):

1. **isolation** — every query's distinct row set is identical under fair
   and fifo (scheduling must never change answers);
2. **tail latency** — fair beats fifo on small-query p99 at the 1k scale;
3. **fairness** — Jain index under fair ≥ under fifo at the 1k scale;
4. **starvation-freedom** — under fair, every small query completes
   before the adversarial hot query does, at every scale (a hot tenant
   cannot starve a small one);
5. every query reaches COMPLETE under both schedulers.

Run directly for the table (also written to ``benchmarks/results/EXP-P3.txt``):

    PYTHONPATH=src python benchmarks/bench_multitenant.py
    PYTHONPATH=src python benchmarks/bench_multitenant.py --smoke --check
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.web import SyntheticWebConfig, build_synthetic_web

sys.path.insert(0, str(Path(__file__).parent))
from harness import format_table, ratio, report  # noqa: E402

#: Total small queries per cell; the full sweep is the ISSUE's 100/1k/10k.
SCALES = (100, 1_000, 10_000)
SMOKE_SCALES = (100, 1_000)

#: Hot tenants per cell: one per 100 small queries.
HOT_PER_SMALL = 100

#: Both schedulers pump with the same bounded frontier budget, so the only
#: difference between the two runs is the queue discipline itself.
PUMP_BUDGET = 4

#: Seconds of virtual time between consecutive small-query submissions.
STAGGER = 0.002

SITES = 12
PAGES_PER_SITE = 30

SMALL_TEMPLATE = 'select d.url, d.title\nfrom document d such that "{start}" L d'
HOT_TEMPLATE = (
    'select d.url from document d such that "{start}" (L|G)*2 L* d\n'
    'where d.title contains "topic"'
)


def _web_config() -> SyntheticWebConfig:
    return SyntheticWebConfig(
        sites=SITES, pages_per_site=PAGES_PER_SITE, local_out_degree=3,
        global_out_degree=2, seed=730,
    )


def _site(index: int) -> str:
    return f"site{index % SITES:03d}.example"


def _queries(scale: int) -> tuple[list[str], int]:
    """The workload: hot drills first (worst case for FIFO — their backlog
    is already queued when the small queries arrive), then the smalls.
    Returns (disql texts, number of hot queries)."""
    hot = max(1, scale // HOT_PER_SMALL)
    texts = [
        HOT_TEMPLATE.format(start=f"http://{_site(i)}/") for i in range(hot)
    ]
    texts += [
        SMALL_TEMPLATE.format(start=f"http://{_site(i)}/") for i in range(scale)
    ]
    return texts, hot


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values need not be sorted)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _jain(values: list[float]) -> float:
    """Jain's fairness index over per-query latencies: 1.0 = perfectly
    even, 1/n = one query took everything."""
    if not values:
        return 1.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0.0:
        return 1.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


def _run(scale: int, scheduler: str) -> dict:
    texts, hot = _queries(scale)
    engine = WebDisEngine(
        build_synthetic_web(_web_config()),
        # Memo off: the repeated point queries would otherwise be served from
        # the cross-query memo and the latency distribution would measure
        # EXP-P4's reuse instead of the queue discipline under real load.
        config=EngineConfig(
            scheduler=scheduler, pump_budget=PUMP_BUDGET,
            cross_query_caching=False,
        ),
    )
    handles: list = [None] * len(texts)
    submitted: list[float] = [0.0] * len(texts)

    def submit(index: int) -> None:
        submitted[index] = engine.clock.now
        handles[index] = engine.submit_disql(texts[index])

    for index in range(hot):
        submit(index)  # the hot flood opens at t=0
    for index in range(hot, len(texts)):
        engine.clock.schedule((index - hot) * STAGGER, lambda i=index: submit(i))
    begin = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - begin

    statuses = {handle.status for handle in handles}
    assert all(
        handle.completion_time is not None for handle in handles
    ), "a query never completed"
    latencies = [
        handle.completion_time - at for handle, at in zip(handles, submitted)
    ]
    hot_latencies, small_latencies = latencies[:hot], latencies[hot:]
    makespan = max(
        handle.completion_time for handle in handles
    )
    return {
        "scheduler": scheduler,
        "rows": {
            i: frozenset(
                (label, row.header, row.values) for label, row, __ in handle.results
            )
            for i, handle in enumerate(handles)
        },
        "all_complete": statuses == {QueryStatus.COMPLETE},
        "small_p50": _percentile(small_latencies, 0.50),
        "small_p99": _percentile(small_latencies, 0.99),
        "small_max": max(small_latencies),
        "hot_min": min(hot_latencies),
        "makespan": makespan,
        "throughput": len(handles) / makespan,
        "jain": _jain(small_latencies),
        "wall_s": wall,
        "events": engine.clock.events_executed,
    }


def measure(scales: tuple[int, ...]) -> dict:
    cells = []
    for scale in scales:
        fair = _run(scale, "fair")
        fifo = _run(scale, "fifo")
        hot = max(1, scale // HOT_PER_SMALL)
        cells.append(
            {
                "small_queries": scale,
                "hot_queries": hot,
                "rows_identical": fair.pop("rows") == fifo.pop("rows"),
                "all_complete": fair["all_complete"] and fifo["all_complete"],
                # Starvation-freedom: under fair, RR guarantees every small
                # query a turn each cycle, so all of them finish before the
                # hot flood does.
                "no_starvation": fair["small_max"] < fair["hot_min"],
                "p99_ratio": round(fifo["small_p99"] / fair["small_p99"], 3),
                "fair": {k: round(v, 6) if isinstance(v, float) else v
                         for k, v in fair.items() if k != "scheduler"},
                "fifo": {k: round(v, 6) if isinstance(v, float) else v
                         for k, v in fifo.items() if k != "scheduler"},
            }
        )
    return {
        "experiment": "EXP-P3",
        "title": "multi-tenant fair scheduling vs the paper's §4.4 FIFO",
        "sites": SITES,
        "pages_per_site": PAGES_PER_SITE,
        "pump_budget": PUMP_BUDGET,
        "scales": list(scales),
        "cells": cells,
    }


def _report(result: dict) -> str:
    rows = []
    for cell in result["cells"]:
        fair, fifo = cell["fair"], cell["fifo"]
        rows.append(
            (
                cell["small_queries"],
                cell["hot_queries"],
                f"{fifo['small_p50']:.3f}",
                f"{fair['small_p50']:.3f}",
                f"{fifo['small_p99']:.3f}",
                f"{fair['small_p99']:.3f}",
                f"{cell['p99_ratio']:.2f}x",
                f"{fifo['jain']:.3f}",
                f"{fair['jain']:.3f}",
                f"{fifo['throughput']:.1f}",
                f"{fair['throughput']:.1f}",
            )
        )
    body = format_table(
        ("smalls", "hot", "p50 fifo", "p50 fair", "p99 fifo", "p99 fair",
         "p99 gain", "jain fifo", "jain fair", "qps fifo", "qps fair"),
        rows,
    )
    headline = result["cells"][-1]
    body += (
        f"\n\nheadline ({headline['small_queries']} small +"
        f" {headline['hot_queries']} hot quer(ies)): fair scheduling cuts"
        f" small-query p99 latency"
        f" {ratio(headline['fifo']['small_p99'], headline['fair']['small_p99'])}"
        f" (fifo {headline['fifo']['small_p99']:.3f}s → fair"
        f" {headline['fair']['small_p99']:.3f}s virtual), Jain fairness"
        f" {headline['fifo']['jain']:.3f} → {headline['fair']['jain']:.3f};"
        " every query's rows are identical under both schedulers and no"
        " small query finishes after the hot flood under fair"
    )
    report("EXP-P3", result["title"], body)
    return body


def _check(result: dict) -> list[str]:
    """The CI gate failures (empty = pass)."""
    failures = []
    for cell in result["cells"]:
        label = f"{cell['small_queries']} smalls"
        if not cell["rows_identical"]:
            failures.append(f"{label}: rows diverge between fair and fifo")
        if not cell["all_complete"]:
            failures.append(f"{label}: not every query reached COMPLETE")
        if not cell["no_starvation"]:
            failures.append(
                f"{label}: a small query finished after the hot flood under fair"
            )
    gate = [c for c in result["cells"] if c["small_queries"] >= 1_000]
    for cell in gate:
        label = f"{cell['small_queries']} smalls"
        if cell["fair"]["small_p99"] >= cell["fifo"]["small_p99"]:
            failures.append(
                f"{label}: fair p99 {cell['fair']['small_p99']} not below"
                f" fifo p99 {cell['fifo']['small_p99']}"
            )
        if cell["fair"]["jain"] < cell["fifo"]["jain"]:
            failures.append(
                f"{label}: fair Jain {cell['fair']['jain']} below"
                f" fifo {cell['fifo']['jain']}"
            )
    if not gate:
        failures.append("no >=1k-query cell to gate p99/fairness on")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="only the 100/1k scales (CI-sized run)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI gate: isolation + p99 win + fairness + starvation-freedom",
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
            f"OK: rows identical fair vs fifo across {len(result['cells'])}"
            f" scale(s); p99 gain {headline['p99_ratio']}x and Jain"
            f" {headline['fifo']['jain']:.3f} → {headline['fair']['jain']:.3f}"
            f" at {headline['small_queries']} small queries; no starvation"
        )
        return 0

    print(f"p99 gain {result['cells'][-1]['p99_ratio']}x at the largest scale")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
