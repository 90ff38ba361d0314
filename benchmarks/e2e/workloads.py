"""The four whole-query workloads of EXP-E1.

Each workload fixes a web, a pool of distinct DISQL queries, how a block
draws its timed queries from the pool, and which spans a traced block
must (not) record.  The engine only ever sees the generated DISQL text and
the ``Web`` object.

What ``--seed`` drives: the order of every block's queries, and the names
of the literals / page tokens of ``eval_join``.  What it deliberately does
not drive: link topology, page sizes, start sites and the *mix* of
queries in a block — those decide how many nodes a query visits and how
many bytes it returns, so letting them vary would put a spread of tens of
percent on metrics whose bounds are 1–10%.  Every seed therefore runs the
same amount of work on different inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro import Web, WebBuilder
from repro.web.synthetic import SyntheticWebConfig, build_synthetic_web

__all__ = ["QueryPlan", "Workload", "WORKLOADS"]

_ZERO_COST_MODEL = {
    "node_service_time": 0.0,
    "parse_time_per_kb": 0.0,
    "eval_time_per_tuple": 0.0,
}

#: Spans only the real transport records.
_WIRE_SPANS = frozenset({"wire.encode", "wire.decode", "net.transfer", "net.serve"})
#: Spans a steady-state workload (every probe a memo hit) must never record.
_EVAL_SPANS = frozenset(
    {
        "html.parse",
        "model.build",
        "relational.compile",
        "relational.exec",
        "core.plancache.lookup",
        "core.resultmemo.store",
    }
)


@dataclass(frozen=True)
class QueryPlan:
    """The queries of one workload run.

    ``warmup`` runs once, untimed, on every long-lived engine before its
    block is timed.  ``pool`` holds the distinct timed queries (the oracle
    evaluates each once) and ``weights`` their relative frequency.
    """

    pool: tuple[str, ...]
    weights: tuple[float, ...]
    warmup: tuple[str, ...] = ()

    def schedule(self, rng: random.Random, count: int) -> list[str]:
        """``count`` pool queries in the plan's exact mix, in seeded order.

        Stratified rather than sampled: each query gets its share of
        ``count`` (largest remainders make up the rounding), so every seed
        runs the same multiset and only the order differs.
        """
        total = sum(self.weights)
        shares = [count * weight / total for weight in self.weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(
            range(len(shares)), key=lambda i: (counts[i] - shares[i], i)
        )
        for index in by_remainder[: count - sum(counts)]:
            counts[index] += 1
        queries = [text for text, n in zip(self.pool, counts) for __ in range(n)]
        rng.shuffle(queries)
        return queries


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json: what the workload stresses and bypasses.
    why: str
    build_web: Callable[[int], Web]
    plan: Callable[[int], QueryPlan]
    #: Timed queries per block (one block per ``--seconds`` second).
    block_queries: int
    transport: str = "sim"
    #: Concurrent closed-loop clients (fixed numbers, not derived from nproc).
    tenants: int = 1
    #: A fresh engine per query: empty parsed-document cache, memo, plan
    #: cache and log table — what ``crash()``/restart gives.
    engine_per_query: bool = False
    #: ``EngineConfig`` overrides beyond ``transport``.
    config: dict = field(default_factory=dict)
    #: Span keys a traced block must record no span for; every other key
    #: of ``spans.SPAN_KEYS`` must record at least one.
    silent: frozenset[str] = _WIRE_SPANS


# --- synthetic webs (cold_default, warm_zipf, wire_tenants) -----------------------


def _reach_query(start: str, depth: int) -> str:
    return (
        f'select d.url, d.title, a.href from document d such that "{start}" '
        f'(L|G)*{depth} d, anchor a where d.title contains "topic"'
    )


def _spot_check_web(seed: int) -> Web:
    """ROADMAP's spot-check web: 32 sites × 20 pages, ~600 KB."""
    return build_synthetic_web(
        SyntheticWebConfig(
            sites=32, pages_per_site=20, local_out_degree=3,
            global_out_degree=2, padding_words=50,
        )
    )


#: Eight start sites spread over the 32.
_STARTS = tuple(f"http://site{index:03d}.example/" for index in range(0, 32, 4))


def _cold_plan(seed: int) -> QueryPlan:
    pool = tuple(_reach_query(start, 2) for start in _STARTS)
    return QueryPlan(pool, (1.0,) * len(pool))


def _zipf_plan(seed: int) -> QueryPlan:
    # Depth-major ranks: the eight depth-3 queries take 80% of the zipf
    # mass, so p50 and p90 both sit inside the depth-3 mode instead of on
    # the gap between the two modes; the depth-2 states are contained in
    # the depth-3 ones, so the warm-up pass exercises A*m·B reuse.
    pool = tuple(_reach_query(start, depth) for depth in (3, 2) for start in _STARTS)
    weights = tuple(1.0 / rank for rank in range(1, len(pool) + 1))
    return QueryPlan(pool, weights, warmup=pool)


def _wire_web(seed: int) -> Web:
    """Small and mostly global links, so most hops cross sites."""
    return build_synthetic_web(
        SyntheticWebConfig(
            sites=6, pages_per_site=12, local_out_degree=2,
            global_out_degree=3, padding_words=30,
        )
    )


def _wire_plan(seed: int) -> QueryPlan:
    pool = tuple(
        _reach_query(f"http://site{site:03d}.example{path}", 2)
        for site in range(6)
        for path in ("/", "/page1.html")
    )
    return QueryPlan(pool, (1.0,) * len(pool), warmup=pool)


# --- the rich web (eval_join) ---------------------------------------------------

_RICH_SITES, _RICH_PAGES, _TOKENS = 6, 24, 100
_DELIMITERS = ("b", "i", "em", "strong", "u", "tt")


def _tokens(seed: int) -> list[str]:
    """100 distinct same-length tokens named by the seed.

    Same length keeps every seed's messages byte-for-byte the same size;
    the leading ``q`` keeps a token from matching ordinary page words.
    """
    rng = random.Random(f"e2e-tokens:{seed}")
    return [f"q{value:05x}" for value in rng.sample(range(16**5), _TOKENS)]


def _rich_web(seed: int) -> Web:
    """6 sites × 24 pages, each with 30–90 anchors and 20–40 segments.

    Every anchor of a page leads to one of two targets (one local, one
    global, told apart by fragment), so ``(G|L)*2`` reaches 7 nodes while
    the ANCHOR relation stays large: the join is big, the traversal small.
    """
    tokens = _tokens(seed)
    builder = WebBuilder()
    for site_index in range(_RICH_SITES):
        site = builder.site(f"rich{site_index}.example")
        for page in range(_RICH_PAGES):
            serial = site_index * _RICH_PAGES + page
            anchors = 30 + (serial * 7) % 61
            segments = 15 + (serial * 5) % 16
            other = (site_index + 1 + page % (_RICH_SITES - 1)) % _RICH_SITES
            targets = (
                f"/p{(page * 5 + 7) % _RICH_PAGES}.html",
                f"http://rich{other}.example/p{(page * 7 + 3) % _RICH_PAGES}.html",
            )
            site.page(
                f"/p{page}.html",
                title=f"rich page {site_index}-{page}",
                links=[
                    (f"{_DELIMITERS[j % 6]} ref {j}", f"{targets[j % 2]}#s{j}")
                    for j in range(anchors)
                ],
                emphasized=[
                    (_DELIMITERS[j % 6], f"segment {tokens[(serial * 3 + j) % _TOKENS]} of page {page}")
                    for j in range(segments)
                ],
                ruled=[
                    f"ruled {tokens[(serial * 11 + j) % _TOKENS]} block"
                    for j in range(segments // 3)
                ],
            )
    return builder.build()


def _join_query(start: str, literal: str) -> str:
    return (
        f'select d.url, a.href, r.text from document d such that "{start}" '
        f"(G|L)*2 d, anchor a, relinfon r "
        f'where r.text contains "{literal}" and a.label contains r.delimiter '
        f"and a.href != a.base"
    )


def _join_plan(seed: int) -> QueryPlan:
    starts = [f"http://rich{site}.example/p0.html" for site in range(_RICH_SITES)]
    pool = tuple(
        _join_query(starts[index % _RICH_SITES], literal)
        for index, literal in enumerate(_tokens(seed))
    )
    # One traversal per start with a literal no page carries: fills the
    # parsed-document cache and the fan-out memo, stores no useful rows.
    warmup = tuple(_join_query(start, "zzzzzz") for start in starts)
    return QueryPlan(pool, (1.0,) * len(pool), warmup=warmup)


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="cold_default",
        why=(
            "fresh servers per query on the 32x20 synthetic web: html parse + relation build "
            "do most of the work, executor almost none; bypasses memo hits and the wire codec"
        ),
        build_web=_spot_check_web,
        plan=_cold_plan,
        block_queries=104,
        engine_per_query=True,
    ),
    Workload(
        name="warm_zipf",
        why=(
            "one warmed engine, zipf repeats of 16 queries: every probe is a memo hit, so only "
            "protocol, log table and hashing remain; bypasses parsing, relation build and executor"
        ),
        build_web=_spot_check_web,
        plan=_zipf_plan,
        block_queries=100,
        silent=_WIRE_SPANS | _EVAL_SPANS,
    ),
    Workload(
        name="eval_join",
        why=(
            "100 distinct anchor x relinfon joins over cached parses of anchor-rich pages: the "
            "executor dominates and every row probe stores; bypasses the tokenizer and row hits"
        ),
        build_web=_rich_web,
        plan=_join_plan,
        block_queries=100,
        silent=_WIRE_SPANS | {"html.parse"},
    ),
    Workload(
        name="wire_tenants",
        why=(
            "two concurrent tenants over real loopback TCP with warm caches: wire codec, framing, "
            "acks and event-loop hand-offs dominate; bypasses parsing, relation build and executor"
        ),
        build_web=_wire_web,
        plan=_wire_plan,
        block_queries=108,
        transport="asyncio",
        tenants=2,
        # On LoopClock the modelled CPU time is a real call_later sleep on
        # top of the real compute; zeroing it keeps real savings visible.
        config=_ZERO_COST_MODEL,
        # AsyncioTransport.send only spawns a task, so net creates no
        # scheduled callbacks there.
        silent=_EVAL_SPANS | {"net.callback"},
    ),
)
