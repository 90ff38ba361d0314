"""Cross-query result caching (EXP-P4): equivalence, subsumption, coherence.

Caching bugs are the worst kind — silently wrong rows — so this battery is
the PR's center of gravity:

* **Equivalence property** — random generated webs × overlapping query
  batches must produce bit-identical per-tenant distinct rows, statuses
  and canonical log-table snapshots with ``cross_query_caching`` on vs off;
* **Subsumption reuse** — a general ``(L|G)*3`` query warms the memo for a
  contained ``(L|G)*2`` one, observable as ``residual_filters`` hits and —
  crucially — identical answers to a cold uncached run;
* **Coherence** — no memo entry survives a crash or an epoch bump
  (:func:`~repro.testing.invariants.check_memo_coherence`), and the
  invariant actually detects a manufactured leak; the same for the
  document store (:func:`~repro.testing.invariants.check_document_store`):
  edit a page, bump the epoch, resubmit — the new page answers, on both
  transports, per-node and sitewide;
* **DST integration** — the generator draws the knob (both values occur),
  the runner threads it into :class:`~repro.core.config.EngineConfig`, and
  the shrinker proposes clearing it.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.core.resultmemo import ResultMemo
from repro.html.generator import PageSpec, render_page
from repro.model.relations import LinkType
from repro.pre.ast import Atom, alt, repeat
from repro.testing.generators import build_web, generate_case, query_texts
from repro.testing.invariants import check_document_store, check_memo_coherence
from repro.testing.runner import _engine_config
from repro.testing.shrink import _candidates
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.builders import WebBuilder
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.web.site import Page
from tests.test_multidoc import MULTIDOC_QUERY, _dept_web

GENERAL_QUERY = (
    'select d.url, d.title\n'
    'from document d such that "http://root.example/" (L|G)*3 d\n'
    'where d.title contains "topic"'
)
CONTAINED_QUERY = GENERAL_QUERY.replace("(L|G)*3", "(L|G)*2")


def _web():
    builder = WebBuilder()
    builder.site("root.example").page(
        "/",
        title="root topic",
        links=[
            ("leaf a", "http://leafa.example/"),
            ("leaf b", "http://leafb.example/"),
            ("self", "/deep.html"),
        ],
    ).page("/deep.html", title="deep topic", links=[("up", "/")])
    builder.site("leafa.example").page(
        "/", title="leaf a topic", links=[("b", "http://leafb.example/")]
    )
    builder.site("leafb.example").page("/", title="leaf b topic")
    return builder.build()


def _distinct_rows(handle):
    return frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )


def _log_snapshots(engine):
    return {
        site: server.log_table.canonical_snapshot()
        for site, server in sorted(engine.servers.items())
    }


def _run_batch(web, texts, **config):
    engine = WebDisEngine(web, config=EngineConfig(**config))
    handles = [engine.submit_disql(text) for text in texts]
    engine.run()
    return engine, handles


def _semantic_state(engine, handles):
    return (
        [handle.status for handle in handles],
        [_distinct_rows(handle) for handle in handles],
        _log_snapshots(engine),
    )


class TestEquivalenceProperty:
    """Bit-identical answers with the memo on or off, per tenant."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_webs_with_overlapping_batches(self, seed):
        spec = generate_case(seed)
        web = build_web(spec)
        # Re-submit the main query as an extra tenant: guaranteed overlap,
        # so the memo demonstrably engages on every example.
        texts = query_texts(spec) + [query_texts(spec)[0]]
        runs = {}
        for enabled in (True, False):
            engine, handles = _run_batch(
                web, texts, cross_query_caching=enabled
            )
            runs[enabled] = _semantic_state(engine, handles)
            assert check_memo_coherence(engine) == []
        assert runs[True] == runs[False]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equivalence_survives_the_other_knobs(self, seed):
        """The caching axis crossed with the spec's own drawn knobs."""
        spec = generate_case(seed)
        web = build_web(spec)
        texts = query_texts(spec) + [query_texts(spec)[0]]
        knobs = {
            "frontier_batching": spec["config"]["frontier_batching"],
            "scheduler": spec["config"]["scheduler"],
        }
        runs = {}
        for enabled in (True, False):
            engine, handles = _run_batch(
                web, texts, cross_query_caching=enabled, **knobs
            )
            runs[enabled] = _semantic_state(engine, handles)
        assert runs[True] == runs[False]


class TestSubsumptionReuse:
    def test_general_query_warms_memo_for_contained_one(self):
        web = _web()
        engine, (general,) = _run_batch(web, [GENERAL_QUERY])
        assert general.status is QueryStatus.COMPLETE
        contained = engine.submit_disql(CONTAINED_QUERY)
        engine.run()
        assert contained.status is QueryStatus.COMPLETE
        # The contained state is served from the general entries: residual
        # fan-out filters fired and rows probes hit.
        assert engine.stats.residual_filters > 0
        assert engine.stats.memo_hits > 0
        # ...and the answers are exactly a cold uncached run's.
        cold, (cold_contained,) = _run_batch(
            web, [CONTAINED_QUERY], cross_query_caching=False
        )
        assert _distinct_rows(contained) == _distinct_rows(cold_contained)
        assert cold_contained.status is QueryStatus.COMPLETE

    def test_repeated_queries_cut_the_virtual_makespan_tenfold(self):
        # Four overlapping queries (depth 3 and 2 from two start sites) over
        # heavily padded pages, submitted 20 times each: a memo hit is
        # charged only the base per-node service time, not parse + scan, so
        # the virtual makespan falls 32.5 s -> 3.7 s (8.8x).  It was 43.8 s
        # -> 3.9 s (11.2x) while the log table missed §3.1.1's zero-repeat
        # cases: the uncached run evaluated those nodes again, paying a
        # parse + scan each time.  Virtual time is deterministic, so the
        # floor needs no noise margin.
        web = build_synthetic_web(
            SyntheticWebConfig(
                sites=4, pages_per_site=12, local_out_degree=3,
                global_out_degree=2, padding_words=4000, seed=840,
            )
        )
        pool = [
            GENERAL_QUERY.replace("root.example", f"site{site:03d}.example")
            .replace("(L|G)*3", f"(L|G)*{depth}")
            for site in range(2)
            for depth in (3, 2)
        ]
        runs = {}
        for enabled in (True, False):
            __, handles = _run_batch(web, pool * 20, cross_query_caching=enabled)
            assert {handle.status for handle in handles} == {QueryStatus.COMPLETE}
            makespan = max(handle.completion_time for handle in handles)
            runs[enabled] = makespan, [_distinct_rows(handle) for handle in handles]
        (cached, cached_rows), (uncached, uncached_rows) = runs[True], runs[False]
        assert cached_rows == uncached_rows
        assert uncached >= 8.5 * cached

    def test_fanout_subsumption_unit(self):
        memo = ResultMemo()
        node = parse_url("http://root.example/")
        lg = alt([Atom(LinkType.LOCAL), Atom(LinkType.GLOBAL)])
        general, contained = repeat(lg, 3), repeat(lg, 2)
        targets = {
            LinkType.LOCAL: (parse_url("http://root.example/deep.html"),),
            LinkType.GLOBAL: (parse_url("http://leafa.example/"),),
        }
        memo.store_fanout(node, general, targets)
        # Exact miss, subsumption hit: same buckets after the residual
        # filter (both link types are first symbols of the contained state).
        assert memo.fanout_for(node, contained) == targets
        # Promoted to an exact entry: the filter is paid once.
        assert memo._fanout[node][contained].targets == targets
        # An unrelated state is a miss, not a wrong answer.
        assert memo.fanout_for(node, Atom(LinkType.INTERIOR)) is None


class TestInvalidation:
    def _warm_server(self):
        engine = WebDisEngine(_web())
        handle = engine.submit_disql(GENERAL_QUERY)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        server = engine.servers["root.example"]
        assert len(server.memo) > 0
        return engine, server

    def test_crash_clears_memo(self):
        engine, server = self._warm_server()
        version = server.memo.version
        engine.crash_server("root.example")
        assert len(server.memo) == 0
        assert server.memo.version == version + 1
        assert check_memo_coherence(engine) == []

    def test_epoch_bump_invalidates_and_refills(self):
        engine, server = self._warm_server()
        version = server.memo.version
        engine.advance_memo_epoch()
        assert all(len(s.memo) == 0 for s in engine.servers.values())
        assert server.memo.version == version + 1
        assert check_memo_coherence(engine) == []
        # The next identical query recomputes from the (unchanged) web and
        # repopulates the memo under the new version.
        misses_before = engine.stats.memo_misses
        handle = engine.submit_disql(GENERAL_QUERY)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert engine.stats.memo_misses > misses_before
        assert len(server.memo) > 0
        assert check_memo_coherence(engine) == []

    def test_epoch_bump_on_the_socket_engine(self):
        """Both engines share one façade, so the hook exists — and
        invalidates — on real sockets too."""

        async def main():
            engine = AsyncioWebDisEngine(_web())
            try:
                first = engine.submit_disql(GENERAL_QUERY)
                await engine.run([first], timeout=30.0)
                server = engine.servers["root.example"]
                assert first.status is QueryStatus.COMPLETE
                assert len(server.memo) > 0
                version = server.memo.version
                engine.advance_memo_epoch()
                assert all(len(s.memo) == 0 for s in engine.servers.values())
                assert server.memo.version == version + 1
                misses_before = engine.stats.memo_misses
                again = engine.submit_disql(GENERAL_QUERY)
                await engine.run([again], timeout=30.0)
                assert again.status is QueryStatus.COMPLETE
                assert engine.stats.memo_misses > misses_before
                assert {row.values for row in again.unique_rows()} == {
                    row.values for row in first.unique_rows()
                }
                assert check_memo_coherence(engine) == []
            finally:
                await engine.aclose()

        asyncio.run(main())

    # -- page edits: edit, bump the epoch, resubmit → the new page ---------------

    PER_NODE_QUERY = (
        'select d.url, d.title from document d such that "http://alpha.example/" L*1 d\n'
        'where d.title contains "contact"'
    )
    OLD_TITLE, NEW_TITLE = "contact the alpha office", "contact the relocated alpha office"

    @classmethod
    def _relocate_the_alpha_office(cls, web):
        web.site("alpha.example").pages["/contact.html"] = Page(
            "/contact.html", html=render_page(PageSpec(title=cls.NEW_TITLE))
        )

    @classmethod
    def _alpha_titles(cls, handle):
        assert handle.status is QueryStatus.COMPLETE
        return {
            row.values[-1] for row in handle.unique_rows() if "alpha" in row.values[0]
        }

    @pytest.mark.parametrize(
        "query", [PER_NODE_QUERY, MULTIDOC_QUERY], ids=["per-node", "sitewide"]
    )
    def test_edit_then_epoch_bump_serves_the_new_page(self, query):
        web = _dept_web()
        engine = WebDisEngine(web)
        assert self._alpha_titles(engine.run_query(query)) == {self.OLD_TITLE}
        self._relocate_the_alpha_office(web)
        engine.advance_memo_epoch()
        assert all(s.constructor.retained() == [] for s in engine.servers.values())
        assert self._alpha_titles(engine.run_query(query)) == {self.NEW_TITLE}
        assert check_document_store(engine) == []

    @pytest.mark.parametrize(
        "query", [PER_NODE_QUERY, MULTIDOC_QUERY], ids=["per-node", "sitewide"]
    )
    def test_edit_then_epoch_bump_on_the_socket_engine(self, query):
        async def main():
            web = _dept_web()
            engine = AsyncioWebDisEngine(web)
            try:
                before = engine.submit_disql(query)
                await engine.run([before], timeout=30.0)
                assert self._alpha_titles(before) == {self.OLD_TITLE}
                self._relocate_the_alpha_office(web)
                engine.advance_memo_epoch()
                after = engine.submit_disql(query)
                await engine.run([after], timeout=30.0)
                assert self._alpha_titles(after) == {self.NEW_TITLE}
                assert check_document_store(engine) == []
            finally:
                await engine.aclose()

        asyncio.run(main())

    def test_crash_drops_the_document_store(self):
        engine, server = self._warm_server()
        assert server.constructor.retained()
        engine.crash_server("root.example")
        assert server.constructor.retained() == []

    def test_document_store_invariant_detects_staleness_and_overflow(self):
        engine, server = self._warm_server()
        assert check_document_store(engine) == []
        # An edit nobody announced: the retained record is now stale.
        engine.web.site("root.example").pages["/deep.html"] = Page(
            "/deep.html", html=render_page(PageSpec(title="edited topic"))
        )
        (violation,) = check_document_store(engine)
        assert violation.invariant == "document-store"
        assert "root.example/deep.html" in violation.detail
        engine.advance_memo_epoch()
        assert check_document_store(engine) == []
        # A store that outgrew its bound.
        handle = engine.submit_disql(GENERAL_QUERY)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        server.constructor.cache_size = 1
        (violation,) = check_document_store(engine)
        assert "capacity 1" in violation.detail

    def test_coherence_invariant_detects_a_leak(self):
        engine, server = self._warm_server()
        # Manufacture the bug the invariant exists for: an invalidation
        # that bumps the version but forgets to drop the entries.
        server.memo.version += 1
        violations = check_memo_coherence(engine)
        assert violations
        assert violations[0].invariant == "memo-coherence"
        assert "root.example" in violations[0].detail

    def test_knob_off_means_no_memo(self):
        engine = WebDisEngine(_web(), config=EngineConfig(cross_query_caching=False))
        engine.submit_disql(GENERAL_QUERY)
        engine.run()
        assert all(server.memo is None for server in engine.servers.values())
        assert engine.stats.memo_hits == 0
        assert engine.stats.memo_misses == 0
        assert check_memo_coherence(engine) == []

    @pytest.mark.parametrize("strict_dead_end", [False, True])
    def test_knob_off_costs_what_an_all_miss_memo_run_costs(self, campus_web, strict_dead_end):
        # Without a memo the lazy database provider is always resolved, so
        # every visited document is parsed once and charged parse + scan —
        # exactly the cost of a cold run whose memo probes all miss.
        def run(caching):
            config = EngineConfig(cross_query_caching=caching, strict_dead_end=strict_dead_end)
            engine = WebDisEngine(campus_web, config=config)
            handle = engine.run_query(CAMPUS_QUERY_DISQL)
            counters = engine.stats.summary()
            assert counters["memo_hits"] == 0 and counters["documents_parsed"] > 0
            counters = {k: v for k, v in counters.items() if not k.startswith("memo_")}
            return handle.completion_time, counters
        assert run(False) == run(True)


class TestByteGaugeAudit:
    """The incremental ``bytes_est`` gauge must always match a recount.

    Overwrite-heavy sequences are the adversarial case: re-storing an entry
    under the same key must first subtract the replaced estimate, so an
    entry *shrinking* in place decreases the gauge instead of ratcheting it
    upward.
    """

    @staticmethod
    def _node_query(needle: str):
        from repro.relational.expr import Attr, Contains, Literal
        from repro.relational.query import NodeQuery, TableDecl

        return NodeQuery(
            select=(Attr("d", "url"),),
            tables=(TableDecl("document", "d"),),
            where=Contains(Attr("d", "text"), Literal(needle)),
        )

    @staticmethod
    def _row(text: str):
        from repro.relational.query import ResultRow

        return ResultRow(("url",), (text,))

    def test_overwrite_shrink_decreases_gauge(self):
        memo = ResultMemo()
        node = parse_url("http://root.example/")
        query = self._node_query("alpha")
        memo.store_rows(node, query, tuple(self._row("x" * 400) for _ in range(8)))
        fat = memo.bytes_est
        assert fat == memo.recount_bytes()
        # Same key, much smaller payload: the gauge must go *down*.
        memo.store_rows(node, query, (self._row("y"),))
        assert memo.bytes_est < fat
        assert memo.bytes_est == memo.recount_bytes()

    def test_gauge_matches_recount_after_overwrite_heavy_sequence(self):
        import random

        rng = random.Random(0xEB6)
        memo = ResultMemo(capacity=6)
        nodes = [parse_url(f"http://site{i}.example/") for i in range(3)]
        queries = [self._node_query(f"needle-{i}") for i in range(3)]
        lg = alt([Atom(LinkType.LOCAL), Atom(LinkType.GLOBAL)])
        states = [repeat(lg, n) for n in range(1, 4)]
        for _ in range(300):
            node = rng.choice(nodes)
            if rng.random() < 0.6:
                rows = tuple(
                    self._row("v" * rng.randrange(0, 200))
                    for _ in range(rng.randrange(0, 5))
                )
                memo.store_rows(node, rng.choice(queries), rows)
            else:
                targets = {
                    LinkType.LOCAL: tuple(
                        parse_url(f"http://root.example/p{i}.html")
                        for i in range(rng.randrange(0, 4))
                    )
                }
                memo.store_fanout(node, rng.choice(states), targets)
            if rng.random() < 0.1:
                memo.clear()
            assert memo.bytes_est == memo.recount_bytes()
        assert memo.evictions > 0


class TestDstIntegration:
    def test_generator_draws_both_knob_values(self):
        draws = {
            generate_case(seed)["config"]["cross_query_caching"]
            for seed in range(16)
        }
        assert draws == {True, False}

    def test_runner_threads_the_knob(self):
        spec = {"seed": 0, "config": {"cross_query_caching": False}}
        assert _engine_config(spec).cross_query_caching is False
        # Absent (older repro files) defaults to the engine default: on.
        assert _engine_config({"seed": 0, "config": {}}).cross_query_caching is True

    def test_shrinker_proposes_clearing_the_knob(self):
        spec = generate_case(3)
        spec["config"]["cross_query_caching"] = True
        flipped = [
            candidate
            for candidate in _candidates(spec)
            if candidate["config"].get("cross_query_caching") is False
            and {k: v for k, v in candidate["config"].items()
                 if k != "cross_query_caching"}
            == {k: v for k, v in spec["config"].items()
                if k != "cross_query_caching"}
            and candidate["web"] == spec["web"]
            and candidate["faults"] == spec["faults"]
        ]
        assert flipped  # the clear-knob pass fired exactly as designed
        # ...and never re-fires once the knob is already off (termination).
        spec["config"]["cross_query_caching"] = False
        assert not any(
            candidate["config"].get("cross_query_caching") is False
            and candidate["web"] == spec["web"]
            and candidate["faults"] == spec["faults"]
            and candidate["config"] == spec["config"]
            and candidate == spec
            for candidate in _candidates(spec)
        )
