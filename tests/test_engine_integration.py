"""Integration tests: the full engine on the paper's scenarios."""

from __future__ import annotations

import pytest

from repro import EngineConfig, NetworkConfig, QueryStatus, WebDisEngine
from repro.core.trace import PURE_ROUTER, SERVER_ROUTER, START_NODE
from repro.web.builders import WebBuilder
from repro.web.campus import (
    CAMPUS_QUERY_DISQL,
    EXPECTED_CONVENER_ROWS,
    EXPECTED_D0_URL,
)
from repro.web.figures import (
    EXPECTED_FIG1_DEAD_ENDS,
    EXPECTED_FIG1_DOUBLE_ACTOR,
    EXPECTED_FIG1_PURE_ROUTERS,
    EXPECTED_FIG1_SERVER_ROUTERS,
    EXPECTED_FIG5_DUPLICATE_DROPS,
    EXPECTED_FIG5_FOCUS_NODE,
    EXPECTED_FIG5_VISITS,
    FIG1_NODE_NAMES,
    FIGURE1_START_URL,
    FIGURE5_START_URL,
    figure_query_disql,
)


class TestCampusQuery:
    """The paper's sample execution (Section 5, Figures 7-8)."""

    @pytest.fixture(autouse=True)
    def _run(self, campus_web):
        self.engine = WebDisEngine(campus_web, trace=True)
        self.handle = self.engine.run_query(CAMPUS_QUERY_DISQL)

    def test_completes(self):
        assert self.handle.status is QueryStatus.COMPLETE

    def test_q1_finds_the_labs_page(self):
        rows = self.handle.unique_rows("q1")
        assert [r.values[0] for r in rows] == [EXPECTED_D0_URL]

    def test_q2_matches_figure8(self):
        got = {r.values for r in self.handle.unique_rows("q2")}
        assert got == set(EXPECTED_CONVENER_ROWS)

    def test_no_documents_shipped(self):
        assert self.engine.stats.documents_shipped == 0
        assert self.engine.stats.document_bytes_shipped == 0

    def test_csa_homepage_is_pure_router(self):
        routers = self.engine.tracer.nodes_with_role(PURE_ROUTER)
        assert "http://www.csa.iisc.ernet.in/" in routers

    def test_lab_homepages_evaluate_q2(self):
        answered = {
            e.node
            for e in self.engine.tracer.events
            if e.action in ("answered", "failed") and e.detail == "q2"
        }
        assert "http://dsl.serc.iisc.ernet.in/" in answered

    def test_display_table_renders(self):
        table = self.handle.display_table()
        assert "CONVENER Jayant Haritsa" in table
        assert table.startswith("Results of the query")

    def test_response_and_first_result_latency(self):
        assert self.handle.response_time() is not None
        assert 0 < self.handle.first_result_latency() <= self.handle.response_time()

    def test_cht_balanced_at_completion(self):
        cht = self.handle.cht
        cht.check_consistency()
        assert cht.imbalance() == 0
        assert cht.pending_entries() == []


class TestFigure1:
    @pytest.fixture(autouse=True)
    def _run(self, figure1_web):
        self.engine = WebDisEngine(figure1_web, trace=True)
        self.handle = self.engine.run_query(figure_query_disql(FIGURE1_START_URL))

    def _named(self, urls):
        return {FIG1_NODE_NAMES.get(u, u) for u in urls}

    def test_completes(self):
        assert self.handle.status is QueryStatus.COMPLETE

    def test_pure_routers(self):
        pure = self._named(self.engine.tracer.nodes_with_role(PURE_ROUTER))
        assert pure == set(EXPECTED_FIG1_PURE_ROUTERS) | {"S"}

    def test_server_routers(self):
        servers = self._named(self.engine.tracer.nodes_with_role(SERVER_ROUTER))
        assert servers == set(EXPECTED_FIG1_SERVER_ROUTERS)

    def test_node7_dead_end(self):
        dead = self._named(
            e.node for e in self.engine.tracer.events if e.action == "dead-end"
        )
        assert set(EXPECTED_FIG1_DEAD_ENDS) <= dead

    def test_node4_acts_twice(self):
        url = next(u for u, n in FIG1_NODE_NAMES.items() if n == EXPECTED_FIG1_DOUBLE_ACTOR)
        answers = [
            e for e in self.engine.tracer.events
            if e.node == url and e.action == "answered"
        ]
        assert [e.detail for e in answers] == ["q1", "q2"]

    def test_q1_answered_by_three_nodes(self):
        assert len(self.handle.unique_rows("q1")) == 3

    def test_q2_answered_by_node4_and_node8(self):
        urls = {r.values[0] for r in self.handle.unique_rows("q2")}
        assert urls == {"http://site-d.example/", "http://site-f.example/"}

    def test_node7_children_not_visited_with_q2(self):
        # node7 failed q1, so node8 must never receive a q2 clone "via node7";
        # node8 is only reached once (from node4).
        node8_visits = [
            e for e in self.engine.tracer.visits_to("http://site-f.example/")
            if e.action == "answered"
        ]
        assert len(node8_visits) == 1


class TestFigure5:
    @pytest.fixture(autouse=True)
    def _run(self, figure5_web):
        self.engine = WebDisEngine(figure5_web, trace=True)
        self.handle = self.engine.run_query(figure_query_disql(FIGURE5_START_URL))

    def test_completes(self):
        assert self.handle.status is QueryStatus.COMPLETE

    def test_node4_visited_five_times(self):
        arrivals = [
            e for e in self.engine.tracer.visits_to(EXPECTED_FIG5_FOCUS_NODE)
            if e.action in ("routed", "answered", "failed", "duplicate-dropped")
        ]
        assert len(arrivals) == EXPECTED_FIG5_VISITS

    def test_three_distinct_states(self):
        states = {
            str(e.state)
            for e in self.engine.tracer.visits_to(EXPECTED_FIG5_FOCUS_NODE)
            if e.action in ("routed", "answered", "duplicate-dropped")
        }
        assert states == {"(2, G|L)", "(2, N)", "(1, N)"}

    def test_two_duplicates_dropped(self):
        assert self.engine.stats.duplicates_dropped == EXPECTED_FIG5_DUPLICATE_DROPS

    def test_without_log_table_recomputes(self):
        engine = WebDisEngine(
            self.engine.web, config=EngineConfig(log_table_enabled=False), trace=True
        )
        handle = engine.run_query(figure_query_disql(FIGURE5_START_URL))
        assert handle.status is QueryStatus.COMPLETE
        q2_evals = [
            e for e in engine.tracer.visits_to(EXPECTED_FIG5_FOCUS_NODE)
            if e.action == "answered" and e.detail == "q2"
        ]
        assert len(q2_evals) == 3  # c, d and e all recomputed
        # The user sees duplicate rows; unique_rows() collapses them.
        assert len(handle.rows("q2")) > len(handle.unique_rows("q2"))

    def test_results_identical_with_and_without_log_table(self):
        engine = WebDisEngine(self.engine.web, config=EngineConfig(log_table_enabled=False))
        handle = engine.run_query(figure_query_disql(FIGURE5_START_URL))
        a = {r.values for r in handle.unique_rows()}
        b = {r.values for r in self.handle.unique_rows()}
        assert a == b


class TestStartNodes:
    def test_start_node_dispatch_traced(self, campus_web):
        engine = WebDisEngine(campus_web, trace=True)
        engine.run_query(CAMPUS_QUERY_DISQL)
        starts = engine.tracer.nodes_with_role(START_NODE)
        assert starts == ["http://www.csa.iisc.ernet.in/"]

    def test_unreachable_start_site_completes_empty(self, campus_web):
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(
            'select d.url from document d such that "http://nowhere.example/" L d'
        )
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.rows() == []

    def test_missing_start_page_completes_empty(self, campus_web):
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(
            'select d.url from document d such that'
            ' "http://www.csa.iisc.ernet.in/NoSuchPage" L d'
        )
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.rows() == []

    def test_multiple_start_nodes(self, campus_web):
        engine = WebDisEngine(campus_web)
        handle = engine.run_query(
            "select d.url from document d such that "
            '"http://dsl.serc.iisc.ernet.in/" | "http://www.iisc.ernet.in/" N|L*1 d'
        )
        assert handle.status is QueryStatus.COMPLETE
        urls = {r.values[0] for r in handle.unique_rows()}
        assert "http://dsl.serc.iisc.ernet.in/" in urls
        assert "http://www.iisc.ernet.in/" in urls


def _two_site_web():
    builder = WebBuilder()
    builder.site("a.example").page(
        "/", title="alpha topic", links=[("b", "http://b.example/")]
    )
    builder.site("b.example").page(
        "/", title="beta topic", links=[("a", "http://a.example/")]
    )
    return builder.build()


QUERY_AB = (
    'select d.url from document d such that "http://a.example/" (G*2) d\n'
    'where d.title contains "topic"'
)


class TestProtocolBehaviour:
    def test_cycle_terminates_via_log_table(self):
        engine = WebDisEngine(_two_site_web())
        handle = engine.run_query(
            'select d.url from document d such that "http://a.example/" G* d\n'
            'where d.title contains "topic"'
        )
        assert handle.status is QueryStatus.COMPLETE
        urls = {r.values[0] for r in handle.unique_rows()}
        assert urls == {"http://a.example/", "http://b.example/"}

    def test_transient_result_failure_purges_branch(self):
        engine = WebDisEngine(_two_site_web())
        # b.example's result dispatch to the user will fail once.
        engine.network.fail_next("b.example", "user.example")
        handle = engine.run_query(QUERY_AB)
        # The query can never be detected complete (CHT entry outstanding) —
        # but it must NOT be *wrongly* declared complete.
        assert handle.status is QueryStatus.RUNNING
        assert not handle.cht.all_deleted()
        assert engine.stats.failed_sends == 1

    def test_no_false_completion_under_failures(self):
        engine = WebDisEngine(_two_site_web())
        engine.network.fail_next("a.example", "user.example")
        handle = engine.run_query(QUERY_AB)
        assert handle.status is QueryStatus.RUNNING

    def test_unreachable_forward_retires_entries(self):
        builder = WebBuilder()
        builder.site("a.example").page(
            "/", title="root topic", links=[("ghost", "http://ghost.example/")]
        )
        web = builder.build()
        engine = WebDisEngine(web)
        # ghost.example hosts no pages and no server, yet completion is exact.
        handle = engine.run_query(QUERY_AB)
        assert handle.status is QueryStatus.COMPLETE

    def test_floating_link_to_existing_site(self):
        builder = WebBuilder()
        builder.site("a.example").page(
            "/", title="root topic", links=[("dead", "http://b.example/missing.html")]
        )
        builder.site("b.example").page("/", title="beta topic")
        engine = WebDisEngine(builder.build(), trace=True)
        handle = engine.run_query(QUERY_AB)
        assert handle.status is QueryStatus.COMPLETE
        assert "missing" in engine.tracer.actions()

    def test_cancellation_stops_results(self):
        engine = WebDisEngine(_two_site_web(), net_config=NetworkConfig(latency_base=0.5))
        handle = engine.submit_disql(QUERY_AB)
        engine.cancel(handle, at=0.6)
        engine.run()
        assert handle.status is QueryStatus.CANCELLED
        assert handle.cancel_time == pytest.approx(0.6)

    def test_cancellation_purges_servers(self):
        engine = WebDisEngine(_two_site_web(), net_config=NetworkConfig(latency_base=0.5))
        handle = engine.submit_disql(QUERY_AB)
        engine.cancel(handle, at=0.01)  # cancel before any server replies
        engine.run()
        # Every server that tried to reply found the socket closed: no
        # clones forwarded past the first hop, no chase messages needed.
        assert engine.stats.refused_sends >= 1
        assert handle.results == []

    def test_cancel_twice_raises(self, campus_web):
        from repro.errors import QueryLifecycleError

        engine = WebDisEngine(campus_web, net_config=NetworkConfig(latency_base=1.0))
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        engine.client.cancel(handle)
        with pytest.raises(QueryLifecycleError):
            engine.client.cancel(handle)

    def test_two_queries_same_engine_isolated(self, campus_web):
        engine = WebDisEngine(campus_web)
        h1 = engine.submit_disql(CAMPUS_QUERY_DISQL)
        h2 = engine.submit_disql(
            'select d.url from document d such that "http://www.iisc.ernet.in/" N d'
        )
        engine.run()
        assert h1.status is QueryStatus.COMPLETE
        assert h2.status is QueryStatus.COMPLETE
        assert h1.qid.number != h2.qid.number
        assert {r.values[0] for r in h2.unique_rows()} == {"http://www.iisc.ernet.in/"}


class TestConfigurationVariants:
    def test_strict_dead_end_loses_campus_answers(self, campus_web):
        engine = WebDisEngine(campus_web, config=EngineConfig(strict_dead_end=True))
        handle = engine.run_query(CAMPUS_QUERY_DISQL)
        assert handle.status is QueryStatus.COMPLETE
        # Under the literal Figure-4 rule the lab homepages fail q2 and kill
        # the L-continuations: only the www2 homepage (which matches q2
        # directly) survives.  This documents why lenient is the default.
        got = {r.values[0] for r in handle.unique_rows("q2")}
        assert got == {"http://www2.csa.iisc.ernet.in/~gang/lab"}

    def test_per_node_clones_more_messages(self, campus_web):
        batched = WebDisEngine(campus_web)
        batched.run_query(CAMPUS_QUERY_DISQL)
        unbatched = WebDisEngine(campus_web, config=EngineConfig(batch_per_site=False))
        unbatched.run_query(CAMPUS_QUERY_DISQL)
        assert (
            unbatched.stats.messages_by_kind["query"]
            >= batched.stats.messages_by_kind["query"]
        )

    def test_separate_cht_messages_doubles_result_traffic(self, campus_web):
        combined = WebDisEngine(campus_web)
        h1 = combined.run_query(CAMPUS_QUERY_DISQL)
        split = WebDisEngine(
            campus_web, config=EngineConfig(combine_results_and_cht=False)
        )
        h2 = split.run_query(CAMPUS_QUERY_DISQL)
        assert h2.status is QueryStatus.COMPLETE
        assert {r.values for r in h2.unique_rows("q2")} == {
            r.values for r in h1.unique_rows("q2")
        }
        split_count = (
            split.stats.messages_by_kind["cht"] + split.stats.messages_by_kind["result"]
        )
        assert split_count > combined.stats.messages_by_kind["result"]

    def test_retrace_mode_same_answers_more_messages(self, campus_web):
        direct = WebDisEngine(campus_web)
        h1 = direct.run_query(CAMPUS_QUERY_DISQL)
        retrace = WebDisEngine(
            campus_web, config=EngineConfig(direct_result_return=False)
        )
        h2 = retrace.run_query(CAMPUS_QUERY_DISQL)
        assert h2.status is QueryStatus.COMPLETE
        assert {r.values for r in h2.unique_rows("q2")} == {
            r.values for r in h1.unique_rows("q2")
        }
        assert retrace.stats.messages_by_kind["relay"] > 0
        assert retrace.stats.messages_sent > direct.stats.messages_sent
        assert h2.response_time() > h1.response_time()

    def test_db_cache_avoids_rebuilds(self, figure5_web):
        cached = WebDisEngine(figure5_web)
        cached.run_query(figure_query_disql(FIGURE5_START_URL))
        hits = sum(s.constructor.hits for s in cached.servers.values())
        assert hits > 0
        assert cached.stats.db_cache_hits == hits

    def test_log_purge_causes_recomputation_not_wrong_answers(self, figure5_web):
        eager = WebDisEngine(
            figure5_web,
            config=EngineConfig(log_max_age=0.0001),
        )
        handle = eager.run_query(figure_query_disql(FIGURE5_START_URL))
        assert handle.status is QueryStatus.COMPLETE
        baseline = WebDisEngine(figure5_web)
        expected = baseline.run_query(figure_query_disql(FIGURE5_START_URL))
        assert {r.values for r in handle.unique_rows()} == {
            r.values for r in expected.unique_rows()
        }
