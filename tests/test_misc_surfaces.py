"""Coverage of the smaller public surfaces: traces, handles, engine helpers."""

from __future__ import annotations

import asyncio
import gc
import weakref
from pathlib import Path

import pytest

from repro import EngineConfig, QueryStatus, WebDisEngine, build_engine
from repro.core.state import QueryState
from repro.core.trace import Tracer
from repro.pre import parse_pre
from repro.web.campus import CAMPUS_QUERY_DISQL


class TestTracer:
    def _tracer(self) -> Tracer:
        tracer = Tracer()
        state = QueryState(1, parse_pre("G"))
        tracer.node(0.5, "http://a.example/", "a.example", state, "routed", role="PureRouter")
        tracer.node(
            1.0, "http://b.example/", "b.example", state, "answered", "q1", role="ServerRouter"
        )
        return tracer

    def test_render_contains_events(self):
        text = self._tracer().render()
        assert "routed" in text and "answered" in text and "[q1]" in text

    def test_event_str(self):
        event = self._tracer().events[1]
        assert "answered" in str(event) and "q1" in str(event)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.node(0, "n", "s", QueryState(1, parse_pre("G")), "a", role="r")
        tracer.site(0, "s", "a")
        assert tracer.events == []

    def test_actions_counter(self):
        assert self._tracer().actions() == {"routed": 1, "answered": 1}

    def test_visits_in_time_order(self):
        tracer = self._tracer()
        visits = tracer.visits_to("http://a.example/")
        assert len(visits) == 1 and visits[0].time == 0.5


class TestQueryHandleSurfaces:
    @pytest.fixture()
    def handle(self, campus_web):
        engine = WebDisEngine(campus_web)
        return engine.run_query(CAMPUS_QUERY_DISQL)

    def test_rows_by_label(self, handle):
        assert len(handle.rows("q1")) >= 1
        assert handle.rows("q99") == []

    def test_rows_all(self, handle):
        assert len(handle.rows()) == len(handle.rows("q1")) + len(handle.rows("q2"))

    def test_display_table_headers(self, handle):
        table = handle.display_table()
        assert "d1.url" in table and "r.text" in table

    def test_qid_str(self, handle):
        rendered = str(handle.qid)
        assert rendered.startswith("maya@user.example:")

    def test_messages_received_counted(self, handle):
        assert handle.messages_received > 0

    def test_empty_results_display(self, campus_web):
        engine = WebDisEngine(campus_web)
        handle = engine.run_query(
            'select d.url from document d such that'
            ' "http://www.csa.iisc.ernet.in/" L d\n'
            'where d.title contains "zzzz"'
        )
        assert handle.status is QueryStatus.COMPLETE
        assert "Results of the query" in handle.display_table()


class TestCompletedHandlesAreReleased:
    """The client keeps no handle past its query: once the caller drops a
    completed handle, its rows and CHT history go with it."""

    QUERIES = 5

    def _sim(self, web) -> list:
        engine = build_engine(web)
        refs = []
        for __ in range(self.QUERIES):
            handle = engine.run_query(CAMPUS_QUERY_DISQL)
            assert handle.status is QueryStatus.COMPLETE
            refs.append(weakref.ref(handle))
        del handle
        gc.collect()
        return [ref() is not None for ref in refs]

    def _asyncio(self, web) -> list:
        async def main() -> list:
            engine = build_engine(web, config=EngineConfig(transport="asyncio"))
            try:
                refs = []
                for __ in range(self.QUERIES):
                    handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
                    await engine.run([handle], timeout=30.0)
                    assert handle.status is QueryStatus.COMPLETE
                    refs.append(weakref.ref(handle))
                del handle
                gc.collect()
                return [ref() is not None for ref in refs]
            finally:
                await engine.aclose()

        return asyncio.run(main())

    @pytest.mark.parametrize("transport", ["sim", "asyncio"])
    def test_dropped_handles_are_garbage_collected(self, campus_web, transport):
        alive = getattr(self, f"_{transport}")(campus_web)
        assert alive == [False] * self.QUERIES


class TestEngineSurfaces:
    def test_server_for(self, campus_web):
        engine = WebDisEngine(campus_web)
        server = engine.server_for("DSL.SERC.IISC.ERNET.IN")
        assert server.site == "dsl.serc.iisc.ernet.in"

    def test_total_log_entries(self, campus_web):
        engine = WebDisEngine(campus_web)
        assert engine.total_log_entries() == 0
        engine.run_query(CAMPUS_QUERY_DISQL)
        assert engine.total_log_entries() > 0

    def test_queue_depth_zero_at_quiescence(self, campus_web):
        engine = WebDisEngine(campus_web)
        engine.run_query(CAMPUS_QUERY_DISQL)
        assert all(s.queue_depth == 0 for s in engine.servers.values())

    def test_participating_sites_subset(self, campus_web):
        engine = WebDisEngine(
            campus_web, participating_sites=["www.csa.iisc.ernet.in"]
        )
        assert set(engine.servers) == {"www.csa.iisc.ernet.in"}

    def test_run_until(self, campus_web):
        engine = WebDisEngine(campus_web)
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        engine.run(until=0.01)
        assert handle.status is QueryStatus.RUNNING
        engine.run()
        assert handle.status is QueryStatus.COMPLETE

    def test_custom_user_and_site(self, campus_web):
        engine = WebDisEngine(campus_web, user_site="client.example", user="nalin")
        handle = engine.run_query(CAMPUS_QUERY_DISQL)
        assert handle.qid.user == "nalin"
        assert handle.qid.host == "client.example"


class TestDotExport:
    def test_dot_structure(self, campus_web):
        engine = WebDisEngine(campus_web, trace=True)
        engine.run_query(CAMPUS_QUERY_DISQL)
        dot = engine.tracer.to_dot("sample query")
        assert dot.startswith("digraph webdis {")
        assert dot.rstrip().endswith("}")
        assert '"http://www.csa.iisc.ernet.in/Labs"' in dot
        assert "->" in dot

    def test_answered_nodes_shaded(self, campus_web):
        engine = WebDisEngine(campus_web, trace=True)
        engine.run_query(CAMPUS_QUERY_DISQL)
        dot = engine.tracer.to_dot()
        labs_line = next(
            line for line in dot.splitlines()
            if line.strip().startswith('"http://www.csa.iisc.ernet.in/Labs" [')
        )
        assert "palegreen" in labs_line

    def test_empty_trace(self):
        assert "digraph" in Tracer().to_dot()


def test_every_bench_is_named_by_a_ci_step():
    # A bench no CI job runs silently orphans its results file.
    root = Path(__file__).resolve().parent.parent
    workflow = (root / ".github" / "workflows" / "ci.yml").read_text()
    benches = sorted(path.name for path in (root / "benchmarks").glob("bench_*.py"))
    assert benches
    assert [name for name in benches if name not in workflow] == []
