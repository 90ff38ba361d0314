"""Deeper protocol robustness: concurrency, interleaving, mixed features.

These tests exercise combinations the individual feature tests don't:
multi-threaded servers under the full protocol, cancellation in retrace
mode (the paper's termination criticism), many interleaved queries sharing
one deployment, and extensions composed together.
"""

from __future__ import annotations

import pytest

from repro import EngineConfig, NetworkConfig, QueryStatus, WebDisEngine
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.synthetic import synthetic_start_url

CONFIG = SyntheticWebConfig(sites=8, pages_per_site=5, seed=111)
QUERY = (
    'select d.url from document d such that "{start}" (L|G)*3 d\n'
    'where d.title contains "topic"'
)


def _disql():
    return QUERY.format(start=synthetic_start_url(CONFIG))


class TestMultiThreadedServers:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_same_answers_as_sequential(self, threads):
        web = build_synthetic_web(CONFIG)
        sequential = WebDisEngine(web).run_query(_disql())
        threaded_engine = WebDisEngine(web, config=EngineConfig(server_threads=threads))
        threaded = threaded_engine.run_query(_disql())
        assert threaded.status is QueryStatus.COMPLETE
        assert {r.values for r in threaded.unique_rows()} == {
            r.values for r in sequential.unique_rows()
        }

    def test_completion_exact_with_threads(self):
        engine = WebDisEngine(
            build_synthetic_web(CONFIG), config=EngineConfig(server_threads=4)
        )
        handle = engine.run_query(_disql())
        handle.cht.check_consistency()
        assert handle.cht.imbalance() == 0

    def test_threads_never_slower(self):
        web = build_synthetic_web(CONFIG)
        t1 = WebDisEngine(web).run_query(_disql()).response_time()
        t4_engine = WebDisEngine(web, config=EngineConfig(server_threads=4))
        t4 = t4_engine.run_query(_disql()).response_time()
        assert t4 <= t1 + 1e-9


class TestRetraceTermination:
    def test_cancel_under_retrace_leaves_orphans(self):
        """The §2.6 drawback, observable: under path retrace the processing
        server only knows its first backward hop succeeded, so cancellation
        does not reach it and clones keep being forwarded after cancel."""
        web = build_synthetic_web(CONFIG)
        net = NetworkConfig(latency_base=0.2)

        direct = WebDisEngine(web, net_config=net)
        h1 = direct.submit_disql(_disql())
        direct.cancel(h1, at=0.5)
        direct.run()
        direct_after = direct.stats.clones_forwarded

        retrace = WebDisEngine(
            web, net_config=net, config=EngineConfig(direct_result_return=False)
        )
        h2 = retrace.submit_disql(_disql())
        retrace.cancel(h2, at=0.5)
        retrace.run()
        # Retrace keeps forwarding: at least as many clones moved, and the
        # relay channel kept carrying dead results.
        assert retrace.stats.clones_forwarded >= direct_after
        assert retrace.stats.messages_by_kind["relay"] > 0
        # Both modes still quiesce (the web is finite) — no infinite chase.
        assert retrace.clock.pending() == 0


class TestInterleavedQueries:
    def test_ten_queries_share_one_deployment(self):
        engine = WebDisEngine(build_synthetic_web(CONFIG))
        handles = [engine.submit_disql(_disql()) for __ in range(10)]
        engine.run()
        assert all(h.status is QueryStatus.COMPLETE for h in handles)
        reference = {r.values for r in handles[0].unique_rows()}
        for handle in handles[1:]:
            assert {r.values for r in handle.unique_rows()} == reference

    def test_distinct_qids(self):
        engine = WebDisEngine(build_synthetic_web(CONFIG))
        handles = [engine.submit_disql(_disql()) for __ in range(3)]
        engine.run()
        qids = {str(h.qid) for h in handles}
        assert len(qids) == 3

    def test_log_tables_isolate_queries(self):
        """Two identical queries must both get full answers — the log table
        keys on the query id, so the second is not 'duplicate' of the first."""
        engine = WebDisEngine(build_synthetic_web(CONFIG))
        first = engine.submit_disql(_disql())
        engine.run()
        second = engine.submit_disql(_disql())
        engine.run()
        assert {r.values for r in first.unique_rows()} == {
            r.values for r in second.unique_rows()
        }

    def test_cancel_one_of_two(self):
        engine = WebDisEngine(
            build_synthetic_web(CONFIG), net_config=NetworkConfig(latency_base=0.1)
        )
        keep = engine.submit_disql(_disql())
        drop = engine.submit_disql(_disql())
        engine.cancel(drop, at=0.15)
        engine.run()
        assert keep.status is QueryStatus.COMPLETE
        assert drop.status is QueryStatus.CANCELLED
        assert len(keep.unique_rows()) > 0


class TestFeatureComposition:
    def test_fuzzy_plus_sitewide(self):
        from repro.web.builders import WebBuilder

        builder = WebBuilder()
        site = builder.site("lab.example")
        site.page(
            "/",
            title="lab projects",
            links=[("contact", "/contact.html")],
        )
        site.page("/contact.html", title="contackt page")  # typo'd title
        web = builder.build()
        engine = WebDisEngine(web)
        handle = engine.run_query(
            "select d.url, e.url\n"
            'from document d such that "http://lab.example/" N d,\n'
            "     document e such that sitewide\n"
            'where d.title contains "projects" and e.title contains~1 "contact"'
        )
        assert handle.status is QueryStatus.COMPLETE
        assert len(handle.unique_rows()) == 1
