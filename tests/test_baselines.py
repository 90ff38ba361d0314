"""Tests for the data-shipping baseline and the hybrid engine."""

from __future__ import annotations

import pytest

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.baselines import DataShippingEngine, HybridEngine
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.campus import CAMPUS_QUERY_DISQL, EXPECTED_CONVENER_ROWS
from repro.web.synthetic import synthetic_start_url

SWEEP_CONFIG = SyntheticWebConfig(sites=6, pages_per_site=4, seed=77)
SWEEP_QUERY = (
    'select d.url from document d such that "http://site000.example/" (L|G)*3 d\n'
    'where d.title contains "topic"'
)


class TestDataShipping:
    def test_campus_answers_match_distributed(self, campus_web):
        ds = DataShippingEngine(campus_web)
        result = ds.run_query(CAMPUS_QUERY_DISQL)
        assert {r.values for r in result.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)

    def test_documents_travel(self, campus_web):
        ds = DataShippingEngine(campus_web)
        result = ds.run_query(CAMPUS_QUERY_DISQL)
        assert result.documents_fetched > 0
        assert ds.stats.documents_shipped == result.documents_fetched
        assert ds.stats.document_bytes_shipped > 0

    def test_query_shipping_ships_no_documents(self, campus_web):
        qs = WebDisEngine(campus_web)
        qs.run_query(CAMPUS_QUERY_DISQL)
        assert qs.stats.documents_shipped == 0

    def test_data_shipping_sends_more_bytes(self, campus_web):
        ds = DataShippingEngine(campus_web)
        ds.run_query(CAMPUS_QUERY_DISQL)
        qs = WebDisEngine(campus_web)
        qs.run_query(CAMPUS_QUERY_DISQL)
        assert ds.stats.bytes_sent > qs.stats.bytes_sent

    def test_all_processing_at_user_site(self, campus_web):
        ds = DataShippingEngine(campus_web)
        ds.run_query(CAMPUS_QUERY_DISQL)
        # Document serving is trivial; node-query CPU is all at the client.
        site, __ = ds.stats.max_site_load()
        assert site == "user.example"

    def test_equivalence_on_synthetic_web(self):
        web = build_synthetic_web(SWEEP_CONFIG)
        ds = DataShippingEngine(web).run_query(SWEEP_QUERY)
        qs = WebDisEngine(web).run_query(SWEEP_QUERY)
        assert {r.values for r in ds.unique_rows()} == {
            r.values for r in qs.unique_rows()
        }

    def test_duplicate_suppression_applies(self):
        web = build_synthetic_web(SWEEP_CONFIG)
        ds = DataShippingEngine(web)
        ds.run_query(SWEEP_QUERY)
        # The cyclic synthetic web forces revisits; the shared log table
        # machinery must suppress them exactly as in the distributed engine.
        assert ds.stats.duplicates_dropped > 0

    def test_completion_time_set(self, campus_web):
        result = DataShippingEngine(campus_web).run_query(CAMPUS_QUERY_DISQL)
        assert result.response_time() is not None
        assert result.first_result_latency() <= result.response_time()

    def test_single_query_per_instance(self, campus_web):
        ds = DataShippingEngine(campus_web)
        ds.run_query(CAMPUS_QUERY_DISQL)
        with pytest.raises(RuntimeError):
            ds.submit_disql(CAMPUS_QUERY_DISQL)

    def test_missing_start_page_completes(self, campus_web):
        ds = DataShippingEngine(campus_web)
        result = ds.run_query(
            'select d.url from document d such that "http://www.csa.iisc.ernet.in/zzz" L d'
        )
        assert result.response_time() is not None
        assert result.rows() == []

    def test_fetch_pipelining_bounded(self, campus_web):
        ds = DataShippingEngine(campus_web, max_concurrent_fetches=1)
        result = ds.run_query(CAMPUS_QUERY_DISQL)
        assert {r.values for r in result.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)


class TestHybrid:
    def test_full_participation_equals_query_shipping(self, campus_web):
        hybrid = HybridEngine(campus_web, campus_web.site_names)
        handle = hybrid.run_query(CAMPUS_QUERY_DISQL)
        assert handle.status is QueryStatus.COMPLETE
        assert hybrid.stats.documents_shipped == 0
        assert {r.values for r in handle.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)

    def test_zero_participation_fully_central(self, campus_web):
        hybrid = HybridEngine(campus_web, [])
        handle = hybrid.run_query(CAMPUS_QUERY_DISQL)
        assert handle.status is QueryStatus.COMPLETE
        assert {r.values for r in handle.unique_rows("q2")} == set(EXPECTED_CONVENER_ROWS)
        assert hybrid.stats.documents_shipped > 0

    def test_partial_participation_intermediate_traffic(self, campus_web):
        full = HybridEngine(campus_web, campus_web.site_names)
        full.run_query(CAMPUS_QUERY_DISQL)
        partial = HybridEngine(
            campus_web, ["www.csa.iisc.ernet.in", "dsl.serc.iisc.ernet.in"]
        )
        partial.run_query(CAMPUS_QUERY_DISQL)
        none = HybridEngine(campus_web, [])
        none.run_query(CAMPUS_QUERY_DISQL)
        assert (
            full.stats.document_bytes_shipped
            < partial.stats.document_bytes_shipped
            <= none.stats.document_bytes_shipped
        )

    @pytest.mark.parametrize("participating", [0, 2, 4, 6])
    def test_answers_invariant_across_participation(self, participating):
        web = build_synthetic_web(SWEEP_CONFIG)
        sites = web.site_names[:participating]
        hybrid = HybridEngine(web, sites)
        handle = hybrid.run_query(SWEEP_QUERY)
        assert handle.status is QueryStatus.COMPLETE
        reference = WebDisEngine(web).run_query(SWEEP_QUERY)
        assert {r.values for r in handle.unique_rows()} == {
            r.values for r in reference.unique_rows()
        }

    def test_central_helper_runs_the_servers_per_node_loop(self, campus_web):
        """One Figure-3 loop: a fully central run counts and traces every
        node outcome exactly as the query-servers do."""

        def per_node_view(engine):
            engine.run_query(CAMPUS_QUERY_DISQL)
            stats = engine.stats
            return (
                stats.dead_ends, stats.duplicates_dropped, stats.queries_rewritten,
                stats.node_queries_evaluated, stats.documents_parsed,
                sorted(
                    (event.node, event.action)
                    for event in engine.tracer.events
                    if event.node != "-"
                ),
            )

        central = per_node_view(HybridEngine(campus_web, [], trace=True))
        assert central == per_node_view(WebDisEngine(campus_web, trace=True))
        assert central[0] > 0  # the campus query has dead ends to count

    def test_central_processor_load_at_user_site(self, campus_web):
        hybrid = HybridEngine(campus_web, [])
        hybrid.run_query(CAMPUS_QUERY_DISQL)
        assert hybrid.stats.processing_by_site["user.example"] > 0
