"""Frontier-batched clone processing (EXP-P2).

Covers the four layers the optimization touches:

* :class:`~repro.core.messages.CloneBundle` — validation, wire round-trip;
* :meth:`~repro.core.logtable.NodeQueryLogTable.observe_bulk` — outcome-
  identical to sequential ``observe`` calls;
* the :class:`~repro.core.server.QueryServer` frontier pump — counters,
  coalesced dispatch, recovery when a bundle's destination crashes;
* engine-level equivalence — distinct rows, completion outcomes and
  canonical log-table end states identical with the knob on or off, and
  with ``batch_per_site`` off vs on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    EngineConfig,
    NetworkConfig,
    QueryStatus,
    RetryPolicy,
    WebDisEngine,
)
from repro.core.logtable import LogAction, NodeQueryLogTable
from repro.core.messages import CloneBundle
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId
from repro.disql import compile_disql
from repro.errors import DisqlSemanticsError
from repro.pre.parser import parse_pre
from repro.urlutils import Url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.builders import WebBuilder
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.web.synthetic import synthetic_start_url
from repro.wire import decode_message, encode_message, wire_size


def _fanout_web():
    """Site a's frontier sends two clones to site b — a bundle of two.

    ``/`` forwards globally to ``b/x`` and locally to ``/p1``; the frontier
    absorbs the local hop and ``/p1`` forwards globally to ``b/y``.  Both
    remote clones target ``b.example``, so one pump emits one CloneBundle
    carrying two clones (each with its own dispatch identity).
    """
    builder = WebBuilder()
    builder.site("a.example").page(
        "/",
        title="a root",
        links=[("p1", "/p1"), ("bx", "http://b.example/x")],
    ).page("/p1", title="a deeper", links=[("by", "http://b.example/y")])
    builder.site("b.example").page("/x", title="hit x").page("/y", title="hit y")
    return builder.build()


FANOUT_QUERY = (
    'select d.url from document d such that "http://a.example/" L*1 G d\n'
    'where d.title contains "hit"'
)

#: Distributed fan-out then site-local traversal — the frontier-friendly
#: shape (the EXP-P2 drill-down workload, smaller).
DRILL_QUERY = (
    'select d.url from document d such that "{start}" (L|G)*2 L*2 d\n'
    'where d.title contains "topic"'
)


def _drill_web():
    config = SyntheticWebConfig(
        sites=8, pages_per_site=8, local_out_degree=2, global_out_degree=2, seed=502
    )
    return build_synthetic_web(config), DRILL_QUERY.format(
        start=synthetic_start_url(config)
    )


def _distinct_rows(handle):
    return frozenset((label, row.header, row.values) for label, row, __ in handle.results)


def _log_snapshots(engine):
    return {
        site: server.log_table.canonical_snapshot()
        for site, server in sorted(engine.servers.items())
    }


def _run(web, disql, **config):
    engine = WebDisEngine(web, config=EngineConfig(**config))
    handle = engine.run_query(disql)
    return engine, handle


def _clone(*paths, site="b.example", step=0):
    query = compile_disql(FANOUT_QUERY)
    dest = tuple(Url(site, path) for path in paths)
    return QueryClone(query, step, query.steps[step].pre, dest)


class TestCloneBundle:
    def test_rejects_empty(self):
        with pytest.raises(DisqlSemanticsError, match="empty"):
            CloneBundle(())

    def test_rejects_mixed_sites(self):
        with pytest.raises(DisqlSemanticsError, match="multiple sites"):
            CloneBundle((_clone("/x"), _clone("/", site="a.example")))

    def test_kind_site_and_size(self):
        clones = (_clone("/x"), _clone("/y"))
        bundle = CloneBundle(clones)
        assert bundle.kind == "query-batch"
        assert bundle.site == "b.example"
        assert bundle.size_bytes() > sum(c.size_bytes() for c in clones)

    def test_wire_roundtrip(self):
        bundle = CloneBundle((
            replace(_clone("/x"), dispatch_id="s1@a.example", epoch=2),
            _clone("/y"),
        ))
        decoded = decode_message(encode_message(bundle))
        assert isinstance(decoded, CloneBundle)
        assert decoded == bundle
        assert wire_size(bundle) == len(encode_message(bundle))


NODE_A = Url("n.example", "/a")
NODE_B = Url("n.example", "/b")
NODE_C = Url("n.example", "/c")
QID = QueryId("maya", "user.example", 5000, 7)


class TestObserveBulk:
    """Bulk admission must be outcome-identical to sequential observe."""

    def _paired(self, prime_states, nodes, state):
        """Two tables primed identically; one observed bulk, one sequential."""
        bulk, seq = NodeQueryLogTable(), NodeQueryLogTable()
        for node, primed in prime_states:
            bulk.observe(node, QID, primed, 0.0)
            seq.observe(node, QID, primed, 0.0)
        bulk_obs = bulk.observe_bulk(nodes, QID, state, 1.0)
        seq_obs = [seq.observe(node, QID, state, 1.0) for node in nodes]
        return bulk, seq, bulk_obs, seq_obs

    def _assert_identical(self, bulk, seq, bulk_obs, seq_obs, nodes):
        assert [(o.action, str(o.rewritten_rem)) for o in bulk_obs] == [
            (o.action, str(o.rewritten_rem)) for o in seq_obs
        ]
        assert (bulk.inserts, bulk.drops, bulk.rewrites) == (
            seq.inserts, seq.drops, seq.rewrites
        )
        for node in nodes:
            assert bulk.states_for(node, QID) == seq.states_for(node, QID)

    def test_fresh_nodes_all_process(self):
        nodes = (NODE_A, NODE_B, NODE_C)
        args = self._paired([], nodes, QueryState(1, parse_pre("G")))
        self._assert_identical(*args, nodes)
        assert all(o.action is LogAction.PROCESS for o in args[2])

    def test_mixed_drop_rewrite_process(self):
        nodes = (NODE_A, NODE_B, NODE_C)
        primed = [
            (NODE_A, QueryState(1, parse_pre("L*4.G"))),  # wider: incoming drops
            (NODE_B, QueryState(1, parse_pre("L*1.G"))),  # narrower: rewrite
        ]
        incoming = QueryState(1, parse_pre("L*2.G"))
        args = self._paired(primed, nodes, incoming)
        self._assert_identical(*args, nodes)
        assert [o.action for o in args[2]] == [
            LogAction.DROP, LogAction.REWRITE, LogAction.PROCESS
        ]

    def test_rewrite_rem_shared_across_nodes(self):
        nodes = (NODE_A, NODE_B)
        primed = [
            (NODE_A, QueryState(1, parse_pre("L*1.G"))),
            (NODE_B, QueryState(1, parse_pre("L*1.G"))),
        ]
        args = self._paired(primed, nodes, QueryState(1, parse_pre("L*3.G")))
        self._assert_identical(*args, nodes)
        rems = {str(o.rewritten_rem) for o in args[2]}
        assert rems == {"L.L*2.G"}

    def test_repeated_node_in_dest_drops_second_visit(self):
        # The same node twice in one pass: first inserts, second drops —
        # exactly the sequential outcome.
        nodes = (NODE_A, NODE_A)
        args = self._paired([], nodes, QueryState(1, parse_pre("G")))
        self._assert_identical(*args, nodes)
        assert [o.action for o in args[2]] == [LogAction.PROCESS, LogAction.DROP]


class TestFrontierPump:
    def test_bundle_coalesces_same_site_forwards(self):
        engine, handle = _run(_fanout_web(), FANOUT_QUERY)
        assert handle.status is QueryStatus.COMPLETE
        assert {row.values[0] for row in handle.unique_rows()} == {
            "http://b.example/x", "http://b.example/y"
        }
        stats = engine.stats
        assert stats.frontier_batches >= 1
        assert stats.frontier_clones_batched >= 2
        assert stats.clone_bundles_sent == 1
        assert stats.clones_bundled == 2
        assert stats.messages_saved == 1
        assert stats.events_saved >= 2
        assert stats.messages_by_kind["query-batch"] == 1
        assert handle.cht.imbalance() == 0

    def test_knob_off_sends_separate_clones(self):
        engine, handle = _run(_fanout_web(), FANOUT_QUERY, frontier_batching=False)
        assert handle.status is QueryStatus.COMPLETE
        stats = engine.stats
        assert stats.frontier_batches == 0
        assert stats.clone_bundles_sent == 0
        assert stats.messages_saved == 0
        assert stats.events_saved == 0
        assert stats.messages_by_kind["query-batch"] == 0

    def test_retrace_mode_disables_frontier(self):
        # Path-retrace result return needs per-hop history; the frontier
        # pump must stand down rather than mangle the trails.
        engine, handle = _run(
            _fanout_web(), FANOUT_QUERY, direct_result_return=False
        )
        assert handle.status is QueryStatus.COMPLETE
        assert engine.stats.frontier_batches == 0
        assert engine.stats.clone_bundles_sent == 0

    def test_frontier_saves_events_and_messages(self):
        web, disql = _drill_web()
        on, on_handle = _run(web, disql, frontier_batching=True)
        web2, disql2 = _drill_web()
        off, off_handle = _run(web2, disql2, frontier_batching=False)
        assert on_handle.status is QueryStatus.COMPLETE
        assert off_handle.status is QueryStatus.COMPLETE
        assert on.clock.events_executed < off.clock.events_executed
        assert on.stats.messages_sent < off.stats.messages_sent

    @pytest.mark.parametrize(
        "config",
        [{}, {"pump_budget": 2}, {"frontier_batching": False}],
        ids=["unbounded", "pump_budget", "one-hop"],
    )
    def test_local_hops_counts_each_same_site_clone_once(self, config):
        # Absorbed in the pass that minted it or re-queued past the hop
        # budget, a same-site clone is one local hop — never both.
        web, disql = _drill_web()
        engine = WebDisEngine(web, config=EngineConfig(**config))
        minted = []
        for server in engine.servers.values():
            def counting(clone, inner=server._process, site=server.site):
                reports, children, service = inner(clone)
                minted.extend(child for child in children if child.site == site)
                return reports, children, service

            server._process = counting
        handle = engine.run_query(disql)
        assert handle.status is QueryStatus.COMPLETE
        stats = engine.stats
        assert minted and stats.local_hops == len(minted)
        assert stats.clones_requeued <= stats.local_hops
        if config == {"pump_budget": 2}:
            assert 0 < stats.clones_requeued < stats.local_hops
        elif "frontier_batching" in config:
            assert stats.clones_requeued == stats.local_hops
        else:
            assert stats.clones_requeued == 0

    def test_tracer_records_frontier_batches(self):
        web, disql = _drill_web()
        engine = WebDisEngine(web, trace=True)
        handle = engine.run_query(disql)
        assert handle.status is QueryStatus.COMPLETE
        if engine.stats.frontier_batches:
            assert "frontier-batched" in engine.tracer.actions()


class TestBundleRecovery:
    RETRIES = RetryPolicy(max_attempts=8, base_delay=0.5, multiplier=2.0, jitter=0.0)

    def test_retry_bridges_bundle_to_crashed_site(self):
        engine = WebDisEngine(
            _fanout_web(),
            config=EngineConfig(retry_policy=self.RETRIES),
            net_config=NetworkConfig(latency_base=1.0),
        )
        handle = engine.submit_disql(FANOUT_QUERY)
        engine.crash_server("b.example", at=0.5)
        engine.restart_server("b.example", at=4.0)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert {row.values[0] for row in handle.unique_rows()} == {
            "http://b.example/x", "http://b.example/y"
        }
        assert engine.stats.retried_sends >= 1
        assert engine.stats.clone_bundles_sent == 1

    def test_unreachable_bundle_retracts_every_inner_clone(self):
        engine = WebDisEngine(
            _fanout_web(),
            config=EngineConfig(
                retry_policy=RetryPolicy(max_attempts=2, base_delay=0.2, jitter=0.0)
            ),
            net_config=NetworkConfig(latency_base=1.0),
        )
        handle = engine.submit_disql(FANOUT_QUERY)
        engine.crash_server("b.example", at=0.5)  # never restarts
        engine.run()
        # Both bundled clones' CHT entries are retired individually: exact
        # completion with the dead site's answers missing.
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert handle.unique_rows() == []
        assert engine.stats.retries_exhausted >= 1


class TestEngineEquivalence:
    """Answers must not depend on the batching knobs — only costs may."""

    def _assert_equivalent(self, runs):
        (engine_a, handle_a), (engine_b, handle_b) = runs
        assert handle_a.status is QueryStatus.COMPLETE
        assert handle_a.status == handle_b.status
        assert _distinct_rows(handle_a) == _distinct_rows(handle_b)
        assert handle_a.cht.imbalance() == 0
        assert handle_b.cht.imbalance() == 0
        assert _log_snapshots(engine_a) == _log_snapshots(engine_b)

    def test_campus_web_on_off(self, campus_web):
        self._assert_equivalent([
            _run(campus_web, CAMPUS_QUERY_DISQL, frontier_batching=True),
            _run(campus_web, CAMPUS_QUERY_DISQL, frontier_batching=False),
        ])

    def test_drill_web_on_off(self):
        web, disql = _drill_web()
        self._assert_equivalent([
            _run(web, disql, frontier_batching=True),
            _run(web, disql, frontier_batching=False),
        ])

    def test_on_off_with_per_node_clones(self):
        # The unbatched-clone ablation (batch_per_site=False) under both
        # frontier settings.
        web, disql = _drill_web()
        self._assert_equivalent([
            _run(web, disql, frontier_batching=True, batch_per_site=False),
            _run(web, disql, frontier_batching=False, batch_per_site=False),
        ])

    def test_batch_per_site_off_matches_batched_path(self):
        # Satellite: the per-node-clone ablation vs the paper's per-site
        # batching, on a multi-site web — identical rows and CHT outcomes.
        web, disql = _drill_web()
        self._assert_equivalent([
            _run(web, disql, batch_per_site=False),
            _run(web, disql, batch_per_site=True),
        ])

    def test_batch_per_site_off_matches_batched_path_campus(self, campus_web):
        self._assert_equivalent([
            _run(campus_web, CAMPUS_QUERY_DISQL, batch_per_site=False),
            _run(campus_web, CAMPUS_QUERY_DISQL, batch_per_site=True),
        ])
