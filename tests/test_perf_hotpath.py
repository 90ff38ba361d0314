"""Hot-path machinery: plan caching, invalidation, and free disabled tracing.

Covers the perf-layer invariants the benchmarks rely on:

* :class:`~repro.core.plancache.PlanCache` is a bounded LRU keyed by the
  node-query's structural hash — shared across qids, verified against the
  full structural key on every hit (collision safety) — and a crash clears
  it, so a stale plan is never served across server incarnations;
* engine results are bit-identical with ``compiled_plans`` on and off;
* a disabled tracer costs nothing on the hot path — zero ``record``
  calls, zero event allocations;
* a selection runs below the join: a table-local conjunct is evaluated once
  per row of its table per execution, not once per outer binding — counted,
  not timed;
* a state's fan-out is derived once per query (a protocol-table row) and
  the hoisted forward-dedup set keeps ``_emit_forwards`` linear in the link
  count;
* a frame on an established socket link costs the event loop a fixed, small
  number of handles — counted, not timed — with no ``asyncio.wait_for`` and
  no task but the send's own.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import EngineConfig, WebDisEngine
from repro.baselines.docservice import FetchRequest
from repro.core.plancache import PlanCache
from repro.core.trace import Tracer
from repro.core.webquery import QueryId
from repro.disql import compile_disql
from repro.model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA, LinkType
from repro.net import FIRST_RESULT_PORT, QUERY_PORT, SendOutcome
from repro.net.aio import AsyncioTransport
from repro.net.stats import TrafficStats
from repro.pre.ast import Atom, alt, repeat
from repro.pre.ops import advance
from repro.relational import compile as compile_module
from repro.relational.compile import compile_node_query
from repro.relational.query import evaluate_node_query
from repro.relational.table import Table
from repro.testing.loopcost import count_handles
from repro.urlutils import parse_url
from repro.web.builders import WebBuilder

QUERY = (
    'select d.url, d.title\n'
    'from document d such that "http://root.example/" (L|G)*2 d\n'
    'where d.title contains "topic"'
)


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
    builder.site("leafa.example").page("/", title="leaf a topic")
    builder.site("leafb.example").page("/", title="leaf b topic")
    return builder.build()


def _node_query():
    return compile_disql(QUERY).steps[0].query


def _variant_queries(count):
    """Structurally distinct node-queries (different contains-words)."""
    return [
        compile_disql(QUERY.replace('"topic"', f'"topic{n}"')).steps[0].query
        for n in range(count)
    ]


class TestPlanCache:
    def test_hit_returns_same_plan_object(self):
        cache = PlanCache()
        qid = QueryId("maya", "user.example", 4000, 1)
        query = _node_query()
        first = cache.plan_for(query, qid)
        second = cache.plan_for(query, qid)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_structural_equals_share_one_plan_across_qids(self):
        # The EXP-P4 rekeying: two tenants submitting the same node-query
        # structure get ONE compilation, counted as cross-query sharing.
        cache = PlanCache()
        query = _node_query()
        a = cache.plan_for(query, QueryId("maya", "user.example", 4000, 1))
        b = cache.plan_for(query, QueryId("noor", "user.example", 4000, 2))
        assert a is b
        assert len(cache) == 1
        assert cache.shared_hits == 1

    def test_distinct_structures_get_distinct_plans(self):
        cache = PlanCache()
        q1, q2 = _variant_queries(2)
        assert cache.plan_for(q1) is not cache.plan_for(q2)
        assert len(cache) == 2

    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(max_size=2)
        queries = _variant_queries(3)
        plans = [cache.plan_for(query) for query in queries]
        assert len(cache) == 2
        assert queries[0] not in cache  # oldest evicted
        # Re-requesting the evicted structure recompiles: a new plan object.
        assert cache.plan_for(queries[0]) is not plans[0]

    def test_clear_forces_recompilation(self):
        cache = PlanCache()
        query = _node_query()
        before = cache.plan_for(query)
        cache.clear()
        assert len(cache) == 0
        assert cache.plan_for(query) is not before

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_size=0)

    def test_hash_collision_never_serves_the_wrong_plan(self):
        # Regression (satellite fix): force every digest to collide; the
        # full-key verification must still hand each structure its own
        # correct plan instead of the colliding entry's.
        cache = PlanCache(hash_fn=lambda query: "deadbeef")
        q1, q2 = _variant_queries(2)
        p1 = cache.plan_for(q1)
        p2 = cache.plan_for(q2)
        assert cache.collisions == 1
        assert p1 is not p2
        assert p1.query is q1 and p2.query is q2
        # The collision evicted q1's entry (same slot); a fresh q1 probe
        # collides again and recompiles — correct, never silently wrong.
        p1_again = cache.plan_for(q1)
        assert cache.collisions == 2
        assert p1_again.query is q1


class TestInvalidationAcrossIncarnations:
    def test_crash_clears_server_plans(self):
        engine = WebDisEngine(_web())
        engine.submit_disql(QUERY)
        engine.run()
        server = engine.server_for("root.example")
        assert len(server.plans) > 0
        pre_crash = {
            digest: plan for digest, (__, __, plan) in server.plans._plans.items()
        }
        engine.crash_server("root.example")
        assert len(server.plans) == 0
        engine.restart_server("root.example")
        # The reborn incarnation recompiles on first touch — the stale
        # plan objects are never served again.
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.results
        for digest, (__, __, plan) in server.plans._plans.items():
            assert pre_crash.get(digest) is not plan

    def test_engine_results_identical_with_and_without_compilation(self):
        runs = {}
        for compiled in (True, False):
            engine = WebDisEngine(
                _web(), config=EngineConfig(compiled_plans=compiled)
            )
            handle = engine.submit_disql(QUERY)
            done_at = engine.run()
            runs[compiled] = (
                handle.status,
                done_at,
                [(label, row.header, row.values) for label, row, __ in handle.results],
            )
        assert runs[True] == runs[False]
        assert runs[True][2]  # non-vacuous: the query does return rows

    def test_interpreter_ablation_leaves_plan_cache_untouched(self):
        engine = WebDisEngine(_web(), config=EngineConfig(compiled_plans=False))
        engine.submit_disql(QUERY)
        engine.run()
        assert all(
            len(server.plans) == 0 for server in engine.servers.values()
        )


class TestDisabledTracingIsFree:
    def test_zero_event_allocation_when_disabled(self, monkeypatch):
        calls = []
        original = Tracer.record

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "record", counting)
        engine = WebDisEngine(_web(), trace=False)
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.results  # the run did real work
        assert calls == []  # ...without ever reaching the tracer
        assert engine.tracer.events == []

    def test_enabled_tracing_still_records(self):
        engine = WebDisEngine(_web(), trace=True)
        engine.submit_disql(QUERY)
        engine.run()
        assert engine.tracer.events


class TestFanoutMemo:
    def test_fanout_matches_derivatives_and_is_cached(self, monkeypatch):
        import repro.core.program as program_module

        rem = repeat(alt([Atom(LinkType.LOCAL), Atom(LinkType.GLOBAL)]), 2)
        row = compile_disql(QUERY).program.row(0, rem)
        derivations = []
        original = program_module.first_symbols

        def counting(pre):
            derivations.append(pre)
            return original(pre)

        monkeypatch.setattr(program_module, "first_symbols", counting)
        first = row.fanout()
        assert row.fanout() is first
        assert derivations == [rem]  # computed once
        assert [(ltype, next_row.rem) for ltype, next_row in first] == [
            (ltype, advance(rem, ltype)) for ltype, __ in first
        ]
        kinds = {ltype for ltype, __ in first}
        assert kinds == {LinkType.LOCAL, LinkType.GLOBAL}
        # Order is deterministic (sorted by link-type value).
        assert [lt for lt, __ in first] == sorted(
            (lt for lt, __ in first), key=lambda lt: lt.value
        )


class _CountingCell(str):
    """A string cell that counts its ``.lower()`` calls — what every
    ``contains`` evaluation, kernel or closure, makes once per haystack."""

    lowered = 0

    def lower(self):
        type(self).lowered += 1
        return super().lower()


class _Text(_CountingCell):
    pass


class _Label(_CountingCell):
    pass


class _Relations:
    """The ``relation(name)`` side of a node database, over given tables."""

    def __init__(self, **tables):
        self._tables = tables

    def relation(self, name):
        return self._tables[name]


class TestSelectionBelowJoin:
    """Evaluations per ``execute_columnar`` of an ``anchor a, relinfon r``
    join over A anchors x R segments: table-local conjuncts cost one pass
    over their table, whatever the number of outer bindings."""

    A, R = 7, 5
    PAGE = "http://a.example/page.html"

    def _database(self, stats=None):
        document = Table(DOCUMENT_SCHEMA, [(self.PAGE, "a title", "text", 4)], stats=stats)
        anchor = Table(
            ANCHOR_SCHEMA,
            [(_Label(f"b ref {j}"), self.PAGE, f"{self.PAGE}#s{j}", "I") for j in range(self.A)],
            stats=stats,
        )
        relinfon = Table(
            RELINFON_SCHEMA,
            [("b", self.PAGE, _Text(f"segment {j} of page"), 17) for j in range(self.R)],
            stats=stats,
        )
        return _Relations(document=document, anchor=anchor, relinfon=relinfon)

    def _run(self, where, monkeypatch, stats=None):
        """(rows, text lowers, label lowers, scalar comparisons) of one
        batch execution, after checking its rows against the interpreter."""
        query = compile_disql(
            'select a.href, r.text from document d such that "http://a.example/" L d,\n'
            f"     anchor a, relinfon r where {where}"
        ).steps[0].query
        database = self._database(stats)
        plan = compile_node_query(query)
        expected = evaluate_node_query(query, database)
        compared = []
        coerce_pair = compile_module._coerce_pair
        monkeypatch.setattr(
            compile_module, "_coerce_pair",
            lambda *args: compared.append(args) or coerce_pair(*args),
        )
        _Text.lowered = _Label.lowered = 0
        rows = plan.execute_columnar(database)
        assert rows == expected
        return rows, _Text.lowered, _Label.lowered, len(compared)

    def test_leaf_local_contains_runs_once_per_segment(self, monkeypatch):
        rows, texts, labels, __ = self._run('r.text contains "segment 3"', monkeypatch)
        assert len(rows) == self.A
        assert texts == self.R  # not A x R
        assert labels == 0

    def test_eval_join_shape(self, monkeypatch):
        stats = TrafficStats()
        rows, texts, labels, compared = self._run(
            'r.text contains "segment 3" and a.label contains r.delimiter'
            " and a.href != a.base",
            monkeypatch, stats,
        )
        assert len(rows) == self.A
        assert texts == self.R
        # The cross-alias conjunct runs per anchor, over the one selected segment.
        assert labels == self.A
        # A comparisons through the column-pair kernel (it asked both
        # columns' profiles), none through the scalar closure.
        assert compared == 0
        assert (stats.index_builds, stats.plan_replays) == (2, 0)

    def test_empty_outer_batch_evaluates_neither(self, monkeypatch):
        stats = TrafficStats()
        rows, texts, labels, compared = self._run(
            'd.title contains "no such title" and r.text contains "segment 3"'
            " and a.label contains r.delimiter and a.href != a.base",
            monkeypatch, stats,
        )
        assert (rows, texts, labels, compared) == ([], 0, 0, 0)
        assert (stats.index_builds, stats.plan_replays) == (0, 0)


class TestSocketFrameBudget:
    """Loop handles per frame on one established loopback link.

    The stop-and-wait transfer this replaced cost 12.0 awaited one at a time
    and 13.0 in a burst (a lock, two ``wait_for`` — each an inner task, a
    timer and a release callback — ``readexactly`` and ``drain`` per frame);
    the link driver measures 8.0 and 4.2.  The ceilings leave one handle of
    slack for an interpreter that schedules a wake-up differently.
    """

    FRAMES = 50

    def _measure(self, burst: bool):
        async def main():
            transport = AsyncioTransport()
            loop = asyncio.get_running_loop()
            tasks, waits = [], []
            transport.register_site("a.example")
            transport.register_site("b.example")
            transport.listen("b.example", QUERY_PORT, lambda src, message: None)

            def send(request_id):
                settled = loop.create_future()
                payload = FetchRequest(
                    parse_url("http://b.example/doc"), "a.example",
                    FIRST_RESULT_PORT, request_id,
                )
                transport.send(
                    "a.example", "b.example", QUERY_PORT, payload,
                    on_outcome=settled.set_result,
                )
                return settled

            def task_factory(loop, coro, **kwargs):
                tasks.append(coro.__qualname__)
                return asyncio.Task(coro, loop=loop, **kwargs)

            original_wait_for = asyncio.wait_for

            def counting_wait_for(*args, **kwargs):
                waits.append(args)
                return original_wait_for(*args, **kwargs)

            try:
                assert await send(0) is SendOutcome.DELIVERED  # the link is up
                loop.set_task_factory(task_factory)
                asyncio.wait_for = counting_wait_for
                with count_handles() as handles:
                    if burst:
                        outcomes = await asyncio.gather(
                            *[send(n) for n in range(self.FRAMES)]
                        )
                    else:
                        outcomes = [await send(n) for n in range(self.FRAMES)]
                    total = sum(handles.values())
            finally:
                asyncio.wait_for = original_wait_for
                loop.set_task_factory(None)
                await transport.aclose()
            assert outcomes == [SendOutcome.DELIVERED] * self.FRAMES
            return total / self.FRAMES, tasks, waits

        return asyncio.run(main())

    def test_one_at_a_time(self):
        per_frame, tasks, waits = self._measure(burst=False)
        assert per_frame <= 9.0
        assert tasks == ["AsyncioTransport._send_task"] * self.FRAMES
        assert waits == []

    def test_issued_together(self):
        per_frame, tasks, waits = self._measure(burst=True)
        assert per_frame <= 6.0
        assert tasks == ["AsyncioTransport._send_task"] * self.FRAMES
        assert waits == []
