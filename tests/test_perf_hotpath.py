"""Hot-path machinery: plan caching, invalidation, and free disabled tracing.

Covers the perf-layer invariants the benchmarks rely on:

* :class:`~repro.core.plancache.PlanCache` is one bounded LRU of lowerings
  keyed by the node-query's shape — shared across qids and literals, never
  shared between distinct shapes — that every lookup binds, and a crash
  clears it, so a stale lowering is never served across server
  incarnations;
* engine results are bit-identical with ``compiled_plans`` on and off;
* a disabled tracer costs nothing on the hot path — no call to any of its
  methods, zero event allocations;
* a selection runs below the join: a table-local conjunct is evaluated once
  per row of its table per execution, not once per outer binding — counted,
  not timed;
* a warm query's servers send one report per clone, not one per node;
* a warm query's visits, drops and rewrites, as ``tools/profile_hotpath.py``
  counts them, and the engine counters it reads add up;
* ``tools/`` rebinds nothing in ``repro``;
* a state's fan-out is derived once per query (a protocol-table row), and
  an anchor-rich page builds one forward per destination, not per anchor;
* a frame on an established socket link costs the event loop a fixed, small
  number of handles — counted, not timed — with no ``asyncio.wait_for`` and
  no task but the send's own.
"""

from __future__ import annotations

import ast
import asyncio
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import EngineConfig, WebDisEngine
from repro.baselines.docservice import FetchRequest
from repro.core import processing
from repro.core.plancache import PlanCache
from repro.core.trace import Tracer
from repro.disql import compile_disql
from repro.model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA, LinkType
from repro.net import FIRST_RESULT_PORT, QUERY_PORT, SendOutcome
from repro.net.aio import AsyncioTransport
from repro.net.reliable import RetryPolicy
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
from tests.conftest import without_memo

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
    """Structurally distinct node-queries of one shape (different contains-words)."""
    return [
        compile_disql(QUERY.replace('"topic"', f'"topic{n}"')).steps[0].query
        for n in range(count)
    ]


def _shape_variants(*attributes):
    """Node-queries of distinct shapes (a different attribute each)."""
    return [
        compile_disql(QUERY.replace("d.title", f"d.{attribute}")).steps[0].query
        for attribute in attributes
    ]


class TestPlanCache:
    def test_hit_binds_the_same_lowering(self):
        cache = PlanCache()
        query = _node_query()
        first = cache.plan_for(query)
        second = cache.plan_for(query)
        assert first._lowering is second._lowering
        assert first.query is query and second.query is query
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)

    def test_structural_equals_share_one_plan_across_qids(self):
        # Two tenants compiling the same question hold equal, distinct
        # node-queries (no qid in them): one lowering serves both.
        cache = PlanCache()
        a, b = _node_query(), _node_query()
        assert a is not b
        assert cache.plan_for(a)._lowering is cache.plan_for(b)._lowering
        assert len(cache) == 1

    def test_distinct_structures_get_distinct_plans(self):
        cache = PlanCache()
        q1, q2 = _shape_variants("title", "text")
        assert cache.plan_for(q1)._lowering is not cache.plan_for(q2)._lowering
        assert len(cache) == 2

    def test_lru_eviction_is_bounded(self):
        cache = PlanCache(max_size=2)
        queries = _shape_variants("title", "text", "url")
        lowerings = [cache.plan_for(query)._lowering for query in queries]
        assert len(cache) == 2
        assert (cache.hits, cache.misses) == (0, 3)
        # Re-requesting the evicted (oldest) shape lowers it again.
        assert cache.plan_for(queries[0])._lowering is not lowerings[0]
        assert (cache.misses, len(cache)) == (4, 2)

    def test_clear_forces_recompilation(self):
        cache = PlanCache()
        query = _node_query()
        before = cache.plan_for(query)._lowering
        cache.clear()
        assert len(cache) == 0
        assert cache.plan_for(query)._lowering is not before

    def test_literal_variants_bind_one_lowering(self):
        cache = PlanCache()
        queries = _variant_queries(3)
        plans = [cache.plan_for(query) for query in queries]
        assert [plan.query for plan in plans] == queries
        assert len({id(plan._lowering) for plan in plans}) == 1

    def test_literal_variants_keep_one_entry(self):
        cache = PlanCache()
        for query in _variant_queries(8):
            cache.plan_for(query)
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (7, 1)

    def test_lowerings_share_the_bound(self):
        # The bound counts shapes: literal variants of one shape take one
        # entry between them, so they evict nothing.
        cache = PlanCache(max_size=2)
        title, text = _shape_variants("title", "text")
        kept = cache.plan_for(title)._lowering
        cache.plan_for(text)
        for query in _variant_queries(5):  # literal variants of ``title``
            cache.plan_for(query)
        assert len(cache) == 2 and cache.misses == 2
        assert cache.plan_for(title)._lowering is kept

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_size=0)

    def test_hash_collision_never_serves_the_wrong_plan(self, monkeypatch):
        # The key is the shape itself, so distinct shapes never share an
        # entry — even when every key hashes alike, the dict's own
        # equality check tells them apart.
        class Colliding(tuple):
            def __hash__(self):
                return 0

        shape = compile_module._shape
        monkeypatch.setattr(
            compile_module, "_shape",
            lambda query: (Colliding(shape(query)[0]), *shape(query)[1:]),
        )
        cache = PlanCache()
        q1, q2 = _shape_variants("title", "text")
        p1, p2 = cache.plan_for(q1), cache.plan_for(q2)
        assert p1._lowering is not p2._lowering
        assert p1.query is q1 and p2.query is q2
        assert len(cache) == 2 and (cache.hits, cache.misses) == (0, 2)
        assert cache.plan_for(q1)._lowering is p1._lowering
        assert cache.plan_for(q2)._lowering is p2._lowering
        assert (cache.hits, cache.misses) == (2, 2)


class TestInvalidationAcrossIncarnations:
    def test_crash_clears_server_plans(self):
        engine = WebDisEngine(_web())
        engine.submit_disql(QUERY)
        engine.run()
        server = engine.server_for("root.example")
        assert len(server.plans) > 0
        pre_crash = list(server.plans._lowerings.values())
        engine.crash_server("root.example")
        assert len(server.plans) == 0
        engine.restart_server("root.example")
        # The reborn incarnation lowers again on first touch — the stale
        # lowerings are never served again.
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.results
        assert len(server.plans) > 0
        assert not any(
            lowering is stale
            for lowering in server.plans._lowerings.values()
            for stale in pre_crash
        )

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
    #: The methods the engine emits events through, and the read side.
    EMITTERS = ("node", "outcome", "nodes", "site")
    READERS = ("visits_to", "nodes_with_role", "actions", "to_dot", "render")

    def _run(self, monkeypatch, trace: bool):
        """One query with a down leaf (retried sends, then a retraction),
        counting calls of every emitting method of the tracer."""
        calls: Counter = Counter()
        for name in self.EMITTERS:
            original = getattr(Tracer, name)

            def counting(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(Tracer, name, counting)
        config = EngineConfig(retry_policy=RetryPolicy(max_attempts=2, seed=1))
        engine = WebDisEngine(_web(), config=config, trace=trace)
        engine.network.set_site_down("leafb.example")
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.results  # the run did real work
        return engine, calls

    def test_zero_event_allocation_when_disabled(self, monkeypatch):
        public = {name for name in vars(Tracer) if not name.startswith("_")}
        assert public == set(self.EMITTERS) | set(self.READERS)  # none escapes the count
        engine, calls = self._run(monkeypatch, trace=False)
        assert calls == {}  # no tracer method was reached
        assert engine.tracer.events == []

    def test_enabled_tracing_still_records(self, monkeypatch):
        engine, calls = self._run(monkeypatch, trace=True)
        assert {"retry-scheduled", "unreachable-site"} <= set(engine.tracer.actions())
        # The same run reaches every emitting method when tracing is on, so
        # the disabled run's empty count is not vacuous.
        assert set(calls) == set(self.EMITTERS)


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


class TestAnchorRichFanout:
    def test_one_forward_per_destination_and_state_not_per_anchor(self, monkeypatch):
        """A page shaped like ``eval_join``'s: 61 anchors onto two targets, one
        local and one global, told apart by fragment.  Before
        ``forward_targets`` an ``eval_join`` query built 169.48 forwards to
        emit 6.0; now each one built is emitted."""
        targets = ("/p1.html", "http://other.example/p2.html")
        builder = WebBuilder()
        builder.site("rich.example").page(
            "/p0.html", title="rich",
            links=[(f"b ref {j}", f"{targets[j % 2]}#s{j}") for j in range(61)],
        ).page("/p1.html", title="local")
        builder.site("other.example").page("/p2.html", title="global")
        built = Counter()
        forward = processing.Forward
        monkeypatch.setattr(
            processing, "Forward",
            lambda row, target: built.update([(row, target)]) or forward(row, target),
        )
        engine = WebDisEngine(builder.build())
        handle = engine.submit_disql(
            'select d.url from document d such that "http://rich.example/p0.html" (G|L)*1 d'
        )
        engine.run()
        assert len(handle.results) == 3  # the page and both targets
        assert sorted(target.path for __, target in built) == ["/p1.html", "/p2.html"]
        assert set(built.values()) == {1}


class TestOneReportPerClone:
    def test_a_warm_query_sends_one_report_per_clone_not_per_node(self, monkeypatch):
        from repro.core.client import UserSiteClient
        from repro.core.visit import CloneProcessor
        from repro.web.synthetic import (
            SyntheticWebConfig,
            build_synthetic_web,
            synthetic_start_url,
        )

        config = SyntheticWebConfig(sites=4, local_out_degree=3, seed=3)
        web = build_synthetic_web(config)
        text = (
            f'select d.url from document d such that "{synthetic_start_url(config)}"'
            f' (L|G)*3 d where d.title contains "topic"'
        )
        engine = WebDisEngine(web)
        engine.submit_disql(text)
        engine.run()  # warm: every later row and fan-out probe is a memo hit

        seen = {"clones": 0, "nodes": 0, "reports": 0}
        process, receive = CloneProcessor._process, UserSiteClient._receive

        def counting_process(self, clone):
            seen["clones"] += 1
            seen["nodes"] += len(clone.dest)
            return process(self, clone)

        def counting_receive(self, handle, src, payload):
            seen["reports"] += len(payload.reports)
            return receive(self, handle, src, payload)

        monkeypatch.setattr(CloneProcessor, "_process", counting_process)
        monkeypatch.setattr(UserSiteClient, "_receive", counting_receive)
        handle = engine.submit_disql(text)
        engine.run()
        assert handle.results
        assert seen["nodes"] > seen["clones"]  # non-vacuous: clones span nodes
        assert seen["reports"] == seen["clones"]
        # ...while the books still retire one instance per node.
        retired = [record for record in handle.cht.history() if record.deleted]
        assert len(retired) == seen["nodes"]


def _profile_tool():
    """``tools/profile_hotpath.py``, loaded by path (``tools/`` is no package)."""
    name = "profile_hotpath_for_tests"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "tools" / "profile_hotpath.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


class TestWarmVisitCounts:
    def test_the_log_table_drops_what_a_warm_query_already_covered(self):
        """One warm pass over the ``warm_zipf`` pool, per query.  Before the
        log table applied §3.1.1 at zero repeats it read 100.42 visits and
        node-queries, 5.76 drops, 0 rewrites, 202.0 rows and 49,788.38
        bytes: a clone with no repeats left was evaluated again wherever a
        wider state had been logged.

        Of the visits, all but the first ones after the warm-up are served
        whole by a visit entry of the memo; each part-path visit stores one
        (its probes all hit).  68.28 visits are in a state with nothing to
        forward.  No memo flushes, and no site's memo passes 97 entries.
        Bytes were 48,081.81 before result messages became columnar and
        35,618.28 before a result message wrote a repeated URL or dispatch id
        as an index and a bundle its query once, 31,214.07 before the
        size model charged the quotes of a URL or dispatch id written in
        full, and 31,603.43 before a row value the message's table holds
        became a reference and a child id a step from the previous one, with
        every other count as here."""
        assert _profile_tool().visits_per_query() == {
            "node_visits": 91.28,
            "node_queries_evaluated": 91.14,
            "log_drops": 14.9,
            "log_rewrites": 0.14,
            "rows_shipped": 185.45,
            "bytes": 29004.01,
            "visit_hits": 87.95,
            "part_path_visits": 3.33,
            "visits_stored": 3.33,
            "no_fanout_visits": 68.28,
            "memo_flushes": 0,
            "memo_high_water": 97,
        }


class TestEngineCounters:
    """The counters ``tools/profile_hotpath.py`` reads where the engine
    decides: each node the log tables admit is served whole by a visit entry
    (``ResultMemo.visit_hits``), takes the part path
    (``CloneProcessor.part_path_visits``) or has no document."""

    QUERY = QUERY.replace("(L|G)*2", "(L|G)*1")

    def _runs(self, memo=True) -> list[Counter]:
        """Per run of :attr:`QUERY`, three on one engine: the first parses,
        the second hits every part probe and stores visit entries, the
        third is served by them.  One of the four nodes has no document."""
        web = _web()
        del web.site("leafb.example").pages["/"]
        engine = WebDisEngine(web, trace=True)
        if not memo:
            without_memo(engine)
        servers = engine.servers.values()

        def counts() -> Counter:
            return Counter(
                admitted=sum(s.log_table.inserts + s.log_table.rewrites for s in servers),
                hits=sum(s.memo.visit_hits for s in servers if s.memo is not None),
                part_path=sum(s.part_path_visits for s in servers),
                missing=engine.tracer.actions()["missing"],
                no_fanout=sum(s.no_fanout_visits for s in servers),
            )

        runs = []
        for __ in range(3):
            before = counts()
            engine.submit_disql(self.QUERY)
            engine.run()
            runs.append(counts() - before)
        return runs

    def test_every_admitted_visit_is_a_hit_a_part_path_or_a_missing_document(self):
        runs = self._runs()
        for run in runs:
            assert run["hits"] + run["part_path"] + run["missing"] == run["admitted"]
        assert [run["hits"] for run in runs] == [0, 0, 3]
        assert runs[0]["missing"] == 1
        # The third run reads the flags its visit entries kept.
        assert [run["no_fanout"] for run in runs] == [3, 3, 3]

    def test_without_the_memo_no_visit_hits(self):
        for run in self._runs(memo=False):
            assert run["hits"] == 0
            assert run["part_path"] + run["missing"] == run["admitted"] == 4

    def test_each_server_lowers_each_eval_join_shape_once(self):
        """What ``compile_per_query`` prints: after the warm-up, the pool's
        700 plan lookups lower nothing and all bind."""
        tool = _profile_tool()
        web, warmup, pool = tool._join_inputs()
        engine = WebDisEngine(web)
        caches = [server.plans for server in engine.servers.values()]
        totals = []
        for texts in (warmup, pool):
            tool._run_all(engine, texts)
            totals.append([sum(cache.hits for cache in caches), sum(c.misses for c in caches)])
        assert totals[0][1] > 0 and [b - a for a, b in zip(*totals)] == [700, 0]
        assert all(cache.misses == len(cache) for cache in caches)


class TestToolsPatchNothing:
    """``tools/`` reads the engine; it rebinds no attribute of a ``repro``
    module or class, nor of EXP-E1's ``workloads``, which it imports read
    only.  Instance hooks (``engine.client.on_terminal``, the asyncio loop's
    ``_run_once``) stay allowed."""

    GUARDED = ("repro", "workloads")

    def _patches(self, source: str) -> list[str]:
        tree = ast.parse(source)
        bound = {  # the names the imports of a guarded module bind
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (getattr(node, "module", None) or alias.name).split(".")[0] in self.GUARDED
        }

        def root(node):
            while isinstance(node, (ast.Attribute, ast.Subscript)):
                node = node.value
            return node.id if isinstance(node, ast.Name) else None

        def leaves(target):  # what an unpacking assignment binds
            if isinstance(target, (ast.Tuple, ast.List)):
                return [leaf for element in target.elts for leaf in leaves(element)]
            return [target.value if isinstance(target, ast.Starred) else target]

        found = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", "") in (
                "setattr", "delattr",
            ):
                targets = node.args[:1]
            else:
                continue
            found += [
                f"line {node.lineno}: {ast.unparse(target)}"
                for target in (leaf for target in targets for leaf in leaves(target))
                if root(target) in bound
                and (isinstance(node, ast.Call) or not isinstance(target, ast.Name))
            ]
        return sorted(found)

    def test_tools_rebind_nothing_in_repro(self):
        tools = Path(__file__).resolve().parents[1] / "tools"
        for path in sorted(tools.glob("*.py")):
            assert self._patches(path.read_text()) == [], path.name
        source = (
            "import repro.core.plancache as plans\n"
            "from repro.core import visit\n"
            "from repro.relational.compile import CompiledPlan\n"
            "visit.ResultMemo.visit_for = plans.PlanCache.plan_for = None\n"
            "setattr(CompiledPlan, 'execute_columnar', None)\n"
            "del visit.process_node\n"
            "engine.client.on_terminal, (visit, *plans.MISS) = loop._run_once = 1, 2\n"
        )
        assert [found.split(":")[0] for found in self._patches(source)] == [
            "line 4", "line 4", "line 5", "line 6", "line 7",
        ]


def test_out_names_one_file_per_workload():
    assert _profile_tool().dump_path("out/p.pstats", "warm") == str(Path("out/warm-p.pstats"))


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
    over their table, whatever the number of outer bindings; a ``contains``
    column is lowered once per table, not per execution; and the selections
    that can raise run before the provably total ones."""

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

    def _run(self, where, monkeypatch, stats=None, database=None):
        """(rows, text lowers, label lowers, scalar comparisons) of one
        batch execution, after checking its rows against the interpreter."""
        query = compile_disql(
            'select a.href, r.text from document d such that "http://a.example/" L d,\n'
            f"     anchor a, relinfon r where {where}"
        ).steps[0].query
        database = database or self._database(stats)
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
        # The cross-alias conjunct reads every anchor's label folded once.
        assert labels == self.A
        # A comparisons through the column-pair kernel (it asked both
        # columns' value profiles, not their indexes), none through the
        # scalar closure.
        assert compared == 0
        assert (stats.index_builds, stats.plan_replays) == (0, 0)

    def test_empty_leaf_selection_stops_before_the_join(self, monkeypatch):
        """Selections run ahead of the expansion, the non-total leaf's
        first: it selects no segment, so the anchor level's total one (the
        column-pair kernel, which builds two column profiles) never runs, no
        label is lowered and the cross-level kernel is never prepared."""
        from repro.relational import columnar

        prepared = []
        matches = columnar._CrossContains.matches
        monkeypatch.setattr(
            columnar._CrossContains, "matches",
            lambda self, *args: prepared.append(args) or matches(self, *args),
        )
        stats = TrafficStats()
        rows, texts, labels, compared = self._run(
            'r.text contains "no such segment" and a.label contains r.delimiter'
            " and a.href != a.base",
            monkeypatch, stats,
        )
        assert (rows, texts, labels, compared) == ([], self.R, 0, 0)
        assert prepared == []
        assert (stats.index_builds, stats.plan_replays) == (0, 0)

    def test_empty_outer_batch_evaluates_neither(self, monkeypatch):
        stats = TrafficStats()
        rows, texts, labels, compared = self._run(
            'd.title contains "no such title" and r.text contains "segment 3"'
            " and a.label contains r.delimiter and a.href != a.base",
            monkeypatch, stats,
        )
        assert (rows, texts, labels, compared) == ([], 0, 0, 0)
        assert (stats.index_builds, stats.plan_replays) == (0, 0)

    def test_a_second_execution_lowers_nothing(self, monkeypatch):
        where = 'r.text contains "segment 3" and a.label contains r.delimiter'
        database = self._database()
        first = self._run(where, monkeypatch, database=database)
        assert first[1:3] == (self.R, self.A)
        again = self._run(where.replace("segment 3", "segment 4"), monkeypatch, database=database)
        assert len(again[0]) == self.A
        assert again[1:3] == (0, 0)

    def test_a_total_selection_is_skipped_behind_an_empty_non_total_one(self, monkeypatch):
        # The anchor level's total selection goes through its scalar closure:
        # 2 x A comparisons had it run first.
        rows, texts, labels, compared = self._run(
            'r.text contains "no such segment" and (a.href = "x" or a.base != "y")',
            monkeypatch,
        )
        assert (rows, texts, labels, compared) == ([], self.R, 0, 0)

    def test_a_non_total_outer_selection_still_runs_first(self, monkeypatch):
        rows, texts, labels, compared = self._run(
            'a.label contains "no such label" and r.text contains "segment 3"',
            monkeypatch,
        )
        assert (rows, texts, labels, compared) == ([], 0, self.A, 0)

    def test_a_raising_reordered_selection_replays_to_the_interpreters_rows(
        self, monkeypatch
    ):
        """The leaf's ``contains`` runs ahead of the anchor level's total
        selection, which keeps no anchor, and raises on an int cell the
        interpreter never reaches: the replay returns its clean ``[]``."""
        stats = TrafficStats()
        database = self._database(stats)
        database.relation("relinfon").insert(("b", self.PAGE, 5, 1))
        rows, *__ = self._run(
            'r.text contains "segment" and a.href = a.base', monkeypatch, database=database
        )
        assert rows == []
        assert stats.plan_replays == 1


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
