"""Columnar execution: batch operators, replay, memo bounds.

The batch pipeline is *the* compiled executor — it must be semantically
invisible, including the interpreter's lazy error semantics that the
batch kernels reorder around.  Property families:

* **Plan-level equivalence** — ``execute_columnar`` vs the tree
  interpreter over safe and *hostile* grammars (mixed-type literals,
  missing attributes): identical rows in identical order, or the same
  error class *and message*.  This is the direct check that the
  optimistic batch and its replay through the interpreter reproduce
  short-circuit errors.
* **Fault-injected replay** — a poisoned cell (or missing attribute) at
  each plan level, leaf kernel and projector forces the batch to raise;
  the replayed outcome must equal the interpreter's — with no partial
  batch output left behind — and be counted in
  ``TrafficStats.plan_replays``.
* **Selections below the join** — table-local conjuncts run over whole
  tables, ahead of their statement position: a poisoned cell in every
  hoisted column of 3- and 4-level joins, the conjunct the hoisting rule
  must leave in place, and empty tables at every level.
* **Engine-level equivalence** — random generated webs run end to end on
  the default engine vs ``compiled_plans=False``: identical statuses,
  per-tenant distinct rows and canonical log-table snapshots, crossed
  with the cross-query memo.
* **Bounded memo / document store** — LRU eviction respects
  capacity, moves the ``memo_evictions`` / ``memo_bytes_est`` gauges,
  and never changes answers; the constructor's document store
  reports through ``cache_info()`` and ``TrafficStats``.

Plus the DST wiring: the generator keeps the retired executor knob's draw
position, the runner ignores the key in old repro files, and the shrinker
proposes falling back to the interpreter.
"""

from __future__ import annotations

from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.resultmemo import ResultMemo
from repro.errors import EvaluationError
from repro.html.generator import PageSpec, render_page
from repro.model.database import DatabaseConstructor, build_node_database
from repro.net.stats import TrafficStats
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal, Not, Or
from repro.relational.query import (
    NodeQuery,
    TableDecl,
    evaluate_node_query,
    evaluate_node_query_naive,
)
from repro.testing.generators import build_web, generate_case, query_texts
from repro.testing.runner import _engine_config
from repro.testing.shrink import _candidates
from repro.urlutils import parse_url
from repro.web.campus import CAMPUS_QUERY_DISQL, EXPECTED_CONVENER_ROWS
from repro.web.site import Page, Site

URL = parse_url("http://a.example/page.html")
SIBLING = parse_url("http://a.example/other.html")


def _page(title, links, emphasized):
    return render_page(
        PageSpec(
            title=title,
            paragraphs=["some text body"],
            links=links,
            emphasized=emphasized,
            ruled=["CONVENER someone"],
        )
    )


_HTML = _page(
    "alpha topic page",
    links=[
        ("one", "http://b.example/"),
        ("two", "/local.html"),
        ("three", "#frag"),
    ],
    emphasized=[("b", "bold detail"), ("i", "italic note")],
)

DATABASE = build_node_database(URL, _HTML)

_SITE = Site("a.example")
_SITE.add(Page(URL.path, html=_page("alpha topic page", [("one", "/other.html")], [("b", "x")])))
_SITE.add(
    Page(SIBLING.path, html=_page("beta archive page", [("back", "/page.html")], [("i", "y")]))
)
SITE_DOCUMENTS = DatabaseConstructor().site_documents(_SITE)

_ATTRS = [
    Attr("d", "title"),
    Attr("d", "url"),
    Attr("a", "ltype"),
    Attr("a", "href"),
    Attr("a", "label"),
    Attr("r", "delimiter"),
    Attr("r", "text"),
]
_SAFE_LITERALS = [Literal(v) for v in ("G", "L", "b", "topic", "detail", "x")]
# Mixed-type literals and a bogus attribute: the batch kernels must fall
# back to the interpreter and surface its own error from its own
# evaluation order.
_HOSTILE_LITERALS = _SAFE_LITERALS + [Literal(5), Literal("5")]
_BROKEN = Attr("d", "no_such_attribute")


def _comparisons(operands, attrs):
    ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
    compares = st.builds(
        Compare, ops, st.sampled_from(operands), st.sampled_from(operands)
    )
    contains = st.builds(
        Contains,
        st.sampled_from(attrs),
        st.sampled_from(
            [Literal("topic"), Literal("G"), Literal("b"), Literal("zzz")]
        ),
    )
    return st.one_of(compares, contains)


def _expr_strategy(operands, attrs):
    return st.recursive(
        _comparisons(operands, attrs),
        lambda children: st.one_of(
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Not, children),
        ),
        max_leaves=6,
    )


def _hostile_over(attrs):
    """Hostile trees over ``attrs`` plus a missing attribute of each alias."""
    broken = [Attr(alias, "no_such_attribute") for alias in sorted({a.alias for a in attrs})]
    return _expr_strategy(attrs + _HOSTILE_LITERALS + broken, attrs + broken)


_safe_exprs = _expr_strategy(_ATTRS + _SAFE_LITERALS, _ATTRS)
_hostile_trees = _expr_strategy(
    _ATTRS + _HOSTILE_LITERALS + [_BROKEN], _ATTRS + [_BROKEN]
)
_local_exprs = {
    alias: _hostile_over([attr for attr in _ATTRS if attr.alias == alias])
    for alias in "dar"
}
_d_only_exprs = _local_exprs["d"]
# Conjunct lists mixing table-local conjuncts (one alias: candidates for the
# per-table selection) with cross-alias ones in any statement order, so a
# table-local conjunct lands at every position of every plan level — before
# and after total and non-total neighbours, which is what decides hoisting.
_leveled_conjunctions = st.lists(
    st.one_of(*_local_exprs.values(), _hostile_trees), min_size=2, max_size=6
).map(lambda conjuncts: reduce(And, conjuncts))
_hostile_exprs = st.one_of(_hostile_trees, _leveled_conjunctions)

_selects = st.lists(
    st.sampled_from(_ATTRS),
    min_size=1,
    max_size=3,
    unique_by=lambda a: (a.alias, a.name),
)


def _query(select, where, *, tables=("document", "anchor", "relinfon"), sitewide=()):
    aliases = {"document": "d", "anchor": "a", "relinfon": "r"}
    return NodeQuery(
        select=tuple(select),
        tables=tuple(TableDecl(name, aliases[name]) for name in tables),
        where=where,
        sitewide_aliases=tuple(sitewide),
    )


def _outcome(run):
    """Rows-in-order, or the error's class and message: both evaluators
    must match exactly."""
    try:
        return [(row.header, row.values) for row in run()]
    except (EvaluationError, KeyError) as exc:
        return (type(exc), str(exc))


def _assert_matches_interpreter(query, database=DATABASE, site_documents=None):
    """The batch pipeline against the tree interpreter — the reference whose
    pushdown placement (and therefore lazy error order) plans compile from."""
    plan = compile_node_query(query)
    assert _outcome(
        lambda: plan.execute_columnar(database, site_documents)
    ) == _outcome(lambda: evaluate_node_query(query, database, site_documents))


class TestPlanEquivalence:
    """execute_columnar() vs the interpreter: same rows, order and errors."""

    @given(_selects, _hostile_exprs)
    @settings(max_examples=300, deadline=None)
    def test_columnar_matches_interpreter_hostile(self, select, where):
        _assert_matches_interpreter(_query(select, where))

    @given(_selects, _hostile_exprs)
    @settings(max_examples=150, deadline=None)
    def test_columnar_matches_interpreter_sitewide(self, select, where):
        _assert_matches_interpreter(
            _query(select, where, sitewide=("d",)), site_documents=SITE_DOCUMENTS
        )

    @given(_selects, _safe_exprs, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_columnar_matches_naive_oracle_safe(self, select, where, sitewide):
        """Type-safe grammar only: the naive oracle applies the predicate at
        the leaf, so which conjunct raises first is not comparable."""
        query = _query(select, where, sitewide=("d",) if sitewide else ())
        site_documents = SITE_DOCUMENTS if sitewide else None
        plan = compile_node_query(query)
        assert plan.execute_columnar(
            DATABASE, site_documents
        ) == evaluate_node_query_naive(query, DATABASE, site_documents)

    @given(_d_only_exprs)
    @settings(max_examples=150, deadline=None)
    def test_single_table_shapes(self, where):
        """One-alias plans exercise the leaf-only batch path directly."""
        _assert_matches_interpreter(
            _query([Attr("d", "url"), Attr("d", "title")], where, tables=("document",))
        )

    @given(_hostile_exprs)
    @settings(max_examples=100, deadline=None)
    def test_columnar_plan_is_reusable(self, where):
        """No state leaks between runs of one plan."""
        query = _query([Attr("a", "href")], where)
        plan = compile_node_query(query)
        first = _outcome(lambda: plan.execute_columnar(DATABASE))
        second = _outcome(lambda: plan.execute_columnar(DATABASE))
        assert first == second
        assert first == _outcome(lambda: evaluate_node_query(query, DATABASE))


# -- multi-level join plans (EXP-P6) -------------------------------------------

# Equality joins over shared variables at every plan level — the conjunct
# shapes the hash-probe expansion claims — mixed with conjuncts that are
# *not* provably total (ordered compares, contains, numeric-coercion
# literals, missing attributes at non-leaf levels), so every lowering
# decision (probe vs scan vs wholesale replay) gets exercised.
_BROKEN_A = Attr("a", "no_such_attribute")  # raises at a NON-leaf level
_JOIN_POOL = [
    Compare("=", Attr("a", "base"), Attr("d", "url")),
    Compare("=", Attr("d", "url"), Attr("a", "href")),
    Compare("=", Attr("r", "url"), Attr("d", "url")),
    Compare("=", Attr("r", "url"), Attr("a", "base")),
    # int = int cross-level join: probe values are numbers, the build
    # column is all ints — hash-safe, and must stay row-identical.
    Compare("=", Attr("d", "length"), Attr("r", "length")),
    # Constant-equality probes, including a *numeric string* constant where
    # dict lookup would diverge from coerced `=` if probed carelessly.
    Compare("=", Attr("r", "delimiter"), Literal("b")),
    Compare("=", Attr("a", "ltype"), Literal("G")),
    Compare("=", Attr("r", "length"), Literal("5")),
    Compare("=", Literal(5), Attr("d", "length")),
    # Non-total conjuncts ahead of potential joins: ordered compare,
    # contains, and an error cell at the middle (non-leaf) level.
    Compare("<", Attr("d", "length"), Attr("r", "length")),
    Contains(Attr("d", "text"), Literal("topic")),
    Compare("=", _BROKEN_A, Attr("d", "url")),
    Compare("!=", Attr("a", "href"), Attr("a", "base")),
    # Table-local and not total: hoisted into the table's selection when
    # nothing non-total precedes them, stepped over by the probe search.
    Contains(Attr("a", "label"), Literal("o")),
    Contains(Attr("r", "text"), Literal("detail")),
    Compare("<", Attr("r", "length"), Literal(12)),
]

_join_wheres = st.lists(
    st.sampled_from(_JOIN_POOL), min_size=1, max_size=4
).map(lambda conjuncts: reduce(And, conjuncts))


class TestMultiLevelJoins:
    """3+ level plans with shared join variables: the outer-level hash
    probes and batch filters must stay interpreter-identical, errors
    included."""

    @given(_selects, _join_wheres)
    @settings(max_examples=200, deadline=None)
    def test_three_level_joins_match_interpreter(self, select, where):
        _assert_matches_interpreter(_query(select, where))

    @given(_selects, _join_wheres)
    @settings(max_examples=100, deadline=None)
    def test_three_level_joins_sitewide(self, select, where):
        """Sitewide document alias at level 0: multi-page outer batch."""
        _assert_matches_interpreter(
            _query(select, where, sitewide=("d",)), site_documents=SITE_DOCUMENTS
        )

    @given(_join_wheres, _join_wheres)
    @settings(max_examples=100, deadline=None)
    def test_four_level_joins_match_interpreter(self, left, right):
        """Four aliases (two anchor scans) — deeper than anything the DST
        generator emits, so the expansion chain is covered past depth 3."""
        query = NodeQuery(
            select=(Attr("d", "url"), Attr("a2", "href")),
            tables=(
                TableDecl("document", "d"),
                TableDecl("anchor", "a"),
                TableDecl("relinfon", "r"),
                TableDecl("anchor", "a2"),
            ),
            where=And(left, Compare("=", Attr("a2", "base"), Attr("a", "base"))),
        )
        _assert_matches_interpreter(query)

    def test_join_probes_hit_the_cached_index(self):
        """The tentpole's point: an equality join is served by a cached
        per-column hash index, visible in the stats counters."""
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        query = _query(
            [Attr("d", "url"), Attr("a", "href")],
            Compare("=", Attr("a", "base"), Attr("d", "url")),
            tables=("document", "anchor"),
        )
        plan = compile_node_query(query)
        rows = plan.execute_columnar(database)
        assert rows == evaluate_node_query(query, database)
        assert stats.index_builds >= 1
        plan.execute_columnar(database)
        assert stats.index_hits >= 1
        assert stats.plan_replays == 0  # a clean batch never falls back
        summary = stats.summary()
        assert summary["index_builds"] == stats.index_builds
        assert summary["index_hits"] == stats.index_hits
        assert summary["plan_replays"] == 0

    def test_statement_order_does_not_decide_whether_a_join_is_hashed(self):
        """A table-local conjunct ahead of the equality is evaluated over the
        whole table anyway (it is hoisted), so the probe search steps over
        it: both orders probe the same index the same number of times."""
        local = Contains(Attr("r", "text"), Literal("bold"))
        equality = Compare("=", Attr("r", "url"), Attr("a", "base"))
        counters = []
        for where in (And(local, equality), And(equality, local)):
            stats = TrafficStats()
            database = build_node_database(URL, _HTML, stats=stats)
            query = _query([Attr("a", "href"), Attr("r", "text")], where)
            plan = compile_node_query(query)
            assert "  probe: r.url = a.base" in plan.describe()
            for __ in range(2):
                rows = plan.execute_columnar(database)
                assert rows and rows == evaluate_node_query(query, database)
            counters.append((stats.index_builds, stats.index_hits, stats.plan_replays))
        assert counters == [(1, 1, 0), (1, 1, 0)]


# -- fault-injected replay -----------------------------------------------------

_ANY_URL = "http://a.example/page.html"
# A poisoned anchor: an int label where the constant-needle ``contains``
# kernels expect a string, and base = href (true of no parsed anchor).
_POISONED_ANCHOR = ("anchor", (5, _ANY_URL, _ANY_URL, "L"))
# stage where the batch raises → (select, where, poisoned (relation, row)
# pairs).  A poisoned cell is an int where a string is expected: the batch
# raises AttributeError, which only the replay turns back into the
# interpreter's own outcome.
_REPLAY_CASES = {
    "level-0-filter": (
        [Attr("r", "text")],
        Contains(Attr("d", "title"), Literal("alpha")),
        [("document", (_ANY_URL, 5, "text", 4))],
    ),
    "level-1-filter": (
        [Attr("r", "text")],
        Contains(Attr("a", "label"), Literal("one")),
        [_POISONED_ANCHOR],
    ),
    "leaf-kernel": (
        [Attr("a", "href")],
        Contains(Attr("r", "text"), Literal("bold")),
        [("relinfon", ("b", _ANY_URL, 5, 1))],
    ),
    # No poison needed: DOCUMENT.length is an int column by schema.
    "non-string-contains-cell": (
        [Attr("d", "url")],
        Contains(Attr("d", "length"), Literal("1")),
        [],
    ),
    # The probe side raises, but the short-circuiting interpreter never
    # reaches it (the first conjunct is false on every anchor): the replay
    # must come back with *rows* (none), not an error.  The first conjunct
    # spans two aliases, so it stays per binding: a table-local one would
    # empty ANCHOR's selection and the batch would never probe at all.
    "join-probe": (
        [Attr("a", "href")],
        And(
            Compare("!=", Attr("a", "base"), Attr("d", "url")),
            Compare("=", Attr("a", "href"), _BROKEN),
        ),
        [],
    ),
    # The leaf join probes ``r.length`` with a boolean: true for the first
    # two anchors, whose rows the batch has already emitted when the probe
    # raises on the poisoned label.  The interpreter never evaluates that
    # probe (the total first conjunct is false for base = href), so the
    # replay returns exactly its two rows — none of the batch's.
    "leaf-probe-after-partial-output": (
        [Attr("a", "href"), Attr("r", "text")],
        And(
            Or(
                Compare("!=", Attr("a", "base"), Attr("a", "href")),
                Compare("=", Attr("r", "delimiter"), Literal("nope")),
            ),
            Compare(
                "=", Attr("r", "length"), Contains(Attr("a", "label"), Literal("o"))
            ),
        ),
        [("relinfon", ("b", _ANY_URL, "x", 1)), _POISONED_ANCHOR],
    ),
    "projector": (
        [Attr("a", "href"), _BROKEN_A],
        Compare("=", Attr("a", "ltype"), Literal("G")),
        [],
    ),
}


class TestReplay:
    """Force the batch to raise at every stage of the pipeline: the
    replayed outcome must be the interpreter's, and counted."""

    @pytest.mark.parametrize("stage", sorted(_REPLAY_CASES))
    def test_forced_batch_failure_replays_to_the_interpreter_outcome(self, stage):
        select, where, poison = _REPLAY_CASES[stage]
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        for relation, row in poison:
            database.relation(relation).insert(row)
        query = _query(select, where)
        _assert_matches_interpreter(query, database)
        assert stats.plan_replays == 1
        # The reference entry of a plan *is* the interpreter.
        expected = _outcome(lambda: evaluate_node_query(query, database))
        assert _outcome(lambda: compile_node_query(query).execute(database)) == expected
        if stage == "leaf-probe-after-partial-output":
            assert len(expected) == 2


# Join order of the 3- and 4-level plans below: per table the equality
# joining it to the tables before it and a hoisted (table-local, non-total)
# conjunct; per relation a row that poisons that conjunct — an int where
# ``contains`` needs a string.
_LEVELS = (
    ("document", "d", None, Contains(Attr("d", "title"), Literal("alpha"))),
    ("anchor", "a", Compare("=", Attr("a", "base"), Attr("d", "url")),
     Contains(Attr("a", "label"), Literal("o"))),
    ("relinfon", "r", Compare("=", Attr("r", "url"), Attr("a", "base")),
     Contains(Attr("r", "text"), Literal("e"))),
    ("anchor", "a2", Compare("=", Attr("a2", "base"), Attr("a", "base")),
     Contains(Attr("a2", "label"), Literal("o"))),
)
_POISON = {
    "document": (_ANY_URL, 5, "text", 4),
    "anchor": _POISONED_ANCHOR[1],
    "relinfon": ("b", _ANY_URL, 5, 1),
}
_LEVEL_CASES = [(levels, depth) for levels in (3, 4) for depth in range(levels)]


def _leveled_query(levels, hoisted_at, *, hoisted_first=True):
    """The ``levels``-table equality join with the hoisted conjuncts of the
    depths in ``hoisted_at``, written before or after their level's join."""
    conjuncts = []
    for depth, (__, __, join, hoisted) in enumerate(_LEVELS[:levels]):
        group = [join] if join is not None else []
        if depth in hoisted_at:
            group.insert(0 if hoisted_first else len(group), hoisted)
        conjuncts += group
    leaf_alias, leaf_hoisted = _LEVELS[levels - 1][1], _LEVELS[levels - 1][3]
    return NodeQuery(
        select=(Attr("d", "url"), Attr(leaf_alias, leaf_hoisted.haystack.name)),
        tables=tuple(TableDecl(relation, alias) for relation, alias, *__ in _LEVELS[:levels]),
        where=reduce(And, conjuncts),
    )


class TestSelectionErrorIdentity:
    """Selections run below the join, over whole tables and ahead of their
    statement position: rows and lazily-raised errors must still be the
    interpreter's — by the replay where the batch over-evaluates, by the
    hoisting rule where it would under-evaluate."""

    @pytest.mark.parametrize("hoisted_first", [True, False])
    @pytest.mark.parametrize("levels,depth", _LEVEL_CASES)
    def test_poisoned_cell_in_a_hoisted_column(self, levels, depth, hoisted_first):
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        relation, alias, __, hoisted = _LEVELS[depth]
        database.relation(relation).insert(_POISON[relation])
        query = _leveled_query(levels, {depth}, hoisted_first=hoisted_first)
        plan = compile_node_query(query)
        assert f"bind {relation} {alias}\n  selection: {hoisted}" in plan.describe()
        _assert_matches_interpreter(query, database)
        assert stats.plan_replays == 1

    def test_local_conjunct_after_a_non_total_one_is_not_hoisted(self):
        """``r.text contains "bold"`` would deselect the row whose ``length``
        makes the ordered comparison ahead of it raise; hoisted, the batch
        would finish cleanly with rows where the interpreter raises."""
        database = build_node_database(URL, _HTML)
        database.relation("relinfon").insert(("b", _ANY_URL, "pruned by the selection", "x"))
        ordered = Compare("<", Attr("d", "length"), Attr("r", "length"))
        local = Contains(Attr("r", "text"), Literal("bold"))
        query = _query([Attr("r", "text")], And(ordered, local))
        plan = compile_node_query(query)
        assert f"  residual: {ordered}\n  residual: {local}" in plan.describe()
        outcome = _outcome(lambda: plan.execute_columnar(database))
        assert outcome == (EvaluationError, "cannot compare int < str")
        _assert_matches_interpreter(query, database)
        # Written the other way round it is hoisted, the batch compares "x"
        # too, and the replay restores the interpreter's clean rows (its
        # short circuit never reaches the comparison on that row).
        swapped = _query([Attr("r", "text")], And(local, ordered))
        swapped_plan = compile_node_query(swapped).describe()
        assert f"  selection: {local}\n  residual: {ordered}" in swapped_plan
        _assert_matches_interpreter(swapped, database)

    @pytest.mark.parametrize("levels,depth", _LEVEL_CASES)
    def test_empty_table_evaluates_no_selection_behind_it(self, levels, depth):
        """With the table at ``depth`` empty the interpreter never reaches a
        deeper level, so poisoned cells there must stay unevaluated."""
        from repro.relational.table import Table

        stats = TrafficStats()
        source = build_node_database(URL, _HTML)
        emptied = _LEVELS[depth][0]
        behind = {relation for relation, *__ in _LEVELS[depth + 1:levels]} - {emptied}
        tables = {}
        for relation in _POISON:
            rows = [] if relation == emptied else source.relation(relation).row_list()
            if relation in behind:
                rows = rows + [_POISON[relation]]
            tables[relation] = Table(source.relation(relation).schema, rows, stats=stats)
        # ANCHOR is scanned at two depths: a level in front of the empty
        # table keeps its hoisted conjunct only if its cells are clean.
        hoisted_at = {
            at for at, (relation, *__) in enumerate(_LEVELS[:levels])
            if at > depth or relation not in behind
        }

        class Database:
            relation = staticmethod(tables.__getitem__)

        query = _leveled_query(levels, hoisted_at)
        plan = compile_node_query(query)
        assert plan.execute_columnar(Database) == evaluate_node_query(query, Database) == []
        assert stats.plan_replays == 0


class TestColumnIndexSafety:
    """ColumnIndex.probe must refuse whenever dict equality is not provably
    the interpreter's coerced `=` — `5 = "5"` is TRUE in the interpreter."""

    def _index(self, values):
        from repro.relational.table import ColumnIndex

        return ColumnIndex(values)

    def test_buckets_preserve_insertion_order(self):
        index = self._index(["x", "y", "x", "x"])
        assert index.probe("x") == [0, 2, 3]
        assert index.probe("zzz") == ()

    def test_numeric_string_probe_refused_on_numeric_column(self):
        index = self._index([5, 7])
        assert index.probe("5") is None  # coerced `=` would match row 0
        assert index.probe(6) == ()

    def test_int_probe_refused_when_column_holds_numeric_strings(self):
        index = self._index(["5", "x"])
        assert index.probe(5) is None
        assert index.probe("x") == [1]

    def test_float_and_exotic_columns_always_refuse(self):
        assert self._index([1.0, 2.0]).probe(1) is None
        assert self._index([float("nan")]).probe(float("nan")) is None
        assert self._index([(1, 2)]).probe((1, 2)) is None

    def test_unhashable_column_refuses(self):
        assert self._index([["a"]]).probe("a") is None

    def test_table_index_invalidated_by_insert(self):
        from repro.model.relations import DOCUMENT_SCHEMA
        from repro.relational.table import Table

        stats = TrafficStats()
        table = Table(DOCUMENT_SCHEMA, stats=stats)
        table.insert(("u1", "t", "x", 1))
        first = table.index(0)
        assert table.index(0) is first  # cached
        assert stats.index_builds == 1
        assert stats.index_hits == 1
        table.insert(("u2", "t", "y", 2))
        rebuilt = table.index(0)
        assert rebuilt is not first
        assert rebuilt.probe("u2") == [1]
        assert stats.index_builds == 2


# -- engine level --------------------------------------------------------------


def _distinct_rows(handle):
    return frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )


def _semantic_state(engine, handles):
    return (
        [handle.status for handle in handles],
        [_distinct_rows(handle) for handle in handles],
        {
            site: server.log_table.canonical_snapshot()
            for site, server in sorted(engine.servers.items())
        },
    )


def _run_batch(web, texts, **config):
    engine = WebDisEngine(web, config=EngineConfig(**config))
    handles = [engine.submit_disql(text) for text in texts]
    engine.run()
    return engine, handles


# Default engine (compiled plans on the batch pipeline) vs the interpreter.
_EVALUATORS = ({}, {"compiled_plans": False})


class TestEngineEquivalence:
    """Whole-engine runs: compiling plans changes cost, never answers."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_webs(self, seed):
        spec = generate_case(seed)
        web = build_web(spec)
        texts = query_texts(spec)
        compiled, interpreted = (
            _semantic_state(*_run_batch(web, texts, **knobs)) for knobs in _EVALUATORS
        )
        assert compiled == interpreted

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_equivalence_crossed_with_memo(self, seed):
        """Memo entries are evaluator-independent: a memo warmed by either
        must leave answers identical to the other's."""
        spec = generate_case(seed)
        web = build_web(spec)
        # Duplicate the main query so the memo demonstrably engages.
        texts = query_texts(spec) + [query_texts(spec)[0]]
        compiled, interpreted = (
            _semantic_state(
                *_run_batch(web, texts, cross_query_caching=True, **knobs)
            )
            for knobs in _EVALUATORS
        )
        assert compiled == interpreted

    def test_campus_rows_identical(self, campus_web):
        states = []
        for knobs in _EVALUATORS:
            engine, (handle,) = _run_batch(campus_web, [CAMPUS_QUERY_DISQL], **knobs)
            assert handle.status is QueryStatus.COMPLETE
            assert {r.values for r in handle.unique_rows("q2")} == set(
                EXPECTED_CONVENER_ROWS
            )
            states.append(_semantic_state(engine, [handle]))
        assert states[0] == states[1]


class TestMemoLayoutIndependence:
    def test_columnar_rows_round_trip_through_the_memo(self):
        """Rows computed by the batch path are plain ResultRow tuples: a
        memo entry written by it serves an interpreter-side reader unchanged."""
        query = _query(
            [Attr("d", "url"), Attr("a", "href")],
            Compare("=", Attr("a", "ltype"), Literal("G")),
            tables=("document", "anchor"),
        )
        columnar = tuple(compile_node_query(query).execute_columnar(DATABASE))
        interpreted = tuple(evaluate_node_query(query, DATABASE))
        assert columnar == interpreted
        memo = ResultMemo()
        memo.store_rows(URL, query, columnar)
        assert memo.rows_for(URL, query) == interpreted


# -- bounded memo (S1) ---------------------------------------------------------


def _rows_of(query):
    return tuple(compile_node_query(query).execute_columnar(DATABASE))


class TestBoundedMemo:
    def _queries(self, count):
        return [
            _query(
                [Attr("d", "url")],
                Compare("=", Attr("d", "title"), Literal(f"t{i}")),
                tables=("document",),
            )
            for i in range(count)
        ]

    def test_capacity_is_respected_with_lru_order(self):
        stats = TrafficStats()
        memo = ResultMemo(stats, capacity=2)
        q0, q1, q2 = self._queries(3)
        memo.store_rows(URL, q0, _rows_of(q0))
        memo.store_rows(URL, q1, _rows_of(q1))
        # Touch q0 so q1 becomes the coldest entry...
        assert memo.rows_for(URL, q0) is not None
        memo.store_rows(URL, q2, _rows_of(q2))
        # ...and gets evicted; q0 and q2 survive.
        assert len(memo) == 2
        assert memo.evictions == 1
        assert stats.memo_evictions == 1
        assert memo.rows_for(URL, q1) is None
        assert memo.rows_for(URL, q0) == _rows_of(q0)
        assert memo.rows_for(URL, q2) == _rows_of(q2)

    def test_bytes_gauge_tracks_stores_evictions_and_clear(self):
        stats = TrafficStats()
        memo = ResultMemo(stats, capacity=2)
        queries = self._queries(4)
        for query in queries:
            memo.store_rows(URL, query, _rows_of(query))
        assert len(memo) == 2
        assert memo.evictions == 2
        assert memo.bytes_est > 0
        assert stats.memo_bytes_est == memo.bytes_est
        memo.clear()
        assert memo.bytes_est == 0
        assert stats.memo_bytes_est == 0
        assert len(memo) == 0

    def test_overwrite_does_not_leak_bytes(self):
        memo = ResultMemo(capacity=4)
        (query,) = self._queries(1)
        memo.store_rows(URL, query, _rows_of(query))
        size = memo.bytes_est
        memo.store_rows(URL, query, _rows_of(query))
        assert memo.bytes_est == size
        assert len(memo) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultMemo(capacity=0)

    def test_unbounded_memo_never_evicts(self):
        memo = ResultMemo()
        for query in self._queries(8):
            memo.store_rows(URL, query, _rows_of(query))
        assert len(memo) == 8
        assert memo.evictions == 0

    def test_tiny_capacity_never_changes_answers(self, campus_web):
        baseline, cold_handles = _run_batch(
            campus_web, [CAMPUS_QUERY_DISQL] * 2, cross_query_caching=False
        )
        engine = WebDisEngine(campus_web)
        for server in engine.servers.values():
            server.memo = ResultMemo(engine.stats, capacity=2)
        bounded_handles = [engine.submit_disql(CAMPUS_QUERY_DISQL) for __ in range(2)]
        engine.run()
        for bounded, cold in zip(bounded_handles, cold_handles):
            assert bounded.status is QueryStatus.COMPLETE
            assert _distinct_rows(bounded) == _distinct_rows(cold)
        # The tiny bound genuinely bit: entries were evicted somewhere.
        assert engine.stats.memo_evictions > 0


# -- constructor caches (S2) ---------------------------------------------------


class TestConstructorCaches:
    def test_cache_info_and_stats_counters(self):
        stats = TrafficStats()
        constructor = DatabaseConstructor(cache_size=1, stats=stats)
        constructor.construct(URL, _HTML)
        constructor.construct(URL, _HTML)  # served from the store
        constructor.construct(SIBLING, _HTML)  # evicts URL
        constructor.construct(URL, _HTML)  # rebuilt: parse and all
        assert constructor.cache_info() == {
            "capacity": 1, "retained": 1, "hits": 1, "misses": 3,
        }
        assert stats.db_cache_hits == 1
        assert stats.db_cache_misses == 3
        # Nothing of a page outlives its record, so no build can skip the parse.
        assert stats.parse_cache_hits == 0

    def test_uncached_constructor_still_counts_misses(self):
        stats = TrafficStats()
        constructor = DatabaseConstructor(cache_size=0, stats=stats)
        constructor.construct(URL, _HTML)
        constructor.construct(URL, _HTML)
        assert stats.db_cache_hits == 0
        assert stats.db_cache_misses == 2
        assert constructor.cache_info()["retained"] == 0

    def test_engine_surfaces_the_counters(self, campus_web):
        engine, (handle,) = _run_batch(campus_web, [CAMPUS_QUERY_DISQL])
        assert handle.status is QueryStatus.COMPLETE
        summary = engine.stats.summary()
        assert "db_cache_misses" in summary
        assert engine.stats.db_cache_misses > 0


# -- DST wiring ----------------------------------------------------------------


class TestDstIntegration:
    def test_generator_keeps_the_retired_knobs_draw_position(self):
        cases = [generate_case(seed) for seed in range(16)]
        assert not any("executor" in case["config"] for case in cases)
        # The ``anchor`` draw comes after the retired knob's: these are the
        # values seeds 0..15 drew while the knob still existed.
        drawn = "".join("01"[case["query"]["anchor"]] for case in cases)
        assert drawn == "1001010001110001"

    def test_runner_ignores_the_retired_knob_in_old_repro_files(self):
        old = {"seed": 0, "config": {"executor": "row", "compiled_plans": False}}
        new = {"seed": 0, "config": {"compiled_plans": False}}
        assert _engine_config(old) == _engine_config(new)

    def test_shrinker_proposes_the_interpreter_fallback(self):
        spec = generate_case(3)
        spec["config"]["compiled_plans"] = True

        def without_knob(config):
            return {k: v for k, v in config.items() if k != "compiled_plans"}

        flipped = [
            candidate
            for candidate in _candidates(spec)
            if candidate["config"]["compiled_plans"] is False
            and without_knob(candidate["config"]) == without_knob(spec["config"])
            and candidate["web"] == spec["web"]
            and candidate["faults"] == spec["faults"]
        ]
        assert flipped
        # ...and never re-fires once the interpreter is already selected.
        spec["config"]["compiled_plans"] = False
        assert not any(candidate == spec for candidate in _candidates(spec))
