"""Columnar execution: batch operators, replay, memo bounds.

The batch pipeline is *the* compiled executor — it must be semantically
invisible, including the interpreter's lazy error semantics that the
batch kernels reorder around.  Property families:

* **Plan-level equivalence** — ``execute_columnar`` vs the tree
  interpreter over safe and *hostile* grammars (mixed-type literals,
  missing attributes): identical rows in identical order, or the same
  error class *and message*.  This is the direct check that the
  optimistic batch and its replay through the interpreter reproduce
  short-circuit errors.  Literal-varied queries (same shape, other values
  of the same kinds) bound to one shared lowering must match the
  interpreter on their own literals, and kinds never share a lowering.
* **Fault-injected replay** — a poisoned cell (or missing attribute) at
  each plan level, leaf kernel and projector forces the batch to raise;
  the replayed outcome must equal the interpreter's — with no partial
  batch output left behind — and be counted in
  ``TrafficStats.plan_replays``.
* **Selections below the join** — table-local conjuncts run over whole
  tables, ahead of their statement position: a poisoned cell in every
  hoisted column of 3- and 4-level joins, the conjunct the hoisting rule
  must leave in place, and empty tables at every level.
* **Cross-level ``contains`` and selections before expansion** —
  attribute-in-attribute ``contains`` in both operand orders, at the leaf
  and at an outer level, first in line (the batched kernel) and behind
  another residual (a generic kernel), over 2- to 4-level plans,
  with non-``str`` cells at the outer and the leaf level; an outer
  residual must stop the run-ahead of the leaf's selection.
* **Engine-level equivalence** — random generated webs run end to end on
  the default engine vs ``compiled_plans=False``: identical statuses,
  per-tenant distinct rows and canonical log-table snapshots, crossed
  with the cross-query memo.
* **Bounded memo / document store** — the memo's flush respects
  capacity, moves the ``memo_evictions`` / ``memo_bytes_est`` gauges,
  and never changes answers; the constructor's document store
  reports through ``cache_info()`` and ``TrafficStats``.

Plus the DST wiring: the generator keeps the retired knobs' draw
positions, its last draw puts the batched cross-level kernel in the DST
query, the oracle catches a faulty batch kernel, the runner ignores the
retired key in old repro files, and the shrinker proposes falling back to
the interpreter.
"""

from __future__ import annotations

from collections import OrderedDict
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
from repro.relational.expr import And, Attr, Compare, Contains, Literal, Not, Or, attrs_referenced
from repro.relational.query import (
    NodeQuery,
    TableDecl,
    evaluate_node_query,
    evaluate_node_query_naive,
)
from repro.testing.generators import build_web, generate_case, query_texts
from repro.testing.runner import _engine_config, run_case
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
    # Attribute in attribute: across aliases, in either operand order, and
    # first in line among a level's residuals, it is the batched
    # cross-level kernel.
    cross = st.builds(Contains, st.sampled_from(attrs), st.sampled_from(attrs))
    return st.one_of(compares, contains, cross)


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


def _assert_matches_interpreter(query, database=DATABASE, site_documents=None, lowerings=None):
    """The batch pipeline against the tree interpreter — the reference whose
    pushdown placement (and therefore lazy error order) plans compile from.
    With ``lowerings`` the plan may be bound to a lowering made for another
    query of the same shape."""
    plan = compile_node_query(query, lowerings)
    assert plan.query is query
    assert _outcome(
        lambda: plan.execute_columnar(database, site_documents)
    ) == _outcome(lambda: evaluate_node_query(query, database, site_documents))


#: Replacement values per literal kind: a query rebuilt from these has the
#: shape of the original (see ``compile_node_query``), other constants.
_SAME_KIND = {
    "str": ["G", "L", "b", "i", "hr", "topic", "detail", "x", "zzz", "o", "", "ALPHA", "é"],
    "numeric str": ["5", "12", "0", "1e1", "-3", " 7 "],
    "int": [5, 0, 12, -1, 4],
}


def _kind(value):
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return "str"
        return "numeric str"
    return type(value).__name__


def _revalued(expr, data):
    """``expr`` with every literal redrawn from its kind's values."""
    if isinstance(expr, Literal):
        return Literal(data.draw(st.sampled_from(_SAME_KIND[_kind(expr.value)])))
    if isinstance(expr, Compare):
        return Compare(expr.op, _revalued(expr.left, data), _revalued(expr.right, data))
    if isinstance(expr, Contains):
        return Contains(
            _revalued(expr.haystack, data), _revalued(expr.needle, data), expr.max_edits
        )
    if isinstance(expr, (And, Or)):
        return type(expr)(_revalued(expr.left, data), _revalued(expr.right, data))
    if isinstance(expr, Not):
        return Not(_revalued(expr.operand, data))
    return expr


def _assert_literal_variants_match(queries, database=DATABASE, site_documents=None):
    """Every query through one mapping of lowerings: one lowering, and each
    plan matches the interpreter on its own literals."""
    lowerings = OrderedDict()
    for query in queries:
        _assert_matches_interpreter(query, database, site_documents, lowerings)
    assert len(lowerings) == 1


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

    @given(_selects, _hostile_exprs, st.data())
    @settings(max_examples=200, deadline=None)
    def test_literal_varied_queries_share_one_lowering(self, select, where, data):
        _assert_literal_variants_match(
            [_query(select, where)] + [_query(select, _revalued(where, data)) for __ in range(3)]
        )

    @given(_selects, _hostile_exprs, st.data())
    @settings(max_examples=100, deadline=None)
    def test_literal_varied_queries_share_one_lowering_sitewide(self, select, where, data):
        _assert_literal_variants_match(
            [_query(select, w, sitewide=("d",)) for w in (where, _revalued(where, data))],
            site_documents=SITE_DOCUMENTS,
        )

    def test_kinds_never_share_a_lowering(self):
        """``_specialize`` picks plain ``=`` for non-numeric strings only,
        so a string, a numeric string and a number are three shapes."""
        lowerings = OrderedDict()
        for value in ("x", "12", 12, "y", "13", 13, 1.5, 2.5):
            _assert_matches_interpreter(
                _query([Attr("d", "url")], Compare("=", Attr("d", "length"), Literal(value))),
                lowerings=lowerings,
            )
        assert len(lowerings) == 4

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

# Equality joins over shared variables at every plan level — residual
# kernels per outer binding — mixed with conjuncts that are *not* provably
# total (ordered compares, contains, numeric-coercion literals, missing
# attributes at non-leaf levels), so every lowering decision (selection vs
# residual, plain vs generic kernel, wholesale replay) gets exercised.
_BROKEN_A = Attr("a", "no_such_attribute")  # raises at a NON-leaf level
_JOIN_POOL = [
    Compare("=", Attr("a", "base"), Attr("d", "url")),
    Compare("=", Attr("d", "url"), Attr("a", "href")),
    Compare("=", Attr("r", "url"), Attr("d", "url")),
    Compare("=", Attr("r", "url"), Attr("a", "base")),
    # int = int cross-level join: both columns are all ints, and it must
    # stay row-identical.
    Compare("=", Attr("d", "length"), Attr("r", "length")),
    # Constant equalities, including a *numeric string* constant where a
    # plain `==` kernel would diverge from coerced `=`.
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
    # nothing non-total precedes them.
    Contains(Attr("a", "label"), Literal("o")),
    Contains(Attr("r", "text"), Literal("detail")),
    Compare("<", Attr("r", "length"), Literal(12)),
]

_join_wheres = st.lists(
    st.sampled_from(_JOIN_POOL), min_size=1, max_size=4
).map(lambda conjuncts: reduce(And, conjuncts))


class TestMultiLevelJoins:
    """3+ level plans with shared join variables: the per-binding
    residuals and batch filters must stay interpreter-identical, errors
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

    @given(_selects, _join_wheres, st.data())
    @settings(max_examples=100, deadline=None)
    def test_literal_varied_joins_share_one_lowering(self, select, where, data):
        """Constant-equality kernels and hoisted selections read the bound
        constant, not the one the lowering was made for."""
        _assert_literal_variants_match(
            [_query(select, where)] + [_query(select, _revalued(where, data)) for __ in range(3)]
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

    def test_statement_order_does_not_decide_whether_a_join_is_hashed(self):
        """No join is hashed: an equality join is a residual in either
        statement order, and a table-local conjunct ahead of it or behind it
        (the equality is total) is hoisted into the selection — so both
        orders lower to the same groups and return the same rows."""
        local = Contains(Attr("r", "text"), Literal("bold"))
        equality = Compare("=", Attr("r", "url"), Attr("a", "base"))
        outcomes = []
        for where in (And(local, equality), And(equality, local)):
            stats = TrafficStats()
            database = build_node_database(URL, _HTML, stats=stats)
            query = _query([Attr("a", "href"), Attr("r", "text")], where)
            plan = compile_node_query(query)
            described = plan.describe()
            assert described.endswith(
                "bind relinfon r\n"
                '  selection: r.text contains "bold"\n'
                "  residual: r.url = a.base"
            )
            for __ in range(2):
                rows = plan.execute_columnar(database)
                assert rows and rows == evaluate_node_query(query, database)
            outcomes.append((rows, described, stats.plan_replays))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == 0


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
    # The join's outer side raises, but the short-circuiting interpreter
    # never reaches it (the first conjunct is false on every anchor), and
    # neither does the batch: both conjuncts are residuals in statement
    # order, so the first empties every binding's survivors.  The outcome is
    # *rows* (none), not an error, without a replay.
    "join-probe": (
        [Attr("a", "href")],
        And(
            Compare("!=", Attr("a", "base"), Attr("d", "url")),
            Compare("=", Attr("a", "href"), _BROKEN),
        ),
        [],
    ),
    # The leaf join compares ``r.length`` with a boolean that raises on the
    # poisoned label.  The interpreter never evaluates it there (the total
    # first conjunct is false for base = href), and the batch, running the
    # residuals in statement order, does not either: exactly the
    # interpreter's two rows, without a replay.
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
    # The batched cross-level ``contains`` lowers every selected segment's
    # delimiter once per execution: the int one raises there.
    "cross-level-contains-leaf-cell": (
        [Attr("a", "href")],
        Contains(Attr("a", "label"), Attr("r", "delimiter")),
        [("relinfon", (5, _ANY_URL, "x", 1))],
    ),
    # ...and each anchor's label once per binding: the int one raises there.
    "cross-level-contains-outer-cell": (
        [Attr("r", "text")],
        Contains(Attr("r", "text"), Attr("a", "label")),
        [_POISONED_ANCHOR],
    ),
    # Lowered for ``r.delimiter = "i"`` (which deselects the poisoned
    # segment), executed bound to ``"b"`` (which selects it, so the leaf
    # ``contains`` kernel meets the int cell): a plan that kept the first
    # literal would finish cleanly with the wrong rows.
    "replay-after-rebind": (
        [Attr("r", "text")],
        And(
            Compare("=", Attr("r", "delimiter"), Literal("b")),
            Contains(Attr("r", "text"), Literal("bold")),
        ),
        [("relinfon", ("b", _ANY_URL, 5, 1))],
    ),
}
#: Stage → the ``where`` its plan is lowered for before the stage's own
#: query binds to the same lowering.
_LOWERED_FOR = {
    "replay-after-rebind": And(
        Compare("=", Attr("r", "delimiter"), Literal("i")),
        Contains(Attr("r", "text"), Literal("bold")),
    ),
}
#: Stages whose error only an out-of-order evaluation could reach: the
#: batch runs the residuals in statement order, so it finishes cleanly
#: with the interpreter's outcome, and nothing replays.
_NO_REPLAY = {"join-probe", "leaf-probe-after-partial-output"}


class TestReplay:
    """Force the batch to raise at every stage of the pipeline: the
    replayed outcome must be the interpreter's, and counted — and where the
    batch cannot raise, its own outcome must be the interpreter's."""

    @pytest.mark.parametrize("stage", sorted(_REPLAY_CASES))
    def test_forced_batch_failure_replays_to_the_interpreter_outcome(self, stage):
        select, where, poison = _REPLAY_CASES[stage]
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        for relation, row in poison:
            database.relation(relation).insert(row)
        query = _query(select, where)
        lowerings = OrderedDict()
        if stage in _LOWERED_FOR:
            compile_node_query(_query(select, _LOWERED_FOR[stage]), lowerings)
        _assert_matches_interpreter(query, database, lowerings=lowerings)
        assert len(lowerings) == 1
        assert stats.plan_replays == (0 if stage in _NO_REPLAY else 1)
        # The reference entry of a plan *is* the interpreter.
        expected = _outcome(lambda: evaluate_node_query(query, database))
        assert _outcome(lambda: compile_node_query(query).execute(database)) == expected
        if stage == "leaf-probe-after-partial-output":
            assert len(expected) == 2


# -- cross-level contains and selections before expansion ---------------------

# Every cross-level ``contains`` shape — the outer attribute as haystack and
# as needle, at the leaf and at an outer level, over int cells (DOCUMENT and
# RELINFON ``length``) and a missing attribute — mixed with the joins and
# non-total conjuncts of ``_JOIN_POOL``, over 2-, 3- and 4-level plans.
_CROSS_POOL = _JOIN_POOL + [
    Contains(Attr("a", "label"), Attr("r", "delimiter")),
    Contains(Attr("r", "text"), Attr("a", "label")),
    Contains(Attr("a", "href"), Attr("d", "url")),
    Contains(Attr("d", "title"), Attr("a", "label")),
    Contains(Attr("r", "url"), Attr("d", "url")),
    Contains(Attr("d", "length"), Attr("r", "delimiter")),
    Contains(Attr("a", "label"), Attr("r", "length")),
    Contains(_BROKEN_A, Attr("r", "delimiter")),
    # An outer-level residual that is not total: the run-ahead stops there.
    Compare("<", Attr("a", "label"), Attr("d", "length")),
    Contains(Attr("a", "label"), Attr("d", "title")),
    Compare("=", Attr("a2", "base"), Attr("a", "base")),
    Contains(Attr("a2", "label"), Attr("r", "delimiter")),
    Contains(Attr("r", "text"), Attr("a2", "label")),
]
_CROSS_TABLES = {
    ("document", "anchor"): ("d", "a"),
    ("anchor", "relinfon"): ("a", "r"),
    ("document", "relinfon"): ("d", "r"),
    ("document", "anchor", "relinfon"): ("d", "a", "r"),
    ("document", "anchor", "relinfon", "anchor"): ("d", "a", "r", "a2"),
}
#: A row with a non-``str`` cell where a cross-level ``contains`` reads one:
#: an int label (outer level under ``relinfon``), an int delimiter (leaf).
_CROSS_POISON = {
    "clean": [],
    "int label": [_POISONED_ANCHOR],
    "int delimiter": [("relinfon", (5, _ANY_URL, "x", 1))],
    "both": [_POISONED_ANCHOR, ("relinfon", (5, _ANY_URL, "x", 1))],
}


@st.composite
def _cross_level_queries(draw):
    tables, aliases = draw(st.sampled_from(sorted(_CROSS_TABLES.items())))
    declared = set(aliases)
    pool = [
        conjunct for conjunct in _CROSS_POOL
        if {attr.alias for attr in attrs_referenced(conjunct)} <= declared
    ]
    where = reduce(And, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    attrs = [attr for attr in _ATTRS if attr.alias in declared]
    if "a2" in declared:
        attrs.append(Attr("a2", "href"))
    select = draw(st.lists(st.sampled_from(attrs), min_size=1, max_size=3, unique=True))
    return NodeQuery(
        select=tuple(select),
        tables=tuple(TableDecl(name, alias) for name, alias in zip(tables, aliases)),
        where=where,
    )


class TestCrossLevelContains:
    """The batched cross-level ``contains`` and the run-ahead of selections:
    rows, order and error class stay the interpreter's."""

    @given(_cross_level_queries(), st.sampled_from(sorted(_CROSS_POISON)))
    @settings(max_examples=250, deadline=None)
    def test_cross_level_plans_match_interpreter(self, query, poison):
        database = build_node_database(URL, _HTML)
        for relation, row in _CROSS_POISON[poison]:
            database.relation(relation).insert(row)
        _assert_matches_interpreter(query, database)

    @pytest.mark.parametrize("haystack,needle", [("label", "delimiter"), ("text", "label")])
    def test_both_operand_orders_select_by_containment(self, haystack, needle, monkeypatch):
        """Outer haystack (``a.label contains r.delimiter``) and outer needle
        (``r.text contains a.label``): the batched kernel, rows exactly where
        it holds, no replay."""
        from repro.relational import columnar

        prepared = []
        matches = columnar._CrossContains.matches
        monkeypatch.setattr(
            columnar._CrossContains, "matches",
            lambda self, *args: prepared.append(self) or matches(self, *args),
        )
        alias = {"label": "a", "delimiter": "r", "text": "r"}
        conjunct = Contains(Attr(alias[haystack], haystack), Attr(alias[needle], needle))
        query = _query([Attr("a", "label"), Attr("r", "delimiter"), Attr("r", "text")], conjunct)
        stats = TrafficStats()
        database = build_node_database(URL, _HTML, stats=stats)
        database.relation("anchor").insert(("bold", _ANY_URL, _ANY_URL, "L"))
        plan = compile_node_query(query)
        assert f"  residual: {conjunct}" in plan.describe()
        rows = plan.execute_columnar(database)
        assert [cross.own_is_needle for cross in prepared] == [haystack == "label"]
        assert rows == evaluate_node_query(query, database)
        values = [dict(zip(("label", "delimiter", "text"), row.values)) for row in rows]
        assert values and all(v[needle].lower() in v[haystack].lower() for v in values)
        assert stats.plan_replays == 0

    def test_an_outer_residual_stops_the_run_ahead(self):
        """``a.label contains d.title`` is residual at the anchor level, so
        the leaf's selection runs only for anchors that survive it — none:
        its poisoned cell stays unevaluated, as in the interpreter."""
        leaf = Contains(Attr("r", "text"), Literal("bold"))
        for outer, replays in ((Contains(Attr("a", "label"), Attr("d", "title")), 0), (None, 1)):
            stats = TrafficStats()
            database = build_node_database(URL, _HTML, stats=stats)
            database.relation("relinfon").insert(("b", _ANY_URL, 5, 1))
            query = _query([Attr("r", "text")], leaf if outer is None else And(outer, leaf))
            _assert_matches_interpreter(query, database)
            assert stats.plan_replays == replays


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

    def test_capacity_is_respected_by_a_flush(self):
        stats = TrafficStats()
        memo = ResultMemo(stats, capacity=2)
        q0, q1, q2 = self._queries(3)
        memo.store_rows(URL, q0, _rows_of(q0))
        memo.store_rows(URL, q1, _rows_of(q1))
        version = memo.version
        # A hit keeps no recency: touching q0 does not save it...
        assert memo.rows_for(URL, q0) is not None
        memo.store_rows(URL, q2, _rows_of(q2))
        # ...the store at the bound drops both entries, as a clear would,
        # and only q2 is left.
        assert len(memo) == 1
        assert memo.flushes == 1
        assert memo.evictions == 2
        assert stats.memo_evictions == 2
        assert memo.version == version + 1
        assert memo.stale_entries() == []
        assert memo.rows_for(URL, q0) is None
        assert memo.rows_for(URL, q1) is None
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
        bounded_handles = []
        for __ in range(2):
            bounded_handles.append(engine.submit_disql(CAMPUS_QUERY_DISQL))
            engine.run()
            assert all(len(server.memo) <= 2 for server in engine.servers.values())
        for bounded, cold in zip(bounded_handles, cold_handles):
            assert bounded.status is QueryStatus.COMPLETE
            assert _distinct_rows(bounded) == _distinct_rows(cold)
        # The tiny bound genuinely bit: some memo flushed.
        assert sum(server.memo.flushes for server in engine.servers.values()) > 0
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
        assert not any(
            "executor" in case["config"] or "compiled_plans" in case["config"]
            for case in cases
        )
        # The ``anchor`` draw comes after the retired knob's: these are the
        # values seeds 0..15 drew while the knob still existed.
        drawn = "".join("01"[case["query"]["anchor"]] for case in cases)
        assert drawn == "1001010001110001"

    def test_the_label_join_draw_runs_the_batched_cross_level_kernel(self, monkeypatch):
        """With the relinfon and anchor axes on, the last draw renders
        ``eval_join``'s shape: ``a.label contains r.delimiter`` is the first
        residual of the relinfon leaf, so executing it runs
        the batched kernel, and the rows stay the interpreter's."""
        from repro.disql import compile_disql
        from repro.relational import columnar

        drawn = [
            spec for spec in map(generate_case, range(64))
            if spec["query"]["relinfon"] and spec["query"]["anchor"]
            and spec["query"]["label_join"]
        ]
        assert len(drawn) == 6
        prepared = []
        matches = columnar._CrossContains.matches
        monkeypatch.setattr(
            columnar._CrossContains, "matches",
            lambda self, *args: prepared.append(self) or matches(self, *args),
        )
        for spec in drawn:
            delimiter, word = spec["query"]["delimiter"], spec["query"]["contains"]
            (step,) = compile_disql(query_texts(spec)[0]).steps
            plan = compile_node_query(step.query)
            assert plan.describe().endswith(
                "bind relinfon r\n"
                f'  selection: r.delimiter = "{delimiter}"\n'
                f'  selection: r.text contains "{word}"\n'
                "  residual: a.label contains r.delimiter"
            )
            html = _page("page", [(f"{delimiter} label", "/x.html")], [(delimiter, f"{word} text")])
            database = build_node_database(URL, html)
            rows = plan.execute_columnar(database)
            assert rows and rows == plan.execute(database)
        assert len(prepared) == len(drawn)
        assert {cross.own_is_needle for cross in prepared} == {True}

    def test_the_oracle_catches_a_batch_kernel_that_drops_a_row(self, monkeypatch):
        """The reference interprets while the servers under test compile, so
        a faulty batch kernel is a violation on a generated case — here seed
        3, whose servers compile (its old ``compiled_plans`` draw was true)."""
        from repro.relational import columnar

        specialize = columnar._specialize

        def dropping_last_match(*args):
            kernel = specialize(*args)
            if kernel is None or kernel.__name__ != "contains_kernel":
                return kernel
            return lambda *call: kernel(*call)[:-1]

        spec = generate_case(3)
        assert run_case(spec).ok
        monkeypatch.setattr(columnar, "_specialize", dropping_last_match)
        violations = run_case(spec).violations
        assert "oracle-exact" in {violation.invariant for violation in violations}

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
