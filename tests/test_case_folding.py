"""Case folding for ``contains``: the folded kernels against the interpreter.

:meth:`Table.folded` lowers a column once per table, and the batch kernels
that read it — ``contains_kernel`` for a literal needle, ``_CrossContains``
for attribute-in-attribute — lower nothing per execution.  They replaced
kernels that lowered every selected cell per execution and raised on a
selected non-``str`` cell, which sent the run to the interpreter replay.
The folded kernels must give the interpreter's rows and error class, with a
replay exactly where the per-row kernels (restated below as the oracle)
raised: on case-sensitive lowerings (``'Σ'``, ``'İ'``, ``'ß'``), ``str``
subclasses, non-``str`` cells at selected and unselected positions, the
empty needle and needles that contain the join separator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA
from repro.net.stats import TrafficStats
from repro.relational.compile import compile_node_query
from repro.relational.expr import And, Attr, Compare, Contains, Literal
from repro.relational.query import NodeQuery, TableDecl, evaluate_node_query
from repro.relational.table import FOLD_SEPARATOR, Table

URL = "http://a.example/page.html"


class _Sub(str):
    """A ``str`` subclass that lowers as ``str`` does."""


class _Reversed(str):
    """A ``str`` subclass with its own ``lower``: every evaluator calls it."""

    def lower(self):
        return str.lower(self)[::-1]


_CELLS = [
    "ΑΣ", "ΣΑ", "ΟΔΟΣ ΑΣ", "σ", "ς", "Σ", "İ", "İstanbul", "i̇", "i", "ß", "SS", "Straße",
    "STRASSE", "MiXeD Case", "mixed case", "", "a" + FOLD_SEPARATOR + "b", FOLD_SEPARATOR, "ǅ",
]
_NON_STR = [5, None, b"bytes", 1.5]
_NEEDLES = [
    "", "σ", "Σ", "ς", "ας", "ss", "SS", "ß", "İ", "i̇", "i", "mixed", "zzz",
    FOLD_SEPARATOR, "a" + FOLD_SEPARATOR + "b", "b" + FOLD_SEPARATOR, "ς" + FOLD_SEPARATOR + "σ",
]

_strings = st.one_of(
    st.sampled_from(_CELLS),
    st.sampled_from(_CELLS).map(_Sub),
    st.sampled_from(_CELLS).map(_Reversed),
)
_cells = st.one_of(_strings, _strings, _strings, st.sampled_from(_NON_STR))


def _per_row_contains(needle, column, sel):
    """The kernel the folded one replaced: every selected cell lowered per
    execution (a non-``str`` cell raises out of ``.lower()`` or ``in``)."""
    return [i for i in sel if needle.lower() in column[i].lower()]


def _per_binding_contains(own_is_needle, own, outer, selected, bindings):
    """The cross-level kernel the folded one replaced, for every binding."""
    lowered = []
    for i in selected:
        if not isinstance(own[i], str):
            raise EvaluationError("contains requires string operands")
        lowered.append((i, own[i].lower()))
    for binding in bindings:
        value = outer[binding]
        if not isinstance(value, str):
            raise EvaluationError("contains requires string operands")
        value = value.lower()
        [i for i, v in lowered if (v in value if own_is_needle else value in v)]


def _raises(call):
    try:
        call()
    except Exception:
        return True
    return False


def _outcome(run):
    try:
        return [row.values for row in run()]
    except EvaluationError as exc:
        return (type(exc), str(exc))


class _Database:
    def __init__(self, **tables):
        self._tables = tables

    def relation(self, name):
        return self._tables[name]


def _database(stats, texts=(), delimiters=None, labels=()):
    delimiters = delimiters or ["b"] * len(texts)
    return _Database(
        document=Table(DOCUMENT_SCHEMA, [(URL, "a title", "text", 4)], stats=stats),
        anchor=Table(
            ANCHOR_SCHEMA, [(label, URL, URL + "#x", "I") for label in labels], stats=stats
        ),
        relinfon=Table(
            RELINFON_SCHEMA,
            [(delimiter, URL, text, 1) for delimiter, text in zip(delimiters, texts)],
            stats=stats,
        ),
    )


def _query(select, where, tables):
    aliases = {"document": "d", "anchor": "a", "relinfon": "r"}
    return NodeQuery(
        select=tuple(select),
        tables=tuple(TableDecl(name, aliases[name]) for name in tables),
        where=where,
    )


def _check(query, database, stats, replays):
    """The batch against the interpreter, and the replay count against the
    per-row oracle's."""
    plan = compile_node_query(query)
    # The same plan twice: the first execution folds, the second reads the folds.
    for __ in range(2):
        stats.plan_replays = 0
        assert _outcome(lambda: plan.execute_columnar(database)) == _outcome(
            lambda: evaluate_node_query(query, database)
        )
        assert stats.plan_replays == replays


class TestLiteralNeedle:
    @given(
        st.lists(st.tuples(st.sampled_from("bi"), _cells), max_size=8),
        st.sampled_from(_NEEDLES),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_rows_errors_and_replays_are_the_per_row_kernels(self, rows, needle, narrowed):
        """With ``narrowed`` the ``contains`` runs after ``r.delimiter =
        "b"``, so a non-``str`` cell of an ``i`` row is never selected."""
        stats = TrafficStats()
        delimiters = [delimiter for delimiter, __ in rows]
        texts = [text for __, text in rows]
        database = _database(stats, texts, delimiters)
        contains = Contains(Attr("r", "text"), Literal(needle))
        where = And(Compare("=", Attr("r", "delimiter"), Literal("b")), contains)
        where = where if narrowed else And(contains, where.left)
        selected = range(len(texts))
        if narrowed:
            selected = [i for i, delimiter in enumerate(delimiters) if delimiter == "b"]
        replays = int(_raises(lambda: _per_row_contains(needle, texts, selected)))
        query = _query([Attr("r", "text")], where, ("document", "relinfon"))
        _check(query, database, stats, replays)


class TestCrossLevel:
    @pytest.mark.parametrize("own_is_needle", [True, False])
    @given(
        labels=st.lists(_cells, max_size=5),
        texts=st.lists(_cells, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_errors_and_replays_are_the_per_binding_kernels(
        self, own_is_needle, labels, texts
    ):
        stats = TrafficStats()
        if own_is_needle:  # a.label contains r.text
            where = Contains(Attr("a", "label"), Attr("r", "text"))
        else:  # r.text contains a.label
            where = Contains(Attr("r", "text"), Attr("a", "label"))
        database = _database(stats, texts, labels=labels)
        replays = 0
        if labels and texts:
            replays = int(_raises(lambda: _per_binding_contains(
                own_is_needle, texts, labels, range(len(texts)), range(len(labels))
            )))
        query = _query(
            [Attr("a", "label"), Attr("r", "text")], where, ("document", "anchor", "relinfon")
        )
        assert "  residual: " in compile_node_query(query).describe()
        _check(query, database, stats, replays)


class TestFoldedColumn:
    def test_the_text_joins_folded_cells_and_is_never_folded_itself(self):
        """``str.lower`` reads context: run together, the final sigma of
        ``"ΑΣ"`` is not final.  A text folded after joining could miss a
        needle that is in a folded cell; joining folded cells cannot."""
        cells = ["ΑΣ", "Β"]
        assert "".join(cells).lower() == "ασβ"
        assert "".join(cell.lower() for cell in cells) == "ας" + "β"
        stats = TrafficStats()
        database = _database(stats, cells)
        folded = database.relation("relinfon").folded(RELINFON_SCHEMA.position("text"))
        assert folded == (["ας", "β"], "ας" + FOLD_SEPARATOR + "β")
        where = Contains(Attr("r", "text"), Literal("ας"))
        query = _query([Attr("r", "text")], where, ("document", "relinfon"))
        assert compile_node_query(query).execute_columnar(database) == evaluate_node_query(
            query, database
        )
        assert [row.values for row in evaluate_node_query(query, database)] == [("ΑΣ",)]

    def test_a_cell_that_lowers_to_itself_is_kept_not_copied(self):
        cells = ["already lower", "Mixed", _Sub("sub")]
        folded = Table(RELINFON_SCHEMA, [("b", URL, cell, 1) for cell in cells]).folded(2)
        assert folded.column[0] is cells[0]
        assert folded.column[1] == "mixed"
        # A subclass is kept as its own lower() returns it, never as itself.
        assert type(folded.column[2]) is str
        # An already-lower column is the table's own.
        table = Table(RELINFON_SCHEMA, [("b", URL, cell, 1) for cell in ("x", "y z")])
        assert table.folded(2).column is table.columns()[2]

    def test_a_non_str_cell_leaves_no_text(self):
        table = Table(RELINFON_SCHEMA, [("b", URL, "x", 1), ("b", URL, 5, 1)])
        assert table.folded(2) == (["x", None], None)

    def test_insert_drops_the_folds(self):
        table = Table(RELINFON_SCHEMA, [("b", URL, "Old", 1)])
        assert table.folded(2).text == "old"
        table.insert(("b", URL, "New", 1))
        assert table.folded(2) == (["old", "new"], "old" + FOLD_SEPARATOR + "new")
