"""Tests for the relational engine: schemas, tables, expressions, queries."""

from __future__ import annotations

import pytest

from repro.errors import DisqlSemanticsError, EvaluationError, SchemaError
from repro.html.generator import PageSpec, render_page
from repro.model.database import build_node_database
from repro.relational import (
    And,
    Attr,
    Compare,
    Contains,
    Literal,
    NodeQuery,
    Not,
    Or,
    Schema,
    Table,
    TableDecl,
    evaluate,
    evaluate_node_query,
)
from repro.relational.expr import TRUE, attrs_referenced, conjoin, conjuncts
from repro.urlutils import parse_url


class TestSchema:
    def test_position(self):
        schema = Schema("t", ("a", "b", "c"))
        assert schema.position("b") == 1

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            Schema("t", ("a",)).position("z")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema("t", ())

    def test_contains(self):
        assert "a" in Schema("t", ("a",))
        assert "z" not in Schema("t", ("a",))

    def test_equality_and_hash(self):
        assert Schema("t", ("a",)) == Schema("t", ("a",))
        assert hash(Schema("t", ("a",))) == hash(Schema("t", ("a",)))


class TestTable:
    SCHEMA = Schema("t", ("x", "y"))

    def test_insert_and_len(self):
        table = Table(self.SCHEMA, [(1, 2), (3, 4)])
        assert len(table) == 2

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            Table(self.SCHEMA).insert((1,))
        with pytest.raises(SchemaError):
            Table(self.SCHEMA, [(1, 2), (3,)])  # bulk load checks every row

    def test_column(self):
        table = Table(self.SCHEMA, [(1, "a"), (2, "b")])
        assert table.column("y") == ["a", "b"]

    def test_rows_in_insertion_order(self):
        table = Table(self.SCHEMA, [(2, 0), (1, 0)])
        assert [r[0] for r in table.rows()] == [2, 1]

    @pytest.mark.parametrize(
        "columns",
        [
            ([1, 2],),  # too few
            ([1, 2], ["a", "b"], [0, 0]),  # too many
            ([1, 2], ["a"]),  # ragged
            ([], ["a"]),
        ],
    )
    def test_from_columns_keeps_the_arity_guarantee(self, columns):
        with pytest.raises(SchemaError):
            Table.from_columns(self.SCHEMA, columns)

    @pytest.mark.parametrize("rows", [[], [(1, "a")], [(1, "a"), (2, "b"), (1, "c")]])
    def test_from_columns_is_the_table_built_from_rows(self, rows):
        def views(table):
            return (
                len(table), table.row_list(), list(table.rows()), table.columns(),
                table.column("y"), table.index(0).buckets, repr(table),
            )

        by_rows = Table(self.SCHEMA, rows)
        by_columns = Table.from_columns(
            self.SCHEMA, ([row[0] for row in rows], [row[1] for row in rows])
        )
        assert len(by_columns) == len(rows)  # before any other view exists
        assert views(by_columns) == views(by_rows)
        for table in (by_rows, by_columns):
            table.insert((1, "z"))
            with pytest.raises(SchemaError):
                table.insert((1,))
        assert views(by_columns) == views(by_rows)
        assert by_columns.row_list()[-1] == (1, "z")
        assert by_columns.index(0).probe(1)[-1] == len(rows)


BINDINGS = {"d": {"title": "Laboratories", "length": 120}, "a": {"ltype": "G"}}


class TestExpressions:
    def test_literal(self):
        assert evaluate(Literal(5), {}) == 5

    def test_attr(self):
        assert evaluate(Attr("d", "title"), BINDINGS) == "Laboratories"

    def test_unknown_alias(self):
        with pytest.raises(EvaluationError):
            evaluate(Attr("z", "title"), BINDINGS)

    def test_unknown_attribute(self):
        with pytest.raises(EvaluationError):
            evaluate(Attr("d", "nope"), BINDINGS)

    @pytest.mark.parametrize(
        "op,right,expected",
        [("=", "G", True), ("!=", "G", False), ("=", "L", False)],
    )
    def test_compare_strings(self, op, right, expected):
        expr = Compare(op, Attr("a", "ltype"), Literal(right))
        assert evaluate(expr, BINDINGS) is expected

    @pytest.mark.parametrize(
        "op,right,expected",
        [("<", 200, True), (">", 200, False), ("<=", 120, True), (">=", 121, False)],
    )
    def test_compare_numbers(self, op, right, expected):
        expr = Compare(op, Attr("d", "length"), Literal(right))
        assert evaluate(expr, BINDINGS) is expected

    def test_compare_number_with_numeric_string(self):
        expr = Compare(">", Attr("d", "length"), Literal("100"))
        assert evaluate(expr, BINDINGS) is True

    def test_invalid_operator_rejected_at_construction(self):
        with pytest.raises(EvaluationError):
            Compare("==", Literal(1), Literal(1))

    def test_contains_case_insensitive(self):
        expr = Contains(Attr("d", "title"), Literal("LAB"))
        assert evaluate(expr, BINDINGS) is True

    def test_contains_paper_example(self):
        # Figure 8: "CONVENER Jayant Haritsa" matches contains "convener".
        expr = Contains(Literal("CONVENER Jayant Haritsa"), Literal("convener"))
        assert evaluate(expr, {}) is True

    def test_contains_negative(self):
        expr = Contains(Attr("d", "title"), Literal("zzz"))
        assert evaluate(expr, BINDINGS) is False

    def test_contains_requires_strings(self):
        with pytest.raises(EvaluationError):
            evaluate(Contains(Attr("d", "length"), Literal("1")), BINDINGS)

    def test_and_or_not(self):
        t = Compare("=", Attr("a", "ltype"), Literal("G"))
        f = Compare("=", Attr("a", "ltype"), Literal("L"))
        assert evaluate(And(t, t), BINDINGS) is True
        assert evaluate(And(t, f), BINDINGS) is False
        assert evaluate(Or(f, t), BINDINGS) is True
        assert evaluate(Not(f), BINDINGS) is True

    def test_str_rendering(self):
        expr = And(Contains(Attr("r", "text"), Literal("x")), Literal(True))
        assert "contains" in str(expr)

    def test_attrs_referenced(self):
        expr = And(
            Compare("=", Attr("a", "x"), Attr("b", "y")),
            Not(Contains(Attr("c", "z"), Literal("s"))),
        )
        assert attrs_referenced(expr) == {Attr("a", "x"), Attr("b", "y"), Attr("c", "z")}

    def test_conjuncts_flatten(self):
        a, b, c = Literal(1), Literal(2), Literal(3)
        assert conjuncts(And(And(a, b), c)) == [a, b, c]

    def test_conjoin_empty_is_true(self):
        assert conjoin([]) == TRUE


def _campus_people_db():
    spec = PageSpec(
        title="Database Systems Lab People",
        ruled=["CONVENER Jayant Haritsa"],
        links=[("home", "/"), ("IISc", "http://www.iisc.ernet.in/")],
    )
    url = parse_url("http://dsl.serc.iisc.ernet.in/people")
    return build_node_database(url, render_page(spec))


class TestNodeQuery:
    def test_select_from_document(self):
        query = NodeQuery(
            select=(Attr("d", "url"), Attr("d", "title")),
            tables=(TableDecl("document", "d"),),
            label="q1",
        )
        rows = evaluate_node_query(query, _campus_people_db())
        assert len(rows) == 1
        assert rows[0].values[1] == "Database Systems Lab People"

    def test_where_filters(self):
        query = NodeQuery(
            select=(Attr("a", "href"),),
            tables=(TableDecl("anchor", "a"),),
            where=Compare("=", Attr("a", "ltype"), Literal("G")),
        )
        rows = evaluate_node_query(query, _campus_people_db())
        assert [r.values[0] for r in rows] == ["http://www.iisc.ernet.in/"]

    def test_cross_product_join(self):
        query = NodeQuery(
            select=(Attr("d", "url"), Attr("r", "text")),
            tables=(TableDecl("document", "d"), TableDecl("relinfon", "r")),
            where=And(
                Compare("=", Attr("r", "delimiter"), Literal("hr")),
                Contains(Attr("r", "text"), Literal("convener")),
            ),
        )
        rows = evaluate_node_query(query, _campus_people_db())
        assert len(rows) == 1
        assert rows[0].values[1] == "CONVENER Jayant Haritsa"

    def test_failed_query_returns_empty(self):
        query = NodeQuery(
            select=(Attr("d", "url"),),
            tables=(TableDecl("document", "d"),),
            where=Contains(Attr("d", "title"), Literal("no-such-word")),
        )
        assert evaluate_node_query(query, _campus_people_db()) == []

    def test_header_qualified_names(self):
        query = NodeQuery(
            select=(Attr("d", "url"),), tables=(TableDecl("document", "d"),)
        )
        assert query.header == ("d.url",)

    def test_result_row_mapping(self):
        query = NodeQuery(
            select=(Attr("d", "title"),), tables=(TableDecl("document", "d"),)
        )
        (row,) = evaluate_node_query(query, _campus_people_db())
        assert row.as_mapping() == {"d.title": "Database Systems Lab People"}

    def test_empty_select_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(select=(), tables=(TableDecl("document", "d"),))

    def test_no_tables_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(select=(Attr("d", "url"),), tables=())

    def test_duplicate_alias_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(
                select=(Attr("d", "url"),),
                tables=(TableDecl("document", "d"), TableDecl("anchor", "d")),
            )

    def test_undeclared_select_alias_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(select=(Attr("z", "url"),), tables=(TableDecl("document", "d"),))

    def test_undeclared_where_alias_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(
                select=(Attr("d", "url"),),
                tables=(TableDecl("document", "d"),),
                where=Compare("=", Attr("z", "x"), Literal(1)),
            )

    def test_unknown_relation_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            TableDecl("bogus", "b")

    def test_str_round_readable(self):
        query = NodeQuery(
            select=(Attr("d", "url"),),
            tables=(TableDecl("document", "d"),),
            where=Contains(Attr("d", "title"), Literal("lab")),
        )
        text = str(query)
        assert text.startswith("select d.url from document d where")
