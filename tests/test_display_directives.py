"""DISQL display directives: select distinct and order by."""

from __future__ import annotations

import pytest

from repro import WebDisEngine
from repro.disql import compile_disql, format_disql, parse_disql
from repro.errors import DisqlSemanticsError, DisqlSyntaxError
from repro.relational.expr import Attr
from repro.web import build_figure5_web
from repro.web.builders import WebBuilder
from repro.wire import decode_message, encode_message
from repro.core.webquery import QueryClone
from repro.urlutils import parse_url


def _web():
    builder = WebBuilder()
    builder.site("hub.example").page(
        "/",
        title="hub",
        links=[
            ("c", "http://c.example/"),
            ("a", "http://a.example/"),
            ("b", "http://b.example/"),
        ],
    )
    for name in ("a", "b", "c"):
        builder.site(f"{name}.example").page("/", title=f"{name} topic page")
    return builder.build()


QUERY = (
    'select{distinct} d.url, d.title\n'
    'from document d such that "http://hub.example/" G d\n'
    'where d.title contains "topic"\n'
    "{order}"
)


class TestParsing:
    def test_distinct_parsed(self):
        query = parse_disql(QUERY.format(distinct=" distinct", order=""))
        assert query.distinct

    def test_order_by_parsed(self):
        query = parse_disql(QUERY.format(distinct="", order="order by d.url desc"))
        assert query.order_by == ((Attr("d", "url"), True),)

    def test_order_by_multiple_keys(self):
        query = parse_disql(
            QUERY.format(distinct="", order="order by d.title asc, d.url desc")
        )
        assert query.order_by == ((Attr("d", "title"), False), (Attr("d", "url"), True))

    def test_order_by_must_be_last(self):
        with pytest.raises(DisqlSyntaxError):
            parse_disql(
                'select d.url from document d such that "http://x.example/" L d\n'
                "order by d.url\n"
                "anchor a"
            )

    def test_order_by_unknown_alias_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            compile_disql(QUERY.format(distinct="", order="order by z.url"))

    def test_formatter_round_trip(self):
        text = QUERY.format(distinct=" distinct", order="order by d.url desc")
        parsed = parse_disql(text)
        assert parse_disql(format_disql(parsed)) == parsed

    def test_wire_round_trip(self):
        webquery = compile_disql(
            QUERY.format(distinct=" distinct", order="order by d.url desc")
        )
        clone = QueryClone(
            webquery, 0, webquery.steps[0].pre, (parse_url("http://hub.example/"),)
        )
        decoded = decode_message(encode_message(clone))
        assert decoded.query.display_distinct
        assert decoded.query.display_order == (("d.url", True),)


class TestExecution:
    def test_order_by_sorts_display(self):
        engine = WebDisEngine(_web())
        handle = engine.run_query(QUERY.format(distinct="", order="order by d.url"))
        urls = [r.values[0] for r in handle.display_rows("q1")]
        assert urls == sorted(urls)

    def test_order_by_desc(self):
        engine = WebDisEngine(_web())
        handle = engine.run_query(QUERY.format(distinct="", order="order by d.url desc"))
        urls = [r.values[0] for r in handle.display_rows("q1")]
        assert urls == sorted(urls, reverse=True)

    def test_distinct_collapses_duplicates(self):
        # Figure-5 web without the log table produces duplicate rows; the
        # distinct directive collapses them at display time.
        from repro import EngineConfig
        from repro.web.figures import FIGURE5_START_URL, figure_query_disql

        disql = "select distinct" + figure_query_disql(FIGURE5_START_URL).lstrip()[6:]
        engine = WebDisEngine(
            build_figure5_web(), config=EngineConfig(log_table_enabled=False)
        )
        handle = engine.run_query(disql)
        assert len(handle.rows("q2")) > len(handle.display_rows("q2"))

    def test_display_table_applies_order(self):
        engine = WebDisEngine(_web())
        handle = engine.run_query(QUERY.format(distinct="", order="order by d.url desc"))
        table = handle.display_table()
        first_data_row = table.splitlines()[4]
        assert "c.example" in first_data_row

    def test_order_by_across_steps_reads_each_rows_own_header(self):
        # Unlabelled rows mix q1 (d.url, d.title) and q2 (e.title): the key
        # is read from each row's header, and q2 rows, which lack it, keep
        # their arrival places.
        builder = WebBuilder()
        builder.site("hub.example").page(
            "/", title="hub", links=[(n, f"http://{n}.example/") for n in "cab"]
        )
        for name in "abc":
            builder.site(f"{name}.example").page(
                "/", title=f"{name} topic page", links=[("z", f"http://z{name}.example/")]
            )
            builder.site(f"z{name}.example").page("/", title=f"z{name} leaf")
        handle = WebDisEngine(builder.build()).run_query(
            "select d.url, d.title, e.title\n"
            'from document d such that "http://hub.example/" G d\n'
            'where d.title contains "topic"\n'
            "     document e such that d G e\n"
            "order by d.title desc"
        )
        arrived = handle.rows()
        shown = handle.display_rows()
        assert [row.header for row in shown] == [row.header for row in arrived]
        titles = [row.values[1] for row in shown if row.header == ("d.url", "d.title")]
        assert titles == ["c topic page", "b topic page", "a topic page"]
        assert [row for row in shown if row.header == ("e.title",)] == handle.rows("q2")

    def test_no_directives_unchanged(self):
        engine = WebDisEngine(_web())
        handle = engine.run_query(QUERY.format(distinct="", order=""))
        assert not handle.query.display_distinct
        assert handle.query.display_order == ()


class TestSelectAll:
    def test_parses(self):
        query = parse_disql(
            'select * from document d such that "http://hub.example/" G d'
        )
        assert query.select_all and query.select == ()

    def test_expands_to_all_attributes(self):
        webquery = compile_disql(
            'select * from document d such that "http://hub.example/" G d, anchor a'
        )
        header = webquery.steps[0].query.header
        assert header == (
            "d.url", "d.title", "d.text", "d.length",
            "a.label", "a.base", "a.href", "a.ltype",
        )

    def test_expands_across_steps(self):
        webquery = compile_disql(
            "select *\n"
            'from document d such that "http://hub.example/" G d\n'
            'where d.title contains "topic"\n'
            "     document e such that d G e"
        )
        assert webquery.steps[0].query.header == ("d.url", "d.title", "d.text", "d.length")
        assert webquery.steps[1].query.header == ("e.url", "e.title", "e.text", "e.length")

    def test_end_to_end(self):
        engine = WebDisEngine(_web())
        handle = engine.run_query(
            'select * from document d such that "http://hub.example/" G d\n'
            'where d.title contains "topic"'
        )
        (row, *rest) = handle.unique_rows("q1")
        assert "d.text" in row.header
        assert len(rest) == 2

    def test_select_distinct_star(self):
        query = parse_disql(
            'select distinct * from document d such that "http://hub.example/" G d'
        )
        assert query.distinct and query.select_all

    def test_formatter_round_trip(self):
        text = 'select * from document d such that "http://hub.example/" G d'
        parsed = parse_disql(text)
        assert parse_disql(format_disql(parsed)) == parsed
