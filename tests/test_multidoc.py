"""Multi-document node-queries (§7.1 footnote 2 — the sitewide extension)."""

from __future__ import annotations

import pytest

from repro import QueryStatus, WebDisEngine
from repro.baselines import DataShippingEngine, HybridEngine
from repro.disql import compile_disql, format_disql, parse_disql
from repro.errors import DisqlSemanticsError, DisqlSyntaxError
from repro.model.database import DatabaseConstructor, build_node_database
from repro.relational.expr import Attr, Compare, Literal
from repro.relational.query import NodeQuery, TableDecl, evaluate_node_query
from repro.urlutils import parse_url
from repro.web.builders import WebBuilder
from repro.wire import decode_message, encode_message
from repro.core.webquery import QueryClone


def _dept_web():
    """Two department sites; pages reference a sitewide 'contact' page.

    The query: find pages whose title mentions 'projects', and — at the
    same site — the site's contact page (a second document alias).
    """
    builder = WebBuilder()
    for name in ("alpha", "beta"):
        site = builder.site(f"{name}.example")
        site.page(
            "/",
            title=f"{name} department",
            links=[("projects", "/projects.html"), ("contact", "/contact.html")],
        )
        site.page(
            "/projects.html",
            title=f"{name} projects overview",
            paragraphs=["Ongoing research projects."],
        )
        site.page(
            "/contact.html",
            title=f"contact the {name} office",
            paragraphs=[f"Write to office@{name}.example."],
        )
    return builder.build()


MULTIDOC_QUERY = (
    "select d.url, e.url, e.title\n"
    'from document d such that "http://alpha.example/" | "http://beta.example/" L*1 d,\n'
    "     document e such that sitewide\n"
    'where d.title contains "projects" and e.title contains "contact"'
)


class TestRelationalLayer:
    URL = parse_url("http://alpha.example/projects.html")

    def _site_table(self):
        return DatabaseConstructor().site_documents(_dept_web().site("alpha.example"))

    def _db(self):
        web = _dept_web()
        return build_node_database(self.URL, web.html_for(self.URL))

    def test_sitewide_join(self):
        query = NodeQuery(
            select=(Attr("d", "url"), Attr("e", "url")),
            tables=(TableDecl("document", "d"), TableDecl("document", "e")),
            where=Compare("=", Attr("e", "title"), Literal("contact the alpha office")),
            sitewide_aliases=("e",),
        )
        rows = evaluate_node_query(query, self._db(), self._site_table())
        assert [r.values for r in rows] == [
            (
                "http://alpha.example/projects.html",
                "http://alpha.example/contact.html",
            )
        ]

    def test_sitewide_without_table_raises(self):
        query = NodeQuery(
            select=(Attr("e", "url"),),
            tables=(TableDecl("document", "e"),),
            sitewide_aliases=("e",),
        )
        with pytest.raises(DisqlSemanticsError):
            evaluate_node_query(query, self._db(), None)

    def test_undeclared_sitewide_alias_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(
                select=(Attr("d", "url"),),
                tables=(TableDecl("document", "d"),),
                sitewide_aliases=("z",),
            )

    def test_non_document_sitewide_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            NodeQuery(
                select=(Attr("a", "href"),),
                tables=(TableDecl("anchor", "a"),),
                sitewide_aliases=("a",),
            )

    def test_documents_table_one_row_per_page(self):
        assert len(self._site_table()) == 3


class TestDisqlSurface:
    def test_parse_sitewide(self):
        query = parse_disql(MULTIDOC_QUERY)
        decls = query.subqueries[0].decls
        assert decls[1].sitewide and decls[1].alias == "e"

    def test_translate_sets_aliases(self):
        webquery = compile_disql(MULTIDOC_QUERY)
        assert webquery.steps[0].query.sitewide_aliases == ("e",)

    def test_sitewide_on_relinfon_rejected(self):
        with pytest.raises(DisqlSyntaxError):
            parse_disql(
                'select r.text from document d such that "http://a.example/" L d,\n'
                "     relinfon r such that sitewide"
            )

    def test_formatter_round_trip(self):
        parsed = parse_disql(MULTIDOC_QUERY)
        assert parse_disql(format_disql(parsed)) == parsed

    def test_wire_round_trip(self):
        webquery = compile_disql(MULTIDOC_QUERY)
        clone = QueryClone(
            webquery, 0, webquery.steps[0].pre, (parse_url("http://alpha.example/"),)
        )
        decoded = decode_message(encode_message(clone))
        assert decoded == clone
        assert decoded.query.steps[0].query.sitewide_aliases == ("e",)


class TestEndToEnd:
    EXPECTED = {
        (
            "http://alpha.example/projects.html",
            "http://alpha.example/contact.html",
            "contact the alpha office",
        ),
        (
            "http://beta.example/projects.html",
            "http://beta.example/contact.html",
            "contact the beta office",
        ),
    }

    def test_distributed(self):
        engine = WebDisEngine(_dept_web())
        handle = engine.run_query(MULTIDOC_QUERY)
        assert handle.status is QueryStatus.COMPLETE
        assert {r.values for r in handle.unique_rows()} == self.EXPECTED

    def test_data_shipping_agrees(self):
        result = DataShippingEngine(_dept_web()).run_query(MULTIDOC_QUERY)
        assert {r.values for r in result.unique_rows()} == self.EXPECTED

    def test_hybrid_agrees_at_zero_participation(self):
        hybrid = HybridEngine(_dept_web(), [])
        handle = hybrid.run_query(MULTIDOC_QUERY)
        assert handle.status is QueryStatus.COMPLETE
        assert {r.values for r in handle.unique_rows()} == self.EXPECTED

    def test_every_engine_charges_the_site_table_parses(self):
        """One ``site_documents`` method: same parse count everywhere."""
        web = _dept_web()
        engines = (WebDisEngine(web), HybridEngine(web, []), DataShippingEngine(web))
        for engine in engines:
            engine.run_query(MULTIDOC_QUERY)
        assert len({engine.stats.documents_parsed for engine in engines}) == 1

    def test_join_stays_site_local(self):
        """alpha's projects page must never join with beta's contact page."""
        engine = WebDisEngine(_dept_web())
        handle = engine.run_query(MULTIDOC_QUERY)
        for row in handle.unique_rows():
            d_host = row.values[0].split("://")[1].split("/")[0]
            e_host = row.values[1].split("://")[1].split("/")[0]
            assert d_host == e_host
