"""Relations build on first read; the cost model never notices.

A :class:`~repro.model.database.NodeDatabase` holds DOCUMENT from
construction and builds ANCHOR / RELINFON when first asked.  These tests pin
the two halves of that contract: nothing is built that nobody read, and
``tuple_count()`` — what the modelled service time is computed from — is the
page's count whatever was built.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import WebDisEngine
from repro.disql import compile_disql
from repro.html.parser import resolved_links
from repro.model import LinkType
from repro.model.database import DatabaseConstructor, build_node_database
from repro.relational.compile import compile_node_query
from repro.relational.query import evaluate_node_query
from repro.testing import html_reference
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, build_campus_web, build_synthetic_web
from repro.web.campus import CAMPUS_QUERY_DISQL
from tests.test_html_parser import _WEB_FAMILIES, HOSTILE, URL


def _node_query(text: str):
    return compile_disql(text).steps[0].query


_START = '"http://site000.example/" (L|G)*3 d'
DOCUMENT_ONLY = _node_query(
    f'select d.url from document d such that {_START} where d.title contains "rich"'
)
DOCUMENT_ANCHOR = _node_query(
    f"select d.url, d.title, a.href from document d such that {_START}, anchor a"
    ' where d.title contains "rich"'
)
DOCUMENT_RELINFON = _node_query(
    f"select d.url, r.text from document d such that {_START},"
    ' relinfon r such that r.delimiter = "b"'
)

_EVALUATORS = {
    "columnar": lambda query, database: compile_node_query(query).execute_columnar(database),
    "interpreter": evaluate_node_query,
}


def _pages(family: str):
    if family == "hostile":
        return [(URL, html) for html in HOSTILE.values()]
    web = _WEB_FAMILIES[family]()
    return [(url, web.html_for(url)) for url in web.urls()]


class TestTupleCountIsThePages:
    @pytest.mark.parametrize("family", ["synthetic", "rich", "hostile"])
    def test_untouched_equals_materialised_equals_reference(self, family):
        for url, html in _pages(family):
            untouched = build_node_database(url, html)
            count = untouched.tuple_count()
            assert untouched._anchor is None and untouched._relinfon is None
            full = build_node_database(url, html)
            assert count == 1 + len(full.anchor) + len(full.relinfon) == full.tuple_count()
            reference = html_reference.parse_html(html)
            links = list(resolved_links(reference, url))
            assert count == 1 + len(links) + len(reference.relinfons)

    def test_unread_relation_is_absent_not_empty(self):
        """Nothing can see "no rows" where the page has rows: every way of
        asking for a relation builds it."""
        url, html = _pages("rich")[0]
        for read in (
            lambda db: db.anchor,
            lambda db: db.relation("anchor"),
            lambda db: db.relinfon,
            lambda db: db.relation("relinfon"),
        ):
            assert len(read(build_node_database(url, html))) > 0


class TestNothingIsBuiltUnread:
    @pytest.mark.parametrize("evaluator", _EVALUATORS)
    @pytest.mark.parametrize("query", [DOCUMENT_ONLY, DOCUMENT_ANCHOR], ids=["d", "d-x-a"])
    def test_relinfon_stays_unbuilt(self, evaluator, query):
        for url, html in _pages("rich"):
            database = build_node_database(url, html)
            assert _EVALUATORS[evaluator](query, database)
            database.tuple_count()
            database.forward_targets(LinkType.LOCAL)
            assert database._relinfon is None
            assert database._parsed._segments is None
            assert (database._anchor is None) == (query is DOCUMENT_ONLY)

    @pytest.mark.parametrize("evaluator", _EVALUATORS)
    def test_a_relinfon_query_builds_no_anchor_label(self, evaluator):
        for url, html in _pages("rich"):
            database = build_node_database(url, html)
            assert _EVALUATORS[evaluator](DOCUMENT_RELINFON, database)
            database.tuple_count()
            assert database._anchor is None
            assert database._parsed._labels is None

    def test_site_documents_builds_neither(self):
        web = _WEB_FAMILIES["rich"]()
        constructor = DatabaseConstructor()
        site = web.site("rich0.example")
        assert len(constructor.site_documents(site)) == len(site.pages)
        for path, page in site.pages.items():
            database = constructor.construct(site.url_of(path), page.html)
            assert database._anchor is None and database._relinfon is None

    def test_everything_read_drops_the_runs_and_marks(self):
        url, html = _pages("rich")[0]
        database = build_node_database(url, html)
        parsed = database._parsed
        database.relinfon
        assert parsed._runs is not None and parsed._segment_spans is not None  # labels pending
        database.anchor
        assert parsed._runs is parsed._label_spans is parsed._segment_spans is None
        assert database.tuple_count() == 1 + len(database.anchor) + len(database.relinfon)


# -- the cost model did not move ------------------------------------------------
#
# Captured at the last commit that built all three relations of every page
# eagerly: a database that counted only what it had built would report fewer
# tuples scanned, and every modelled service time below would shrink.


def _pin(web, text):
    engine = WebDisEngine(web, trace=True)
    handle = engine.run_query(text)
    return (
        handle.status.name,
        handle.completion_time,
        sorted(engine.stats.processing_by_site.items()),
        len(engine.tracer.events),
        hashlib.sha256(repr(engine.tracer.events).encode()).hexdigest(),
    )


class TestCostModelDidNotMove:
    def test_campus_run(self):
        assert _pin(build_campus_web(), CAMPUS_QUERY_DISQL) == (
            "COMPLETE",
            0.190759453125,
            [
                ("dsl.serc.iisc.ernet.in", 0.0124716796875),
                ("www-compiler.csa.iisc.ernet.in", 0.009212890625000001),
                ("www.csa.iisc.ernet.in", 0.0148677734375),
                ("www2.csa.iisc.ernet.in", 0.0059873046875),
            ],
            31,
            "6d955aee88163aac94f40c0dbb4263c495ec05361d8f02cd3826a03ae8293e88",
        )

    def test_synthetic_run_that_never_reads_relinfon(self):
        web = build_synthetic_web(
            SyntheticWebConfig(
                sites=8, pages_per_site=6, local_out_degree=3,
                global_out_degree=2, padding_words=50,
            )
        )
        text = (
            'select d.url, d.title, a.href from document d such that '
            '"http://site000.example/" (L|G)*3 d, anchor a where d.title contains "topic"'
        )
        assert _pin(web, text) == (
            "COMPLETE",
            0.40563859375000005,
            [
                ("site000.example", 0.05632734375000001),
                ("site001.example", 0.05219765625),
                ("site002.example", 0.058153125),
                ("site003.example", 0.031674609375),
                ("site004.example", 0.041434375),
                ("site005.example", 0.0324755859375),
                ("site006.example", 0.0237103515625),
                ("site007.example", 0.045556250000000006),
            ],
            155,
            "6f2c9579929a5e204a028d67298e185f5c1ee07469b413e009e1a7001ef3510d",
        )


def test_resolved_links_positions_index_the_anchors():
    parsed = html_reference.parse_html(
        '<a href="">skipped</a><a href="/x">kept</a><a href="#f">also</a>'
    )
    url = parse_url("http://a.example/p")
    assert [
        (parsed.anchors[position].label, str(href), symbol)
        for position, href, symbol in resolved_links(parsed, url)
    ] == [("kept", "http://a.example/x", "L"), ("also", "http://a.example/p#f", "I")]
