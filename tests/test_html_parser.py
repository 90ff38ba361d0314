"""Tests for HTML document analysis (title, text, anchors, rel-infons)."""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryStatus, WebDisEngine
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.html.parser import parse_html
from repro.html.tokenizer import tokenize
from repro.model.database import build_node_database
from repro.urlutils import parse_url
from repro.web.builders import WebBuilder


class TestTitleAndText:
    def test_title_extracted(self):
        doc = parse_html("<html><head><title>My Page</title></head><body>x</body></html>")
        assert doc.title == "My Page"

    def test_title_not_in_text(self):
        doc = parse_html("<title>Secret</title><body>visible</body>")
        assert "Secret" not in doc.text
        assert doc.text == "visible"

    def test_missing_title_is_empty(self):
        assert parse_html("<body>hi</body>").title == ""

    def test_text_whitespace_normalized(self):
        doc = parse_html("<body>a\n   b\t c</body>")
        assert doc.text == "a b c"

    def test_script_and_style_invisible(self):
        doc = parse_html("<script>var x;</script><style>.a{}</style>ok")
        assert doc.text == "ok"

    def test_entities_decoded_in_text(self):
        assert parse_html("<body>&lt;tag&gt;</body>").text == "<tag>"


class TestAnchors:
    def test_single_anchor(self):
        doc = parse_html('<a href="x.html">Click</a>')
        assert doc.anchors == (type(doc.anchors[0])("Click", "x.html"),)

    def test_label_whitespace_normalized(self):
        doc = parse_html('<a href="x">  multi\n word  </a>')
        assert doc.anchors[0].label == "multi word"

    def test_anchor_order_preserved(self):
        doc = parse_html('<a href="1">a</a><a href="2">b</a>')
        assert [a.href for a in doc.anchors] == ["1", "2"]

    def test_anchor_without_href_skipped(self):
        assert parse_html('<a name="top">x</a>').anchors == ()

    def test_anchor_label_in_document_text(self):
        doc = parse_html('before <a href="x">link</a> after')
        assert doc.text == "before link after"

    def test_nested_markup_in_label(self):
        doc = parse_html('<a href="x"><b>bold</b> link</a>')
        assert doc.anchors[0].label == "bold link"


class TestRelInfons:
    def test_container_segment(self):
        doc = parse_html("<b>Important</b>")
        assert ("b", "Important") in [(r.delimiter, r.text) for r in doc.relinfons]

    def test_hr_takes_preceding_block(self):
        doc = parse_html("<p>intro</p>CONVENER Jayant Haritsa<hr>")
        hr = [r for r in doc.relinfons if r.delimiter == "hr"]
        assert hr and hr[0].text == "CONVENER Jayant Haritsa"

    def test_hr_block_reset_by_paragraph(self):
        doc = parse_html("<p>old text</p><p>fresh</p>name<hr>")
        hr = [r for r in doc.relinfons if r.delimiter == "hr"]
        # The <p> boundaries cut "old text"/"fresh" out of the hr block.
        assert hr[0].text == "name"

    def test_consecutive_hrs_second_empty_skipped(self):
        doc = parse_html("text<hr><hr>")
        assert len([r for r in doc.relinfons if r.delimiter == "hr"]) == 1

    def test_heading_segment(self):
        doc = parse_html("<h1>Banner</h1>")
        assert ("h1", "Banner") in [(r.delimiter, r.text) for r in doc.relinfons]

    def test_structural_tags_excluded(self):
        doc = parse_html("<html><body><b>x</b></body></html>")
        delimiters = {r.delimiter for r in doc.relinfons}
        assert "html" not in delimiters and "body" not in delimiters

    def test_empty_container_skipped(self):
        assert all(r.text for r in parse_html("<b></b>done").relinfons)

    def test_nested_containers_both_reported(self):
        doc = parse_html("<i>a <b>deep</b> z</i>")
        pairs = [(r.delimiter, r.text) for r in doc.relinfons]
        assert ("b", "deep") in pairs
        assert ("i", "a deep z") in pairs

    def test_unbalanced_end_tag_ignored(self):
        doc = parse_html("</b>text")
        assert doc.text == "text"

    def test_document_order(self):
        doc = parse_html("<b>one</b><b>two</b>")
        b_texts = [r.text for r in doc.relinfons if r.delimiter == "b"]
        assert b_texts == ["one", "two"]


class TestBaseHref:
    def test_base_href_captured(self):
        doc = parse_html('<head><base href="http://cdn.example/dir/"></head>')
        assert doc.base_href == "http://cdn.example/dir/"

    def test_first_base_wins(self):
        doc = parse_html('<base href="/a"><base href="/b">')
        assert doc.base_href == "/a"

    def test_no_base_is_none(self):
        assert parse_html("<body>x</body>").base_href is None


# -- hostile corpus (ROADMAP item 4(4)) ------------------------------------------
#
# Pages are outside input.  Whatever they contain, the document pipeline must
# not raise, must emit at most one token per character, and must produce text
# the wire codec can ship.  This corpus is also the differential oracle a
# replacement scanner (ROADMAP item 1(a)) has to agree with.

URL = parse_url("http://hostile.example/page.html")

HOSTILE = {
    "unclosed-quote": '<a href="http://x.example/never closed>label</a> tail',
    "unclosed-comment": "before <!-- never closed <b>bold</b>",
    "unclosed-tag": "text <a href='x'",
    "unclosed-title": "<title>never closed <b>x</b>",
    "attribute-soup": "<a href=x href=\"y\" =z \"q\"='1' ===>k</a>",
    "lt-storm": "<" * 20_000,
    "lt-gt-storm": "<" * 4_000 + ">" * 4_000,
    "amp-storm": "&" * 10_000 + "&#" * 5_000,
    "character-references": "<p>&#99999999; &#55296; &#1114112; &#57343;</p>",
    "controls": "\x00<b\x00>\x01</b>\x7f",
    "deep-nesting": "<b>" * 20_000 + "x" + "</b>" * 20_000,
    "unmatched-end-tags": "<b>" * 20_000 + "x" + "</i>" * 20_000,
    "padding": "<p>" + "lorem ipsum " * 90_000 + "</p>",  # > 1 MB
}


def _survives(html: str) -> None:
    parse_html(html)
    database = build_node_database(URL, html)
    assert len(list(tokenize(html))) <= len(html) + 1
    for row in (*database.document.rows(), *database.anchor.rows(), *database.relinfon.rows()):
        for cell in row:
            if isinstance(cell, str):
                cell.encode("utf-8")


class TestHostileCorpus:
    @pytest.mark.parametrize("name", HOSTILE)
    def test_hand_built(self, name):
        _survives(HOSTILE[name])

    def test_unmatched_end_tags_are_not_quadratic(self):
        html = HOSTILE["unmatched-end-tags"]
        started = time.perf_counter()
        parsed = parse_html(html)
        assert time.perf_counter() - started < 2.0
        assert parsed.text == "x" and parsed.relinfons == ()

    def test_unmatched_end_tags_leave_open_containers_alone(self):
        doc = parse_html("<i>a <b>deep</u></b> z</x></i>")
        assert [(r.delimiter, r.text) for r in doc.relinfons] == [
            ("b", "deep"), ("i", "a deep z"),
        ]

    def test_implicitly_closed_tags_can_no_longer_be_closed(self):
        # </i> closes <b> on its way; the later </b> then has no open partner.
        doc = parse_html("<i>a <b>deep</i> z</b>")
        assert [(r.delimiter, r.text) for r in doc.relinfons] == [("i", "a deep")]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    [
                        "<b>", "</b>", "<i>", "</i>", "<p>", "<hr>", "<title>", "</title>",
                        "<script>", "</script>", "<a href=", "</a>", "<base href='", "<!--",
                        "-->", "<!", "&#", "&amp", "&#55296;", "&#1114112;",
                    ]
                ),
                st.text(alphabet="<>/&#;=\"' abcdefghijklmnopqrstuvwxyz0123456789", max_size=12),
            ),
            max_size=40,
        ).map("".join)
    )
    def test_generated(self, html):
        _survives(html)


def _hostile_web():
    builder = WebBuilder()
    builder.site("root.example").page(
        "/", title="root", links=[("out", "http://hostile.example/")]
    )
    builder.site("hostile.example").raw_page(
        "/", "<title>hostile &#99999999; &#55296; page</title><b>" + "</i>" * 500
    )
    return builder.build()


_HOSTILE_QUERY = 'select d.url, d.title from document d such that "http://root.example/" G d'
_HOSTILE_ROW = ("http://hostile.example/", "hostile &#99999999; &#55296; page")


class TestHostilePagesEndToEnd:
    """One hostile page must not take a query down, on either transport."""

    def test_simulator(self):
        handle = WebDisEngine(_hostile_web()).run_query(_HOSTILE_QUERY)
        assert handle.status is QueryStatus.COMPLETE
        assert [row.values for row in handle.unique_rows()] == [_HOSTILE_ROW]

    def test_sockets(self):
        # The row crosses the wire codec: a lone surrogate in it used to kill
        # the sender task and leave the query RUNNING until the timeout.
        async def main():
            engine = AsyncioWebDisEngine(_hostile_web())
            try:
                handle = engine.submit_disql(_HOSTILE_QUERY)
                await engine.run([handle], timeout=30.0)
                assert handle.status is QueryStatus.COMPLETE
                assert [row.values for row in handle.unique_rows()] == [_HOSTILE_ROW]
            finally:
                await engine.aclose()

        asyncio.run(main())
