"""Tests for HTML document analysis (title, text, anchors, rel-infons)."""

from __future__ import annotations

import asyncio
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryStatus, WebDisEngine
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.disql import compile_disql
from repro.html.parser import ParsedDocument, decode_entities, parse_html
from repro.model.database import build_node_database
from repro.relational.compile import compile_node_query
from repro.relational.query import evaluate_node_query
from repro.testing import html_reference
from repro.urlutils import parse_url
from repro.web import (
    SyntheticWebConfig,
    build_campus_web,
    build_figure1_web,
    build_figure5_web,
    build_synthetic_web,
)
from repro.web.builders import WebBuilder
from repro.web.hierarchy import HierarchyConfig, build_hierarchy_web


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
# not raise, must do work linear in the page's length, and must produce text
# the wire codec can ship.  The same corpus feeds the differential oracle
# below: the scanner against the token-stream parser it replaced.

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
    # RELINFON over N nested containers is N copies of the inner text — once
    # it is read; until then the page costs N marks (see TestNestedContainers).
    **{f"nested-containers-{n}": "<b>x" * n + "</b>" * n for n in (200, 2_000)},
    **{f"reopened-containers-{n}": "<i><b>x</b>" * n for n in (200, 2_000)},
}


#: The per-document work ceiling: a megabyte of the markup that used to cost
#: a ``str.find`` over the tail, or a slice of it, per character.
WORK_CEILING = {
    "lt-then-gt": "<" * 50_000 + ">" * 50_000,
    "lt-only": "<" * 1_000_000,
    "amp-only": "&" * 1_000_000,
    "amp-then-semicolon": "&" * 500_000 + ";",
    "open-tags-never-closed": "<a x " * 200_000,
    "end-tags-with-attributes": "</b x " * 200_000 + ">",
    "whitespace-inside-tags": ("<a" + " " * 250_000 + "</a" + " " * 250_000) * 2,
    # Back-to-back comments and declarations: a tokeniser that restarts a
    # match after each one it consumes goes quadratic here.
    "empty-comments": "<!---->" * 150_000,
    "declarations": "<!x>" * 250_000,
    "abrupt-comments": "<!-->" * 200_000,
}

#: Markup fragments the generated pages are assembled from; the second half
#: are the ones that broke faster prototypes of the scanner.
_FRAGMENTS = [
    "<b>", "</b>", "<i>", "</i>", "<p>", "<hr>", "<title>", "</title>",
    "<script>", "</script>", "<a href=", "</a>", "<base href='", "<!--",
    "-->", "<!", "&#", "&amp", "&#55296;", "&#1114112;",
    "<BR />", "<br/>", "< /b >", '<A HREF="y&amp;z">', "<a\nhref=q>",
    "<base href='< /b >", "<b x>", "<\u00e9>", "</\u00e9>", "</b x>",
    "<\u0130>", "</\u0130>", "<a href='x />", "<a href=x/>", "<b:c-d_e>", "<a =href=1 href>",
    "&#00000065;", "&#000000065;", "<base href=y />", "<title/>", "<!-->",
    "<1>", "</1>", "<_b>", "</-b>", "<b1>",
]

_generated_pages = st.lists(
    st.one_of(
        st.sampled_from(_FRAGMENTS),
        st.text(
            alphabet="<>/&#;=\"' abcdefghijklmnopqrstuvwxyz0123456789\t\n\x0c\xa0", max_size=12
        ),
    ),
    max_size=40,
).map("".join)


class _CountingPage(str):
    """A page that adds up how many characters its ``find`` calls look at."""

    scanned = 0

    def find(self, sub, start=0, end=None):
        at = super().find(sub, start, len(self) if end is None else end)
        self.scanned += (at if at >= 0 else len(self)) + len(sub) - start
        return at


def _survives(html: str) -> None:
    database = build_node_database(URL, html)
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

    @pytest.mark.parametrize("name", WORK_CEILING)
    def test_work_is_linear_in_the_page(self, name):
        html = WORK_CEILING[name]
        started = time.perf_counter()
        _survives(html)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("name", WORK_CEILING)
    def test_no_find_rescans_the_tail(self, name):
        # The clock cannot see a quadratic memchr at a megabyte; a count can.
        page = _CountingPage(WORK_CEILING[name])
        parse_html(page)
        assert page.scanned <= 3 * len(page)

    @settings(max_examples=300, deadline=None)
    @given(_generated_pages)
    def test_generated(self, html):
        _survives(html)


_REACH_QUERY = compile_disql(
    'select d.url, d.title, a.href from document d such that "http://hostile.example/" L d,'
    ' anchor a where d.title contains "topic"'
).steps[0].query


class TestNestedContainers:
    """ROADMAP 4(c), the part that is no behaviour change: a page of N nested
    containers is linear — in joins and in memory — until RELINFON is read."""

    @staticmethod
    def _visit(html):
        database = build_node_database(URL, html)
        compile_node_query(_REACH_QUERY).execute_columnar(database)
        evaluate_node_query(_REACH_QUERY, database)
        database.tuple_count()
        return database

    @pytest.mark.parametrize("shape", ["nested-containers", "reopened-containers"])
    def test_no_segment_is_joined_until_relinfon_is_read(self, shape, monkeypatch):
        joined = []
        materialise = ParsedDocument._joined

        def counting(self, marks):
            joined.append(len(marks) // 2)  # two marks per joined string
            return materialise(self, marks)

        monkeypatch.setattr(ParsedDocument, "_joined", counting)
        for size in (200, 2_000):
            html = HOSTILE[f"{shape}-{size}"]
            database = self._visit(html)
            assert joined == [0]  # the (empty) label column, for ANCHOR
            assert database.tuple_count() == 1 + size
            rows = database.relation("relinfon").row_list()
            assert joined == [0, size]
            reference = html_reference.parse_html(html)
            assert rows == [
                (r.delimiter, str(URL), r.text, len(r.text)) for r in reference.relinfons
            ]
            assert len(rows) == size
            joined.clear()

    @pytest.mark.parametrize("shape", ["nested-containers", "reopened-containers"])
    def test_memory_is_linear_until_relinfon_is_read(self, shape):
        peaks = []
        for size in (200, 2_000):
            html = HOSTILE[f"{shape}-{size}"]
            tracemalloc.start()
            try:
                database = self._visit(html)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del database
        # Ten times the page: ten times the memory, give or take what a mark
        # costs beside a run.  The N joined copies of "<b>x" * N would be a
        # hundred times.
        assert peaks[1] < 40 * peaks[0]


class TestInk:
    """A segment is a rel-infon iff it has visible text; the scanner decides
    that by counting, without joining the segment."""

    def test_isspace_is_the_class_split_splits_on(self):
        for code in range(sys.maxunicode + 1):
            assert chr(code).isspace() == (not chr(code).split()), hex(code)

    @pytest.mark.parametrize(
        "html, expected",
        [
            ("<b> \n\t</b><i>&nbsp;&#32;</i>", []),
            ("<b><title>only a title</title></b>", []),
            ("<b><script>x</script> </b>", []),
            ("<b><</b>", [("b", "<")]),
            ("<b> <i>x</i> </b><u> </u>", [("i", "x"), ("b", "x")]),
            (" \n<hr>a<hr> <hr>", [("hr", "a")]),
            ("<p>a</p> <br>", [("p", "a")]),
        ],
    )
    def test_whitespace_is_not_ink(self, html, expected):
        parsed = parse_html(html)
        assert [(r.delimiter, r.text) for r in parsed.relinfons] == expected
        assert parsed == html_reference.parse_html(html)


# -- differential oracle ------------------------------------------------------------
#
# The engine's data-shipping oracle builds its databases through the same
# ``parse_html`` as the query-servers, so it cannot see a scanner bug.  The
# token-stream parser the scanner replaced can: same input, equal document.


def _agrees_with_reference(html: str) -> None:
    got, expected = parse_html(html), html_reference.parse_html(html)
    for name in ("title", "text", "anchors", "relinfons", "base_href"):
        assert getattr(got, name) == getattr(expected, name), (name, html[:200])
    assert got == expected


def _rich_web():
    """The shape of EXP-E1's ``eval_join`` web: many anchors with fragments,
    emphasized segments of six delimiters, ruled blocks."""
    delimiters = ("b", "i", "em", "strong", "u", "tt")
    builder = WebBuilder()
    for site_index in range(2):
        site = builder.site(f"rich{site_index}.example")
        for page in range(6):
            site.page(
                f"/p{page}.html",
                title=f"rich page {site_index}-{page} <&>",
                links=[
                    (f"{delimiters[j % 6]} ref {j}", f"/p{(page + j) % 6}.html#s{j}")
                    for j in range(30 + page)
                ],
                emphasized=[
                    (delimiters[j % 6], f"segment {j} of page {page}") for j in range(15 + page)
                ],
                ruled=[f"ruled {j} block" for j in range(5)],
            )
    return builder.build()


_WEB_FAMILIES = {
    "synthetic": lambda: build_synthetic_web(
        SyntheticWebConfig(
            sites=32, pages_per_site=20, local_out_degree=3,
            global_out_degree=2, padding_words=50,
        )
    ),
    "rich": _rich_web,
    "campus": build_campus_web,
    "figure1": build_figure1_web,
    "figure5": build_figure5_web,
    "hierarchy": lambda: build_hierarchy_web(HierarchyConfig()),
}


class TestDifferentialOracle:
    @pytest.mark.parametrize("name", HOSTILE)
    def test_hostile_corpus(self, name):
        _agrees_with_reference(HOSTILE[name])

    @pytest.mark.parametrize("family", _WEB_FAMILIES)
    def test_every_page_of_the_web_families(self, family):
        web = _WEB_FAMILIES[family]()
        assert web.page_count()
        for url in web.urls():
            _agrees_with_reference(web.html_for(url))

    def test_regex_classes_are_the_str_predicates(self):
        # The reference asks str.isspace / str.isalnum per character; the
        # scanner asks \s and \w.  Same sets, on every code point.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}
        assert set(re.findall(r"\w", every)) == {c for c in every if c.isalnum() or c == "_"}

    def test_every_pair_of_fragments(self):
        # What the random grammar reaches only by luck: each fragment in the
        # state every other fragment leaves behind, with an anchor to close.
        for first in _FRAGMENTS:
            for second in _FRAGMENTS:
                _agrees_with_reference(f"s{first}t{second}u</a>v<hr>")

    @settings(max_examples=1000, deadline=None)
    @given(_generated_pages)
    def test_generated(self, html):
        _agrees_with_reference(html)

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet="&#;x0123456789ampltgquo "))
    def test_decode_entities(self, text):
        assert decode_entities(text) == html_reference.decode_entities(text)


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
