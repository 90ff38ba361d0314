"""Tests for virtual-relation construction (the Database Constructor)."""

from __future__ import annotations

import hashlib

from repro.html.generator import PageSpec, render_page
from repro.model import LinkType
from repro.model.database import DatabaseConstructor, build_node_database
from repro.urlutils import Url, parse_url
from repro.web.campus import build_campus_web

URL = parse_url("http://a.example/dir/page.html")


def _db(spec: PageSpec, url: Url = URL):
    return build_node_database(url, render_page(spec))


class TestDocumentRelation:
    def test_single_row(self):
        db = _db(PageSpec(title="T"))
        assert len(db.document) == 1

    def test_url_and_title(self):
        row = next(_db(PageSpec(title="My Title")).document.rows())
        assert row[0] == str(URL)
        assert row[1] == "My Title"

    def test_length_is_html_size(self):
        html = render_page(PageSpec(title="T"))
        db = build_node_database(URL, html)
        assert next(db.document.rows())[3] == len(html)


class TestAnchorRelation:
    def test_link_types_classified(self):
        spec = PageSpec(
            title="t",
            links=[
                ("global", "http://b.example/"),
                ("local", "/other.html"),
                ("relative-local", "sibling.html"),
                ("interior", "#top"),
            ],
        )
        db = _db(spec)
        types = [row[3] for row in db.anchor.rows()]
        assert types == ["G", "L", "L", "I"]

    def test_base_column_is_document_url(self):
        db = _db(PageSpec(title="t", links=[("x", "/y")]))
        assert next(db.anchor.rows())[1] == str(URL)

    def test_relative_href_resolved(self):
        db = _db(PageSpec(title="t", links=[("x", "sibling.html")]))
        assert next(db.anchor.rows())[2] == "http://a.example/dir/sibling.html"

    def test_outgoing_links_filter(self):
        spec = PageSpec(
            title="t", links=[("g", "http://b.example/"), ("l", "/x#frag")]
        )
        db = _db(spec)
        assert db.forward_targets(LinkType.GLOBAL) == (parse_url("http://b.example/"),)
        assert db.forward_targets(LinkType.LOCAL) == (parse_url("http://a.example/x"),)
        assert db.forward_targets(LinkType.INTERIOR) == ()

    def test_unresolvable_href_skipped(self):
        html = '<html><body><a href="">empty</a><a href="/ok">ok</a></body></html>'
        db = build_node_database(URL, html)
        assert len(db.anchor) == 1


class TestRelInfonRelation:
    def test_infon_rows(self):
        db = _db(PageSpec(title="t", emphasized=[("b", "hello world")]))
        rows = [r for r in db.relinfon.rows() if r[0] == "b"]
        assert rows and rows[0][2] == "hello world"

    def test_infon_length(self):
        db = _db(PageSpec(title="t", emphasized=[("b", "abc")]))
        row = [r for r in db.relinfon.rows() if r[0] == "b"][0]
        assert row[3] == 3

    def test_infon_url_matches_document(self):
        db = _db(PageSpec(title="t", ruled=["X"]))
        assert all(r[1] == str(URL) for r in db.relinfon.rows())


class TestConstructorCache:
    def test_no_cache_rebuilds(self):
        constructor = DatabaseConstructor(cache_size=0)
        html = render_page(PageSpec(title="t"))
        constructor.construct(URL, html)
        constructor.construct(URL, html)
        assert constructor.builds == 2
        assert constructor.cache_hits == 0

    def test_cache_hit(self):
        constructor = DatabaseConstructor(cache_size=4)
        html = render_page(PageSpec(title="t"))
        first = constructor.construct(URL, html)
        second = constructor.construct(URL, html)
        assert first is second
        assert constructor.builds == 1
        assert constructor.cache_hits == 1

    def test_cache_eviction_lru(self):
        constructor = DatabaseConstructor(cache_size=1)
        html = render_page(PageSpec(title="t"))
        other = parse_url("http://a.example/other")
        constructor.construct(URL, html)
        constructor.construct(other, html)
        constructor.construct(URL, html)  # evicted, rebuilt
        assert constructor.builds == 3

    def test_fragment_ignored_in_cache_key(self):
        constructor = DatabaseConstructor(cache_size=4)
        html = render_page(PageSpec(title="t"))
        a = constructor.construct(URL, html)
        b = constructor.construct(URL.with_fragment("x"), html)
        assert a is b

    def test_purge(self):
        constructor = DatabaseConstructor(cache_size=4)
        html = render_page(PageSpec(title="t"))
        constructor.construct(URL, html)
        constructor.purge()
        constructor.construct(URL, html)
        assert constructor.builds == 2

    def test_tuple_count(self):
        db = _db(PageSpec(title="t", links=[("x", "/y")], emphasized=[("b", "z")]))
        assert db.tuple_count() == len(db.document) + len(db.anchor) + len(db.relinfon)


class TestBaseHrefResolution:
    def test_relative_links_resolve_against_base(self):
        html = (
            '<html><head><base href="http://cdn.example/assets/"></head>'
            '<body><a href="style.css">s</a></body></html>'
        )
        db = build_node_database(URL, html)
        assert next(db.anchor.rows())[2] == "http://cdn.example/assets/style.css"

    def test_ltype_still_relative_to_document(self):
        # The destination lands on another host: that's a GLOBAL link even
        # though the href was written relative (to the <base>).
        html = (
            '<html><head><base href="http://cdn.example/"></head>'
            '<body><a href="x.html">x</a></body></html>'
        )
        db = build_node_database(URL, html)
        assert next(db.anchor.rows())[3] == "G"

    def test_base_on_same_host_keeps_local(self):
        html = (
            '<html><head><base href="/deep/dir/"></head>'
            '<body><a href="x.html">x</a></body></html>'
        )
        db = build_node_database(URL, html)
        row = next(db.anchor.rows())
        assert row[2] == "http://a.example/deep/dir/x.html"
        assert row[3] == "L"

    def test_unparseable_base_ignored(self):
        html = (
            '<html><head><base href=""></head>'
            '<body><a href="x.html">x</a></body></html>'
        )
        db = build_node_database(URL, html)
        assert next(db.anchor.rows())[2] == "http://a.example/dir/x.html"


def _anchor_rich_html() -> str:
    """Sixty anchors cycling through relative, absolute-with-fragment,
    global, fragment-only, ``mailto:`` and empty (unresolvable) hrefs,
    under a ``<base href>`` on another host."""
    anchors = []
    for i in range(60):
        href = (
            f"sub/page{i}.html",
            f"/abs/page{i}.html#sec{i}",
            f"http://site{i % 5}.example/p{i}.html",
            f"#frag{i}",
            f"mailto:person{i}@example.org",
            "",
        )[i % 6]
        anchors.append(f'<li><a href="{href}">link <b>{i}</b> label</a></li>')
    return (
        "<html><head><title>Anchor rich</title>"
        '<base href="http://mirror.example/base/dir/"></head><body>'
        "<h1>Anchor rich</h1><p>intro <i>text</i></p><ul>"
        + "".join(anchors)
        + "</ul><hr>CONVENER someone<hr></body></html>"
    )


def _rows_digest(databases) -> tuple[str, int]:
    digest = hashlib.sha256()
    for db in databases:
        for name in ("document", "anchor", "relinfon"):
            digest.update(repr((name, list(db.relation(name).rows()))).encode())
    return digest.hexdigest(), sum(db.tuple_count() for db in databases)


class TestRowsMatchTheTupleDataclassEra:
    """Row contents, row order and tuple counts captured (as sha256 of the
    row lists' repr) at the last commit that built ``DocumentTuple`` /
    ``AnchorTuple`` / ``RelInfonTuple`` objects and ``as_row()``-ed them."""

    def test_campus_web(self):
        web = build_campus_web()
        databases = [
            build_node_database(url, web.html_for(url))
            for url in sorted(web.urls(), key=str)
        ]
        assert _rows_digest(databases) == (
            "8eb4c17411c99d3425a13c096b5487523ef2dd28e0af479cff58dfab9df5e73d",
            135,
        )

    def test_anchor_rich_page(self):
        db = build_node_database(
            parse_url("http://a.example/dir/page.html#top"), _anchor_rich_html()
        )
        assert len(db.anchor) == 50  # the ten empty hrefs are unresolvable
        assert _rows_digest([db]) == (
            "ac2699166e9c3785de644e3a14db5d3cba718be21282f1260b0762d1c66c4f3a",
            236,
        )
        targets = {
            ltype.value: [str(url) for url in db.forward_targets(ltype)]
            for ltype in LinkType
        }
        assert hashlib.sha256(repr(targets).encode()).hexdigest() == (
            "462ccec7ac2792d06a67c4b5c9c8175c509df22cb2e44e762f0f588f11642333"
        )
