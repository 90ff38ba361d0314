"""Tests for virtual-relation construction (the Database Constructor)."""

from __future__ import annotations

import hashlib

import pytest

from repro.html.generator import PageSpec, render_page
from repro.model import LinkType
from repro.model.database import DatabaseConstructor, build_node_database
from repro.net.stats import TrafficStats
from repro.urlutils import Url, parse_url
from repro.web.builders import WebBuilder
from repro.web.campus import build_campus_web
from repro.web.site import Page, Site

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
        assert constructor.misses == 2
        assert constructor.hits == 0
        assert constructor.retained() == []

    def test_cache_hit(self):
        constructor = DatabaseConstructor(cache_size=4)
        html = render_page(PageSpec(title="t"))
        first = constructor.construct(URL, html)
        second = constructor.construct(URL, html)
        assert first is second
        assert constructor.misses == 1
        assert constructor.hits == 1

    def test_retains_by_default(self):
        constructor = DatabaseConstructor()
        html = render_page(PageSpec(title="t"))
        assert constructor.construct(URL, html) is constructor.construct(URL, html)
        assert constructor.cache_info()["capacity"] == 1024

    def test_cache_eviction_lru(self):
        constructor = DatabaseConstructor(cache_size=1)
        html = render_page(PageSpec(title="t"))
        other = parse_url("http://a.example/other")
        constructor.construct(URL, html)
        constructor.construct(other, html)
        constructor.construct(URL, html)  # evicted, rebuilt
        assert constructor.misses == 3

    def test_bound_holds_under_a_scan(self):
        """capacity + k distinct pages retain exactly capacity, the newest."""
        constructor = DatabaseConstructor(cache_size=5)
        html = render_page(PageSpec(title="t"))
        urls = [parse_url(f"http://a.example/p{i}") for i in range(5 + 3)]
        for url in urls:
            constructor.construct(url, html)
        assert [url for url, __ in constructor.retained()] == urls[3:]
        assert constructor.cache_info() == {
            "capacity": 5, "retained": 5, "hits": 0, "misses": 8,
        }

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
        assert constructor.misses == 2

    def test_edited_page_is_never_served_from_the_old_record(self):
        """The store is content-checked: no epoch bump needed, none trusted."""
        constructor = DatabaseConstructor(cache_size=4)
        html_a = render_page(PageSpec(title="before"))
        html_b = render_page(PageSpec(title="after"))
        old = constructor.construct(URL, html_a)
        new = constructor.construct(URL, html_b)
        assert new is not old
        assert next(new.document.rows())[1] == "after"
        assert constructor.retained() == [(URL, html_b)]  # replaced, not kept beside
        # An equal copy of the retained HTML is the retained HTML.
        assert constructor.construct(URL, "".join(list(html_b))) is new
        # Editing back is an edit too.
        assert next(constructor.construct(URL, html_a).document.rows())[1] == "before"


    def test_tuple_count(self):
        db = _db(PageSpec(title="t", links=[("x", "/y")], emphasized=[("b", "z")]))
        assert db.tuple_count() == len(db.document) + len(db.anchor) + len(db.relinfon)


class TestSiteDocuments:
    """The §7.1 site table is assembled from, and purged with, the records."""

    def _site(self, pages=3):
        site = Site("a.example")
        for i in range(pages):
            site.add(Page(f"/p{i}", html=render_page(PageSpec(title=f"page {i}"))))
        return site

    def test_rows_are_the_records_document_rows(self):
        constructor, site = DatabaseConstructor(), self._site()
        table = constructor.site_documents(site)
        assert [row[1] for row in table.rows()] == ["page 0", "page 1", "page 2"]
        for row, (path, page) in zip(table.rows(), sorted(site.pages.items())):
            database = constructor.construct(site.url_of(path), page.html)
            # Cell identity: the site table holds the records' own objects.
            assert all(
                cell is column[0] for cell, column in zip(row, database.document.columns())
            )

    def test_retained_and_shared_with_the_per_node_path(self):
        stats = TrafficStats()
        constructor, site = DatabaseConstructor(), self._site()
        constructor.construct(site.url_of("/p1"), site.pages["/p1"].html)
        table = constructor.site_documents(site, stats)
        assert constructor.misses == 3  # /p1 was already there
        assert constructor.site_documents(site, stats) is table
        assert constructor.misses == 3
        assert stats.documents_parsed == 3  # charged per assembly, not per lookup

    @pytest.mark.parametrize("change", ["edit", "add", "remove"])
    def test_any_change_to_the_site_reassembles(self, change):
        constructor, site = DatabaseConstructor(), self._site()
        before = constructor.site_documents(site)
        if change == "edit":
            site.pages["/p1"] = Page("/p1", html=render_page(PageSpec(title="edited")))
            expected = ["page 0", "edited", "page 2"]
        elif change == "add":
            site.add(Page("/p3", html=render_page(PageSpec(title="page 3"))))
            expected = ["page 0", "page 1", "page 2", "page 3"]
        else:
            del site.pages["/p1"]
            expected = ["page 0", "page 2"]
        after = constructor.site_documents(site)
        assert after is not before
        assert [row[1] for row in after.rows()] == expected

    def test_evicting_a_record_drops_its_sites_table(self):
        constructor, site = DatabaseConstructor(cache_size=3), self._site()
        table = constructor.site_documents(site)
        constructor.construct(parse_url("http://b.example/"), "<p>elsewhere</p>")
        assert len(constructor.retained()) == 3
        assert constructor.site_documents(site) is not table

    def test_a_site_larger_than_the_store_is_never_retained(self):
        for capacity in (0, 2):
            constructor, site = DatabaseConstructor(cache_size=capacity), self._site()
            first = constructor.site_documents(site)
            assert len(first) == 3
            assert constructor.site_documents(site) is not first
            assert len(constructor.retained()) == capacity

    def test_purge_drops_the_tables_too(self):
        constructor, site = DatabaseConstructor(), self._site()
        table = constructor.site_documents(site)
        constructor.purge()
        assert constructor.retained() == []
        assert constructor.site_documents(site) is not table


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


def test_out_links_are_the_constructors_links():
    """One resolver: ``Web.out_links`` and the ANCHOR relation agree, link by
    link, on a page with a foreign ``<base href>`` and unresolvable hrefs."""
    builder = WebBuilder()
    builder.site(URL.host).raw_page(URL.path, _anchor_rich_html())
    web = builder.build()
    rows = build_node_database(URL, web.html_for(URL)).anchor.rows()
    assert web.out_links(URL) == [(parse_url(row[2]), row[3]) for row in rows]
    assert len(web.out_links(URL)) == 50  # the ten empty hrefs are skipped


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
        # The pin is over every anchor's fragment-stripped href, per link
        # type; ``forward_targets`` is that list with repeats dropped.
        per_anchor = {
            ltype.value: [
                str(parse_url(row[2]).without_fragment())
                for row in db.anchor.rows()
                if row[3] == ltype.value
            ]
            for ltype in LinkType
        }
        assert hashlib.sha256(repr(per_anchor).encode()).hexdigest() == (
            "462ccec7ac2792d06a67c4b5c9c8175c509df22cb2e44e762f0f588f11642333"
        )
        for ltype in LinkType:
            assert [str(url) for url in db.forward_targets(ltype)] == list(
                dict.fromkeys(per_anchor[ltype.value])
            )
