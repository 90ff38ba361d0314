"""What a cached page keeps: its relations, not its scan.

A site may retain the node databases of up to 1024 pages (paper §2.4,
footnote 3: :class:`~repro.model.database.DatabaseConstructor`), so what one
database keeps is what a warm site holds.  These tests bound it, in bytes
traced by :mod:`tracemalloc` after :func:`gc.collect` — the figure
``tools/profile_hotpath.py --workload build`` prints as
``retained_bytes_per_page`` — and check that what the database drops along
the way changes no row, count or destination.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.html.parser import ParsedDocument, parse_html
from repro.model import LinkType
from repro.model.database import build_node_database
from repro.testing import html_reference
from tests.test_html_parser import _WEB_FAMILIES, HOSTILE, URL
from tests.test_perf_hotpath import _profile_tool

#: Bytes per page, spot-check web, after a reach visit (8,326 before the
#: scanner handed over one visible-text string and flat marks).
SPOT_REACH_BUDGET = 6_500
#: Bytes per page, ``eval_join``'s rich web, after all three relations are
#: read (57,637 before).
RICH_FULL_BUDGET = 33_000
#: Bytes per page after a full read and the pool's compiled plans and the
#: interpreter ran on it (``pool_read``): spot-check web 7,727 and rich web
#: 51,874 while a table kept a row list beside its columns.
SPOT_POOL_BUDGET = 7_000
RICH_POOL_BUDGET = 36_000


class TestBytesPerCachedPage:
    def test_spot_web_after_a_reach_visit(self):
        tool = _profile_tool()
        assert tool.retained_bytes(tool._spot_check_pages(), tool.read_reach) <= SPOT_REACH_BUDGET

    def test_rich_web_after_a_full_read(self):
        tool = _profile_tool()
        assert tool.retained_bytes(tool._pages("eval_join"), tool.read_all) <= RICH_FULL_BUDGET

    def test_spot_web_after_the_pools_executors(self):
        tool = _profile_tool()
        read = tool.pool_read("cold_default")
        assert tool.retained_bytes(tool._spot_check_pages(), read) <= SPOT_POOL_BUDGET

    def test_rich_web_after_the_pools_executors(self):
        """Every third page: the interpreter's join is slow under tracing."""
        tool = _profile_tool()
        read = tool.pool_read("eval_join")
        assert tool.retained_bytes(tool._pages("eval_join")[::3], read) <= RICH_POOL_BUDGET

    @pytest.mark.parametrize("name", HOSTILE)
    def test_a_hostile_page_keeps_bytes_linear_in_its_length(self, name):
        """At most eight bytes per character of HTML, beside a constant:
        after a reach visit on every page (nested containers kept ≈ 23 per
        character before, a storm of ``<`` ≈ 10), after a full read on every
        page but nested containers, whose RELINFON is N copies of the inner
        text of N containers — the relation's own size."""
        tool = _profile_tool()
        html = HOSTILE[name]
        budget = 8 * len(html) + 4096
        assert tool.retained_bytes([(URL, html)], tool.read_reach) <= budget
        if not name.startswith("nested-containers"):
            assert tool.retained_bytes([(URL, html)], tool.read_all) <= budget


# -- what is dropped changes nothing ---------------------------------------------


def _pages(family: str) -> list:
    if family == "hostile":
        return [(URL, html) for html in HOSTILE.values()]
    if family == "rich":
        return _profile_tool()._pages("eval_join")
    web = _WEB_FAMILIES[family]()
    return [(url, web.html_for(url)) for url in web.urls()]


def _read_anchor(database):
    return database.anchor.row_list()


def _read_targets(database):
    return {ltype: database.forward_targets(ltype) for ltype in LinkType}


def _read_relinfon(database):
    return database.relinfon.row_list()


_READS = (_read_anchor, _read_targets, _read_relinfon)


def _observed(database) -> tuple:
    return (
        database.document.row_list(),
        *(read(database) for read in _READS),
        database.tuple_count(),
    )


class TestReleasesChangeNothing:
    @pytest.mark.parametrize("family", ["campus", "synthetic", "rich", "hostile"])
    def test_every_read_order_sees_a_fresh_builds_relations(self, family):
        """Each relation, the destinations and the tuple count read from a
        database that has dropped what its other reads no longer need equal
        what a fresh database gives for that read alone."""
        for url, html in _pages(family):
            fresh = (
                build_node_database(url, html).document.row_list(),
                *(read(build_node_database(url, html)) for read in _READS),
                build_node_database(url, html).tuple_count(),
            )
            for order in permutations(_READS):
                database = build_node_database(url, html)
                database.tuple_count()
                for read in order:
                    read(database)
                assert _observed(database) == fresh
                parsed = database._parsed
                assert database._links is None and parsed.anchor_hrefs is None
                assert parsed._raw is parsed._label_marks is parsed._segment_marks is None
                assert database._link_count == len(fresh[1])

    def test_anchor_takes_the_hrefs_and_label_marks_and_keeps_the_links(self):
        url, html = _pages("rich")[0]
        database = build_node_database(url, html)
        database.anchor
        parsed = database._parsed
        assert parsed.anchor_hrefs is parsed._labels is parsed._label_marks is None
        assert parsed._raw is not None and parsed._segment_marks is not None
        assert database._links is not None  # the forward targets still need them
        database.forward_targets(LinkType.GLOBAL)
        assert database._links is None


class TestReprKeepsNothing:
    @pytest.mark.parametrize(
        "reads",
        [(), (_read_relinfon,), (_read_anchor,), (_read_anchor, _read_targets), _READS],
        ids=["unread", "relinfon", "anchor", "reach", "all"],
    )
    def test_repr_leaves_the_retained_state_unchanged(self, reads):
        tool = _profile_tool()
        pages = _pages("rich")[:6]

        def read(database):
            database.tuple_count()
            for each in reads:
                each(database)

        def read_and_print(database):
            read(database)
            parsed = database._parsed
            state = [getattr(parsed, slot) for slot in ParsedDocument.__slots__]
            assert repr(parsed).startswith("ParsedDocument(title=")
            assert all(
                getattr(parsed, slot) is kept
                for slot, kept in zip(ParsedDocument.__slots__, state)
            )

        assert tool.retained_bytes(pages, read_and_print) == tool.retained_bytes(pages, read)

    @pytest.mark.parametrize("family", ["campus", "hostile"])
    def test_repr_is_the_materialised_documents(self, family):
        """Unjoined, partly joined or fully joined, a scanned document prints
        as the reference parser's materialised one."""
        for __, html in _pages(family):
            expected = repr(html_reference.parse_html(html))
            parsed = parse_html(html)
            assert repr(parsed) == expected
            parsed.relinfon_texts
            assert repr(parsed) == expected
            parsed.text, parsed.anchor_labels
            assert repr(parsed) == expected
