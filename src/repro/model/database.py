"""Per-node temporary databases of virtual relations.

To process a node-query, a query-server "dynamically creates a temporary
in-memory database of the virtual relations associated with the document"
and purges it afterwards (paper Section 2.4).  The Database Constructor
makes "a single pass over the associated document" building the DOCUMENT,
ANCHOR and RELINFON tuples (paper Section 4.4).  Sites expecting repeated
queries may retain databases in a bounded cache (footnote 3).
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import SchemaError
from ..html.parser import parse_html, resolved_links
from ..urlutils import Url
from .relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA, LinkType
from ..relational.table import Table

__all__ = ["NodeDatabase", "DatabaseConstructor"]


class NodeDatabase:
    """The three virtual relations for one node, ready for node-queries.

    Databases are read-only once built, so lookup structures the hot path
    needs repeatedly — the name→relation map and the per-:class:`LinkType`
    link destinations — are kept here instead of being rebuilt on every
    :meth:`relation` / :meth:`forward_targets` call.
    """

    __slots__ = (
        "url", "document", "anchor", "relinfon",
        "_relations", "_links_by_type", "_forward_targets",
    )

    def __init__(
        self,
        url: Url,
        document: Table,
        anchor: Table,
        relinfon: Table,
        links_by_type: dict[LinkType, list[Url]],
    ) -> None:
        self.url = url
        self.document = document
        self.anchor = anchor
        self.relinfon = relinfon
        self._relations = {
            "document": document,
            "anchor": anchor,
            "relinfon": relinfon,
        }
        #: Resolved hrefs per link type, in ANCHOR row order.
        self._links_by_type = links_by_type
        self._forward_targets: dict[LinkType, tuple[Url, ...]] | None = None

    def relation(self, name: str) -> Table:
        """Look up a virtual relation by its lowercase name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no virtual relation named {name!r}") from None

    def forward_targets(self, ltype: LinkType) -> tuple[Url, ...]:
        """Fragment-stripped destinations of the given link type.

        The forwarding step only needs where each link leads, so the hrefs
        are stripped once per database (lazily, so a node that never
        forwards does not pay) instead of per fan-out probe.  Order is the
        ANCHOR relation's row order.
        """
        cached = self._forward_targets
        if cached is None:
            cached = self._forward_targets = {
                bucket_type: tuple(href.without_fragment() for href in hrefs)
                for bucket_type, hrefs in self._links_by_type.items()
            }
        return cached[ltype]

    def tuple_count(self) -> int:
        """Total tuples across the three relations (a proxy for build cost)."""
        return len(self.document) + len(self.anchor) + len(self.relinfon)


class DatabaseConstructor:
    """The one owner of everything a process derives from page content.

    A bounded LRU of ``url → (html, NodeDatabase)`` records — the retained
    databases of footnote 3 — plus the §7.1 site tables assembled from
    them.  One rule decides what is served: a record only while the HTML
    offered for its URL is the HTML it was built from, a site table only
    while it is made of exactly those records' rows.  A replaced or evicted
    record takes its site's table with it, so ``cache_size`` bounds all that
    is kept.  Holders :meth:`purge` on a web-epoch bump, and crash without it.

    Args:
        cache_size: documents to retain; ``0`` is the paper's
            build-use-purge (§2.4).
        stats: optional :class:`~repro.net.stats.TrafficStats` mirror for
            the hit/miss and join-index counters.
    """

    def __init__(self, cache_size: int = 1024, stats: "object | None" = None) -> None:
        self.cache_size = cache_size
        self._stats = stats
        self._store: OrderedDict[Url, tuple[str, NodeDatabase]] = OrderedDict()
        self._site_tables: dict[str, Table] = {}  # by site name
        self.hits = 0
        self.misses = 0

    def _count(self, counter: str) -> None:
        if self._stats is not None:
            setattr(self._stats, counter, getattr(self._stats, counter) + 1)

    def _drop(self, key: Url) -> None:
        del self._store[key]
        self._site_tables.pop(key.host, None)

    def construct(self, url: Url, html: str) -> NodeDatabase:
        """The node database of ``url``, whose document is ``html``."""
        key = url.without_fragment()
        record = self._store.get(key)
        if record is not None:
            if record[0] is html or record[0] == html:
                self._store.move_to_end(key)
                self.hits += 1
                self._count("db_cache_hits")
                return record[1]
            self._drop(key)  # the page was edited
        self.misses += 1
        self._count("db_cache_misses")
        database = build_node_database(key, html, stats=self._stats)
        if self.cache_size:
            self._store[key] = (html, database)
            if len(self._store) > self.cache_size:
                self._drop(next(iter(self._store)))
        return database

    def site_documents(self, site, stats: "object | None" = None) -> Table:
        """The DOCUMENT table spanning every page of ``site``, one row each.

        Multi-document node-queries range their extra document aliases over
        it (paper §7.1 footnote 2), still without inter-site communication.
        Every page of the :class:`~repro.web.site.Site` goes through
        :meth:`construct`, so a sitewide query warms the per-node path and
        vice versa; the table, with the join indexes cached on it, is reused
        until a page is edited, added or removed.  ``stats`` is the *caller's*
        counters (a constructor shared between engines has none of its own),
        charged one ``documents_parsed`` per page assembled.
        """
        rows = [
            self.construct(site.url_of(path), page.html).document.row_list()[0]
            for path, page in sorted(site.pages.items())
        ]
        table = self._site_tables.get(site.name)
        if table is None or table.row_list() != rows:
            table = Table(DOCUMENT_SCHEMA, rows, stats=self._stats)
            if stats is not None:
                stats.documents_parsed += len(rows)
            if len(rows) <= self.cache_size:  # else some record is already gone
                self._site_tables[site.name] = table
        return table

    def cache_info(self) -> dict[str, int]:
        """Snapshot of the store for introspection."""
        return {
            "capacity": self.cache_size,
            "retained": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
        }

    def retained(self) -> list[tuple[Url, str]]:
        """``(url, html)`` of every retained record, least recently used first."""
        return [(url, html) for url, (html, __) in self._store.items()]

    def purge(self) -> None:
        """Drop every retained record and the site tables made from them."""
        self._store.clear()
        self._site_tables.clear()


def build_node_database(url: Url, html: str, stats: "object | None" = None) -> NodeDatabase:
    """Single-pass construction of the virtual relations for ``url``.

    ``stats`` threads the :class:`~repro.net.stats.TrafficStats` mirror down
    to the tables' join-index counters (``index_builds`` / ``index_hits``).
    """
    parsed = parse_html(html)
    base = str(url)
    anchor_rows = []
    links_by_type: dict[LinkType, list[Url]] = {ltype: [] for ltype in LinkType}
    for label, href, symbol in resolved_links(parsed, url):
        ltype = LinkType.from_symbol(symbol)
        anchor_rows.append((label, base, str(href), ltype.value))
        links_by_type[ltype].append(href)
    return NodeDatabase(
        url,
        Table(
            DOCUMENT_SCHEMA, [(base, parsed.title, parsed.text, len(html))], stats=stats
        ),
        Table(ANCHOR_SCHEMA, anchor_rows, stats=stats),
        Table(
            RELINFON_SCHEMA,
            [
                (infon.delimiter, base, infon.text, len(infon.text))
                for infon in parsed.relinfons
            ],
            stats=stats,
        ),
        links_by_type,
    )
