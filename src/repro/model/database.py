"""Per-node temporary databases of virtual relations.

To process a node-query, a query-server "dynamically creates a temporary
in-memory database of the virtual relations associated with the document"
and purges it afterwards (paper Section 2.4).  The Database Constructor
makes "a single pass over the associated document" building the DOCUMENT,
ANCHOR and RELINFON tuples (paper Section 4.4).  Sites expecting repeated
queries may retain databases in a bounded cache (footnote 3).

The single pass is the scanner's (:func:`repro.html.parser.parse_html`); a
:class:`NodeDatabase` then *builds each relation on its first read*.
DOCUMENT exists from construction — every visit reads it.  ANCHOR and
RELINFON are joined, resolved and laid out as columns when a node-query (or
anyone else) first asks for them, so a relation nobody reads is never built:
it is absent, not empty, and asking always gets the page's rows.  What the
*cost model* charges does not depend on who asked:
:meth:`NodeDatabase.tuple_count` is the page's tuple count — what the
single pass found — whether or not anything was materialised.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import SchemaError
from ..html.parser import ParsedDocument, parse_html, resolved_links
from ..urlutils import Url
from .relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA, LinkType
from ..relational.table import Table

__all__ = ["NodeDatabase", "DatabaseConstructor"]


class NodeDatabase:
    """The three virtual relations for one node, ready for node-queries.

    Databases are read-only once built, so what the hot path needs
    repeatedly — the relations themselves, the resolved links and the
    per-:class:`LinkType` destinations — is derived once, on first need,
    and kept.  ``document`` is a plain attribute; ``anchor`` and
    ``relinfon`` build their table on first read.
    """

    __slots__ = (
        "url", "document", "_parsed", "_stats",
        "_anchor", "_relinfon", "_links", "_forward_targets",
    )

    def __init__(
        self, url: Url, parsed: ParsedDocument, length: int, stats: "object | None" = None
    ) -> None:
        self.url = url
        self.document = Table(
            DOCUMENT_SCHEMA, [(str(url), parsed.title, parsed.text, length)], stats=stats
        )
        #: What ANCHOR and RELINFON are built from; it drops its runs and
        #: marks itself once text, labels and segments have all been joined.
        self._parsed = parsed
        self._stats = stats
        self._anchor: Table | None = None
        self._relinfon: Table | None = None
        self._links: tuple[list[int], list[Url], list[str]] | None = None
        self._forward_targets: dict[LinkType, tuple[Url, ...]] | None = None

    def _resolved(self) -> tuple[list[int], list[Url], list[str]]:
        """The page's resolvable links as ``(anchor positions, hrefs, link
        type symbols)``, in document order; resolved once per database."""
        links = self._links
        if links is None:
            links = self._links = ([], [], [])
            positions, hrefs, symbols = links
            for position, href, symbol in resolved_links(self._parsed, self.url):
                positions.append(position)
                hrefs.append(href)
                symbols.append(symbol)
        return links

    @property
    def anchor(self) -> Table:
        """ANCHOR: one row per resolvable hyperlink, in document order."""
        table = self._anchor
        if table is None:
            positions, hrefs, symbols = self._resolved()
            labels = self._parsed.anchor_labels
            if len(positions) != len(labels):
                labels = [labels[position] for position in positions]
            table = self._anchor = Table.from_columns(
                ANCHOR_SCHEMA,
                (labels, [str(self.url)] * len(hrefs), [str(href) for href in hrefs], symbols),
                stats=self._stats,
            )
        return table

    @property
    def relinfon(self) -> Table:
        """RELINFON: one row per non-empty delimiter-scoped segment."""
        table = self._relinfon
        if table is None:
            parsed = self._parsed
            texts = parsed.relinfon_texts
            table = self._relinfon = Table.from_columns(
                RELINFON_SCHEMA,
                (
                    parsed.relinfon_delimiters,
                    [str(self.url)] * len(texts),
                    texts,
                    [len(text) for text in texts],
                ),
                stats=self._stats,
            )
        return table

    def relation(self, name: str) -> Table:
        """Look up a virtual relation by its lowercase name."""
        if name == "document":
            return self.document
        if name == "anchor":
            return self.anchor
        if name == "relinfon":
            return self.relinfon
        raise SchemaError(f"no virtual relation named {name!r}")

    def forward_targets(self, ltype: LinkType) -> tuple[Url, ...]:
        """Fragment-stripped destinations of the given link type.

        The forwarding step only needs where each link leads, so the hrefs
        are stripped once per database (lazily, so a node that never
        forwards does not pay) instead of per fan-out probe.  Order is the
        ANCHOR relation's row order.
        """
        cached = self._forward_targets
        if cached is None:
            by_symbol: dict[str, list[Url]] = {ltype.value: [] for ltype in LinkType}
            __, hrefs, symbols = self._resolved()
            for href, symbol in zip(hrefs, symbols):
                by_symbol[symbol].append(href.without_fragment())
            cached = self._forward_targets = {
                ltype: tuple(by_symbol[ltype.value]) for ltype in LinkType
            }
        return cached[ltype]

    def tuple_count(self) -> int:
        """Total tuples across the three relations (a proxy for build cost).

        The *page's* count — one DOCUMENT row, its resolvable links, its
        non-empty segments — whether or not ANCHOR or RELINFON has been
        built: the cost model charges for the pass over the document, not
        for what one query happened to read.
        """
        return 1 + len(self._resolved()[0]) + len(self._parsed.relinfon_delimiters)


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
                if self._stats is not None:
                    self._stats.db_cache_hits += 1
                return record[1]
            self._drop(key)  # the page was edited
        self.misses += 1
        if self._stats is not None:
            self._stats.db_cache_misses += 1
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

    The pass and DOCUMENT happen here; ANCHOR and RELINFON on first read.
    ``stats`` threads the :class:`~repro.net.stats.TrafficStats` mirror down
    to the tables' join-index counters (``index_builds`` / ``index_hits``).
    """
    return NodeDatabase(url, parse_html(html), len(html), stats)
