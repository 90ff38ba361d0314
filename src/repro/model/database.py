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

A retained database keeps what its relations still need and nothing else.
Until a relation is built it holds the scanner's compact output for it (one
visible-text string, integer marks, the raw hrefs); building ANCHOR drops
the hrefs and label marks, and once ANCHOR and the forward targets both
exist the resolved links go too, leaving the link count that
:meth:`NodeDatabase.tuple_count` reads.  What a cached page costs is
``retained_bytes_per_page`` of ``tools/profile_hotpath.py --workload build``.
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
    repeatedly — the relations themselves and the per-:class:`LinkType`
    destinations — is derived once, on first need, and kept.  ``document``
    is a plain attribute; ``anchor`` and ``relinfon`` build their table on
    first read.  What only feeds a derivation is dropped once nothing is
    left to derive from it: the hrefs and label marks with ANCHOR, the
    resolved links once ANCHOR and the destinations both exist.
    """

    __slots__ = (
        "url", "document", "_parsed", "_stats",
        "_anchor", "_relinfon", "_links", "_link_count", "_forward_targets",
    )

    def __init__(
        self, url: Url, parsed: ParsedDocument, length: int, stats: "object | None" = None
    ) -> None:
        self.url = url
        self.document = Table.from_columns(
            DOCUMENT_SCHEMA, ((str(url),), (parsed.title,), (parsed.text,), (length,)), stats=stats
        )
        #: What ANCHOR and RELINFON are built from, owned by this database:
        #: it drops each column's marks once that column is joined, and the
        #: visible text after the last; building ANCHOR takes its anchors.
        self._parsed = parsed
        self._stats = stats
        self._anchor: Table | None = None
        self._relinfon: Table | None = None
        self._links: tuple[list[int], list[Url], list[str]] | None = None
        self._link_count: int | None = None
        self._forward_targets: dict[LinkType, tuple[Url, ...]] | None = None

    def _resolved(self) -> tuple[list[int], list[Url], list[str]]:
        """The page's resolvable links as ``(anchor positions, hrefs, link
        type symbols)``, in document order; resolved once per database, and
        dropped (:meth:`_release_links`) once ANCHOR and the forward targets
        both hold what they need of them."""
        links = self._links
        if links is None:
            links = self._links = ([], [], [])
            positions, hrefs, symbols = links
            for position, href, symbol in resolved_links(self._parsed, self.url):
                positions.append(position)
                hrefs.append(href)
                symbols.append(symbol)
            self._link_count = len(positions)
        return links

    def _release_links(self) -> None:
        if self._anchor is not None and self._forward_targets is not None:
            self._links = None

    @property
    def anchor(self) -> Table:
        """ANCHOR: one row per resolvable hyperlink, in document order."""
        table = self._anchor
        if table is None:
            positions, hrefs, symbols = self._resolved()
            parsed = self._parsed
            labels = parsed.anchor_labels
            if len(positions) != len(labels):
                labels = [labels[position] for position in positions]
            table = self._anchor = Table.from_columns(
                ANCHOR_SCHEMA,
                (labels, [str(self.url)] * len(hrefs), [str(href) for href in hrefs], symbols),
                stats=self._stats,
            )
            parsed._release_anchors()
            self._release_links()
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
        """The distinct fragment-stripped destinations of the given link type.

        The forwarding step only needs where the links lead — one clone per
        destination (§3.2), however many anchors point there — so the hrefs
        are stripped and deduplicated once per database (lazily, so a node
        that never forwards does not pay) instead of per fan-out probe.
        Each destination appears once, at its first occurrence in the ANCHOR
        relation's row order.
        """
        cached = self._forward_targets
        if cached is None:
            by_symbol: dict[str, dict[Url, None]] = {ltype.value: {} for ltype in LinkType}
            __, hrefs, symbols = self._resolved()
            for href, symbol in zip(hrefs, symbols):
                by_symbol[symbol][href.without_fragment()] = None
            cached = self._forward_targets = {
                ltype: tuple(by_symbol[ltype.value]) for ltype in LinkType
            }
            self._release_links()
        return cached[ltype]

    def tuple_count(self) -> int:
        """Total tuples across the three relations (a proxy for build cost).

        The *page's* count — one DOCUMENT row, its resolvable links, its
        non-empty segments — whether or not ANCHOR or RELINFON has been
        built: the cost model charges for the pass over the document, not
        for what one query happened to read.
        """
        if self._link_count is None:
            self._resolved()
        return 1 + self._link_count + len(self._parsed.relinfon_delimiters)


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
        vice versa; the table is assembled from the pages' DOCUMENT columns
        (the same cell objects) and, with the join indexes cached on it,
        reused while its columns equal theirs: until a page is edited, added
        or removed.  ``stats`` is the *caller's*
        counters (a constructor shared between engines has none of its own),
        charged one ``documents_parsed`` per page assembled.
        """
        columns = tuple([] for __ in DOCUMENT_SCHEMA.attributes)
        for path, page in sorted(site.pages.items()):
            document = self.construct(site.url_of(path), page.html).document
            for column, cells in zip(columns, document.columns()):
                column.extend(cells)
        table = self._site_tables.get(site.name)
        if table is None or table.columns() != columns:
            table = Table.from_columns(DOCUMENT_SCHEMA, columns, stats=self._stats)
            if stats is not None:
                stats.documents_parsed += len(table)
            if len(table) <= self.cache_size:  # else some record is already gone
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
    to the tables, where a compiled plan counts its replays
    (``plan_replays``).
    """
    return NodeDatabase(url, parse_html(html), len(html), stats)
