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

from ..errors import SchemaError, UrlError
from ..html.parser import ParsedDocument, parse_html
from ..urlutils import Url, classify_link, parse_url
from .relations import (
    ANCHOR_SCHEMA,
    DOCUMENT_SCHEMA,
    RELINFON_SCHEMA,
    AnchorTuple,
    DocumentTuple,
    LinkType,
    RelInfonTuple,
)
from ..relational.table import Table

__all__ = ["NodeDatabase", "DatabaseConstructor"]


class NodeDatabase:
    """The three virtual relations for one node, ready for node-queries.

    Databases are read-only once built, so lookup structures the hot path
    needs repeatedly — the name→relation map and the per-:class:`LinkType`
    anchor buckets — are precomputed here instead of being rebuilt on every
    :meth:`relation` / :meth:`outgoing_links` call.
    """

    __slots__ = (
        "url", "document", "anchor", "relinfon", "_anchors",
        "_relations", "_links_by_type", "_forward_targets",
    )

    def __init__(
        self,
        url: Url,
        document: DocumentTuple,
        anchors: tuple[AnchorTuple, ...],
        relinfons: tuple[RelInfonTuple, ...],
        stats: "object | None" = None,
    ) -> None:
        self.url = url
        self._anchors = anchors
        self.document = Table(DOCUMENT_SCHEMA, [document.as_row()], stats=stats)
        self.anchor = Table(ANCHOR_SCHEMA, [a.as_row() for a in anchors], stats=stats)
        self.relinfon = Table(RELINFON_SCHEMA, [r.as_row() for r in relinfons], stats=stats)
        self._relations = {
            "document": self.document,
            "anchor": self.anchor,
            "relinfon": self.relinfon,
        }
        buckets: dict[LinkType, list[AnchorTuple]] = {ltype: [] for ltype in LinkType}
        for anchor in anchors:
            buckets[anchor.ltype].append(anchor)
        self._links_by_type = buckets
        self._forward_targets: dict[LinkType, tuple[Url, ...]] | None = None

    def relation(self, name: str) -> Table:
        """Look up a virtual relation by its lowercase name."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no virtual relation named {name!r}") from None

    def outgoing_links(self, ltype: LinkType) -> list[AnchorTuple]:
        """Anchors of the given link type; the forwarding step's input.

        Returns the precomputed bucket — callers must treat it as read-only.
        """
        return self._links_by_type[ltype]

    def forward_targets(self, ltype: LinkType) -> tuple[Url, ...]:
        """Fragment-stripped destinations of the given link type.

        The columnar layout's per-:class:`LinkType` anchor *selection*: the
        forwarding step only needs where each link leads, so the hrefs are
        materialized once per database (lazily, so row-only consumers never
        pay) instead of re-stripping fragments per fan-out probe.  Order
        matches :meth:`outgoing_links`.
        """
        cached = self._forward_targets
        if cached is None:
            cached = self._forward_targets = {
                bucket_type: tuple(a.href.without_fragment() for a in bucket)
                for bucket_type, bucket in self._links_by_type.items()
            }
        return cached[ltype]

    def tuple_count(self) -> int:
        """Total tuples across the three relations (a proxy for build cost)."""
        return len(self.document) + len(self.anchor) + len(self.relinfon)


class DatabaseConstructor:
    """Builds (and optionally caches) :class:`NodeDatabase` objects.

    Args:
        cache_size: number of node databases to retain (LRU).  ``0`` is the
            paper's default behaviour — construct, use, purge.
        stats: optional :class:`~repro.net.stats.TrafficStats` mirror for
            the hit/miss counters (``db_cache_hits`` / ``db_cache_misses``
            / ``parse_cache_hits``).
    """

    def __init__(self, cache_size: int = 0, stats: "object | None" = None) -> None:
        self._cache_size = cache_size
        self._stats = stats
        self._cache: OrderedDict[Url, NodeDatabase] = OrderedDict()
        #: Parsed documents, shared *across* LRU evictions: an evicted
        #: database that comes back only re-runs tuple construction, never
        #: HTML tokenization — each page is tokenized at most once per
        #: constructor lifetime (i.e. per process incarnation).
        self._parsed: dict[Url, tuple[str, ParsedDocument]] = {}
        self.builds = 0
        self.cache_hits = 0
        self.parse_hits = 0

    def _count(self, counter: str) -> None:
        if self._stats is not None:
            setattr(self._stats, counter, getattr(self._stats, counter) + 1)

    def construct(self, url: Url, html: str) -> NodeDatabase:
        """Parse ``html`` and build the node database for ``url``."""
        key = url.without_fragment()
        if self._cache_size:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                self._count("db_cache_hits")
                return cached
        self.builds += 1
        self._count("db_cache_misses")
        entry = self._parsed.get(key)
        if entry is not None and (entry[0] is html or entry[0] == html):
            parsed = entry[1]
            self.parse_hits += 1
            self._count("parse_cache_hits")
        else:
            parsed = parse_html(html)
            self._parsed[key] = (html, parsed)
        database = build_node_database(key, html, parsed=parsed, stats=self._stats)
        if self._cache_size:
            self._cache[key] = database
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return database

    def cache_info(self) -> dict[str, int]:
        """Snapshot of both constructor caches for introspection.

        ``builds`` counts actual constructions (= misses), ``cache_hits``
        databases served without rebuilding, and ``parse_hits`` the builds
        that skipped tokenization thanks to the parsed-document cache.
        """
        return {
            "cache_size": self._cache_size,
            "cached_databases": len(self._cache),
            "parsed_documents": len(self._parsed),
            "builds": self.builds,
            "cache_hits": self.cache_hits,
            "parse_hits": self.parse_hits,
        }

    def purge(self) -> None:
        """Drop every cached database and parsed document."""
        self._cache.clear()
        self._parsed.clear()


def build_documents_table(
    pages: "list[tuple[Url, str]]", stats: "object | None" = None
) -> Table:
    """A DOCUMENT table spanning several pages (one row per page).

    This is the site-wide relation multi-document node-queries range over
    (paper §7.1 footnote 2): the extra document aliases join against every
    page of the current site, still without any inter-site communication.
    ``stats`` mirrors join-index reuse on this table — it lives for the
    server's whole incarnation, so sitewide joins are where the cached
    :meth:`~repro.relational.table.Table.index` pays off most.
    """
    table = Table(DOCUMENT_SCHEMA, stats=stats)
    for url, html in pages:
        parsed = parse_html(html)
        table.insert(
            DocumentTuple(
                url=url.without_fragment(),
                title=parsed.title,
                text=parsed.text,
                length=len(html),
            ).as_row()
        )
    return table


def build_node_database(
    url: Url,
    html: str,
    parsed: ParsedDocument | None = None,
    stats: "object | None" = None,
) -> NodeDatabase:
    """Single-pass construction of the virtual relations for ``url``.

    ``parsed`` short-circuits tokenization when the caller already holds the
    parse result (the constructor's shared parsed-document cache).
    ``stats`` threads the :class:`~repro.net.stats.TrafficStats` mirror down
    to the tables' join-index counters (``index_builds`` / ``index_hits``).
    """
    if parsed is None:
        parsed = parse_html(html)
    document = DocumentTuple(url=url, title=parsed.title, text=parsed.text, length=len(html))
    anchors = _anchor_tuples(url, parsed)
    relinfons = tuple(
        RelInfonTuple(delimiter=infon.delimiter, url=url, text=infon.text, length=len(infon.text))
        for infon in parsed.relinfons
    )
    return NodeDatabase(url, document, anchors, relinfons, stats=stats)


def _anchor_tuples(base: Url, parsed: ParsedDocument) -> tuple[AnchorTuple, ...]:
    # A <base href> redirects *resolution* of relative hrefs (HTML 2.0
    # §5.2.2); link classification still compares destinations against the
    # document's actual URL, since I/L/G is about where the link leads
    # relative to where the document lives.
    resolve_base = base
    if parsed.base_href:
        try:
            resolve_base = parse_url(parsed.base_href, base=base)
        except UrlError:
            pass
    tuples = []
    for anchor in parsed.anchors:
        try:
            href = parse_url(anchor.href, base=resolve_base)
        except UrlError:
            # Unresolvable hrefs (mailto:, malformed) carry no traversal value.
            continue
        ltype = LinkType.from_symbol(classify_link(base, href))
        tuples.append(AnchorTuple(label=anchor.label, base=base, href=href, ltype=ltype))
    return tuple(tuples)
