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
    rows = []
    for url, html in pages:
        parsed = parse_html(html)
        rows.append((str(url.without_fragment()), parsed.title, parsed.text, len(html)))
    return Table(DOCUMENT_SCHEMA, rows, stats=stats)


def site_documents_for(
    query, web, site_name: str, cache: "dict[str, Table]", stats
) -> Table | None:
    """The site-spanning DOCUMENT table for ``site_name``, built on first need.

    Only web-queries with sitewide document aliases (§7.1 multi-document
    node-queries) pay for it, once per ``cache`` — the caller's per-process
    dict, so a crash that drops the dict drops the tables.  Built from the
    web ground truth; a central engine uses that as a stand-in for pages it
    would have downloaded anyway.  ``stats`` is charged the parses and
    mirrors the table's join-index counters.
    """
    if not any(step.query.sitewide_aliases for step in query.steps):
        return None
    table = cache.get(site_name)
    if table is None and web.has_site(site_name):
        site = web.site(site_name)
        pages = [(site.url_of(path), page.html) for path, page in sorted(site.pages.items())]
        table = cache[site_name] = build_documents_table(pages, stats=stats)
        stats.documents_parsed += len(pages)
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
    base = str(url)
    # A <base href> redirects *resolution* of relative hrefs (HTML 2.0
    # §5.2.2); link classification still compares destinations against the
    # document's actual URL, since I/L/G is about where the link leads
    # relative to where the document lives.
    resolve_base = url
    if parsed.base_href:
        try:
            resolve_base = parse_url(parsed.base_href, base=url)
        except UrlError:
            pass
    anchor_rows = []
    links_by_type: dict[LinkType, list[Url]] = {ltype: [] for ltype in LinkType}
    for anchor in parsed.anchors:
        try:
            href = parse_url(anchor.href, base=resolve_base)
        except UrlError:
            # Unresolvable hrefs (empty, malformed) carry no traversal value.
            continue
        ltype = LinkType.from_symbol(classify_link(url, href))
        anchor_rows.append((anchor.label, base, str(href), ltype.value))
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
