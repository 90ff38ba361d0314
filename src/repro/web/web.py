"""The Web container: a directed graph of pages across sites."""

from __future__ import annotations

from typing import Iterator

from ..errors import WebDisError
from ..html.parser import parse_html, resolved_links
from ..urlutils import Url
from .site import Site

__all__ = ["Web"]


class Web:
    """A set of :class:`Site` objects addressable by URL.

    This is the ground truth the simulated network serves.  ``html_for``
    returns ``None`` for URLs that do not resolve — those are the paper's
    "floating links" (Section 1.2), which the link-maintenance application
    detects.
    """

    def __init__(self) -> None:
        self._sites: dict[str, Site] = {}

    # -- construction -------------------------------------------------------

    def add_site(self, site: Site) -> Site:
        if site.name in self._sites:
            raise WebDisError(f"duplicate site {site.name!r}")
        self._sites[site.name] = site
        return site

    def ensure_site(self, name: str) -> Site:
        """Return the site called ``name``, creating it when absent."""
        name = name.lower()
        site = self._sites.get(name)
        if site is None:
            site = self.add_site(Site(name))
        return site

    # -- lookup ---------------------------------------------------------------

    @property
    def site_names(self) -> list[str]:
        return sorted(self._sites)

    def site(self, name: str) -> Site:
        try:
            return self._sites[name.lower()]
        except KeyError:
            raise WebDisError(f"no site named {name!r}") from None

    def html_for(self, url: Url) -> str | None:
        """The HTML at ``url`` (fragment ignored), or ``None`` when floating."""
        site = self._sites.get(url.host)
        if site is None:
            return None
        page = site.page_at(url.path)
        return page.html if page is not None else None

    def resolves(self, url: Url) -> bool:
        return self.html_for(url) is not None

    def urls(self) -> Iterator[Url]:
        """Every page URL, sorted for determinism."""
        for name in sorted(self._sites):
            site = self._sites[name]
            for path in sorted(site.pages):
                yield Url(name, path)

    def page_count(self) -> int:
        return sum(len(site) for site in self._sites.values())

    def total_bytes(self) -> int:
        """Total HTML bytes across the Web (the data-shipping worst case)."""
        return sum(
            len(page.html) for site in self._sites.values() for page in site.pages.values()
        )

    # -- graph analysis --------------------------------------------------------

    def out_links(self, url: Url) -> list[tuple[Url, str]]:
        """Parsed, classified outgoing links of the page at ``url``.

        Returns ``(href, ltype_symbol)`` pairs; unresolvable hrefs are
        skipped, matching the Database Constructor's behaviour.
        """
        html = self.html_for(url)
        if html is None:
            return []
        links = resolved_links(parse_html(html), url.without_fragment())
        return [(href, symbol) for __, href, symbol in links]

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        """Export the link graph as a ``networkx.DiGraph`` (edge attr ``ltype``)."""
        import networkx as nx

        graph = nx.DiGraph()
        for url in self.urls():
            graph.add_node(str(url), site=url.host)
        for url in self.urls():
            for href, ltype in self.out_links(url):
                graph.add_edge(str(url), str(href.without_fragment()), ltype=ltype)
        return graph

    def __repr__(self) -> str:
        return f"Web({len(self._sites)} sites, {self.page_count()} pages)"
