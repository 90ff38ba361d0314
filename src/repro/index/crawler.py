"""A breadth-first crawler over the simulated Web.

Building a search index is precisely the workload the paper's introduction
uses to motivate query shipping: "search engines ... have to import
millions of documents from various web-sites".  The crawler therefore
*accounts what it moves* — pages fetched and bytes transferred — so benches
can compare an index build against shipping the equivalent query.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..html.parser import parse_html, resolved_links
from ..urlutils import Url, parse_url
from ..web.web import Web
from .inverted import InvertedIndex

__all__ = ["CrawlResult", "crawl"]


@dataclass
class CrawlResult:
    """Everything one crawl produced and cost."""

    index: InvertedIndex
    pages_fetched: int = 0
    bytes_fetched: int = 0
    frontier_exhausted: bool = True
    visited: list[Url] = field(default_factory=list)


def crawl(
    web: Web,
    seeds: list[str],
    *,
    max_pages: int = 10_000,
    follow_global: bool = True,
) -> CrawlResult:
    """Breadth-first crawl from ``seeds``, indexing every fetched page."""
    result = CrawlResult(InvertedIndex())
    frontier: deque[Url] = deque()
    seen: set[Url] = set()
    for seed in seeds:
        url = parse_url(seed).without_fragment()
        if url not in seen:
            seen.add(url)
            frontier.append(url)

    while frontier:
        if result.pages_fetched >= max_pages:
            result.frontier_exhausted = False
            break
        url = frontier.popleft()
        html = web.html_for(url)
        if html is None:
            continue  # floating link; a crawler just skips it
        result.pages_fetched += 1
        result.bytes_fetched += len(html)
        result.visited.append(url)
        parsed = parse_html(html)
        result.index.add_document(url, parsed.title, parsed.text)
        for __, href, ltype in resolved_links(parsed, url):
            if ltype == "I" or (ltype == "G" and not follow_global):
                continue
            target = href.without_fragment()
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return result
