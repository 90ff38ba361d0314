"""Scenario linting: catch web-authoring mistakes before running queries.

Hand-built webs accumulate the same defects — dangling hrefs, pages no
query can ever reach, duplicate titles that make ``contains`` predicates
ambiguous, contentless pages.  :func:`lint_web` sweeps a
:class:`~repro.web.web.Web` and returns structured findings; the CLI's
``lint`` command wraps it.

Findings are advisory (a web with floating links is *valid* — the engine
treats them as the paper's floating links) except ``error``-severity ones,
which almost certainly mean the scenario will not do what its author
intended.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..html.parser import ParsedDocument, parse_html, resolved_links
from ..urlutils import Url, parse_url
from .web import Web

__all__ = ["Finding", "LintReport", "lint_web"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One lint finding."""

    severity: str  # "error" | "warning" | "info"
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code} {self.subject}: {self.message}"


@dataclass
class LintReport:
    """All findings for one web."""

    findings: list[Finding]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_code(self, code: str) -> list[Finding]:
        return [f for f in self.findings if f.code == code]

    def render(self) -> str:
        if not self.findings:
            return "web lint: clean"
        lines = [f"web lint: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        lines += [str(f) for f in self.findings]
        return "\n".join(lines)


def lint_web(web: Web, roots: list[str] | None = None) -> LintReport:
    """Sweep ``web`` for authoring defects.

    ``roots`` (URL strings) enable the reachability check; when omitted,
    each site's lexicographically first page is treated as a root.

    Checks:

    * ``floating-link`` (warning) — href resolves to no page;
    * ``unreachable-page`` (warning) — no link path from any root;
    * ``empty-site`` (error) — a site with zero pages;
    * ``no-title`` (warning) — page with an empty ``<title>``;
    * ``duplicate-title`` (info) — same title on several pages of one site;
    * ``empty-page`` (warning) — page with no visible text at all;
    * ``self-link-only`` (info) — page whose only links point at itself.
    """
    findings: list[Finding] = []

    for site_name in web.site_names:
        site = web.site(site_name)
        if not site.pages:
            findings.append(
                Finding("error", "empty-site", site_name, "site has no pages")
            )

    titles_by_site: dict[str, dict[str, list[str]]] = {}
    parsed_pages: dict[tuple[str, str], ParsedDocument] = {}  # by (host, path)
    for url in web.urls():
        html = web.html_for(url)
        assert html is not None
        parsed = parsed_pages[url.host, url.path] = parse_html(html)
        subject = str(url)
        if not parsed.title:
            findings.append(
                Finding("warning", "no-title", subject, "page has an empty <title>")
            )
        else:
            titles_by_site.setdefault(url.host, {}).setdefault(
                parsed.title, []
            ).append(subject)
        if not parsed.text:
            findings.append(
                Finding("warning", "empty-page", subject, "page has no visible text")
            )
        targets = [
            href.without_fragment() for __, href, __ in resolved_links(parsed, url)
        ]
        for target in targets:
            if not web.resolves(target):
                findings.append(
                    Finding(
                        "warning", "floating-link", subject,
                        f"links to nonexistent {target}",
                    )
                )
        if targets and all(target == url for target in targets):
            findings.append(
                Finding("info", "self-link-only", subject, "all links point at itself")
            )

    for site_name, titles in titles_by_site.items():
        for title, pages in titles.items():
            if len(pages) > 1:
                findings.append(
                    Finding(
                        "info", "duplicate-title", site_name,
                        f"title {title!r} appears on {len(pages)} pages",
                    )
                )

    findings.extend(_reachability_findings(web, roots, parsed_pages))
    return LintReport(findings)


def _reachability_findings(
    web: Web, roots: list[str] | None, parsed_pages: dict[tuple[str, str], ParsedDocument]
) -> list[Finding]:
    if roots is None:
        root_urls = []
        for site_name in web.site_names:
            site = web.site(site_name)
            if site.pages:
                root_urls.append(Url(site_name, sorted(site.pages)[0]))
    else:
        root_urls = [parse_url(text).without_fragment() for text in roots]

    reachable: set[Url] = set()
    frontier = deque(u for u in root_urls if web.resolves(u))
    reachable.update(frontier)
    while frontier:
        url = frontier.popleft()
        for __, href, __ in resolved_links(parsed_pages[url.host, url.path], url):
            target = href.without_fragment()
            if target not in reachable and web.resolves(target):
                reachable.add(target)
                frontier.append(target)

    return [
        Finding(
            "warning", "unreachable-page", str(url),
            "no link path from any root reaches this page",
        )
        for url in web.urls()
        if url not in reachable
    ]
