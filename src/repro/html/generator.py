"""Synthetic HTML page rendering.

Web builders (:mod:`repro.web`) describe pages structurally — title,
paragraphs, links, emphasized segments — and this module renders them to real
HTML text.  The rendered text then flows through the *actual* scanner
(:mod:`repro.html.parser`) when a query-server constructs its virtual
relations, so the whole pipeline is exercised exactly as it would be on live
pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["PageSpec", "render_page"]


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return _escape(text).replace('"', "&quot;")


@dataclass(frozen=True, slots=True)
class PageSpec:
    """A declarative description of one synthetic HTML page.

    Attributes:
        title: the ``<title>`` content.
        paragraphs: plain-text paragraphs rendered as ``<p>`` blocks.
        links: ``(label, href)`` pairs rendered as one ``<li><a>`` each.
        emphasized: ``(tag, text)`` pairs rendered as container segments,
            e.g. ``("b", "Breaking news")`` — these become rel-infons with
            that delimiter.
        ruled: text blocks each followed by an ``<hr>`` — these become
            rel-infons with delimiter ``hr`` (the paper's convener idiom).
        padding: extra filler words appended to inflate the document length;
            used by benchmarks to control document sizes.
    """

    title: str
    paragraphs: Sequence[str] = ()
    links: Sequence[tuple[str, str]] = ()
    emphasized: Sequence[tuple[str, str]] = ()
    ruled: Sequence[str] = ()
    padding: int = 0
    extra_head: str = ""

    def word_estimate(self) -> int:
        """Rough visible word count; handy for sizing assertions in tests."""
        words = len(self.title.split()) + self.padding
        for paragraph in self.paragraphs:
            words += len(paragraph.split())
        for label, __ in self.links:
            words += len(label.split())
        for __, text in self.emphasized:
            words += len(text.split())
        for text in self.ruled:
            words += len(text.split())
        return words


_FILLER_WORDS = (
    "research", "systems", "database", "network", "campus", "laboratory",
    "faculty", "publications", "projects", "seminar", "archive", "resources",
)


def render_page(spec: PageSpec) -> str:
    """Render ``spec`` to an HTML string."""
    parts: list[str] = [
        "<html>",
        "<head>",
        f"<title>{_escape(spec.title)}</title>",
    ]
    if spec.extra_head:
        parts.append(spec.extra_head)
    parts += ["</head>", "<body>", f"<h1>{_escape(spec.title)}</h1>"]

    for paragraph in spec.paragraphs:
        parts.append(f"<p>{_escape(paragraph)}</p>")

    for tag, text in spec.emphasized:
        parts.append(f"<{tag}>{_escape(text)}</{tag}>")

    for text in spec.ruled:
        # The text sits directly before an <hr> (no block wrapper) so the
        # parser attributes it to the horizontal rule as a rel-infon.
        parts.append(_escape(text))
        parts.append("<hr>")

    if spec.links:
        parts.append("<ul>")
        for label, href in spec.links:
            parts.append(f'<li><a href="{_escape_attr(href)}">{_escape(label)}</a></li>')
        parts.append("</ul>")

    if spec.padding:
        filler = " ".join(_FILLER_WORDS[i % len(_FILLER_WORDS)] for i in range(spec.padding))
        parts.append(f"<p>{filler}</p>")

    parts += ["</body>", "</html>"]
    return "\n".join(parts)
