"""HTML document analysis for virtual-relation construction.

A single pass over the token stream (mirroring the paper's Database
Constructor, Section 4.4) produces everything the three virtual relations
need:

* the ``<title>`` and the visible text for DOCUMENT,
* every ``<a href=...>label</a>`` for ANCHOR,
* *rel-infon* segments for RELINFON.

Rel-infons (from reference [12] of the paper) are delimiter-scoped regions of
the document.  Two delimiter styles are supported:

* **container tags** (``b``, ``i``, ``h1`` ... ``font``): the rel-infon is
  the text enclosed by the tag pair;
* **void tags** (``hr``, ``br``): the rel-infon is the text block *preceding*
  each occurrence — the paper's example query matches a convener name that
  "is usually succeeded by a horizontal line" with ``delimiter = "hr"``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .tokenizer import EndTag, StartTag, Text, tokenize

__all__ = ["Anchor", "RelInfon", "ParsedDocument", "parse_html", "VOID_TAGS"]

#: Tags that never contain content; for these a rel-infon is the preceding block.
VOID_TAGS = frozenset({"hr", "br", "img", "meta", "input", "link", "base"})

#: Tags whose content is invisible and must not leak into DOCUMENT.text.
_INVISIBLE_TAGS = frozenset({"script", "style", "title"})

#: Structural containers that never form rel-infons of their own.
_STRUCTURAL_TAGS = frozenset({"html", "head", "body"})

#: Tags that terminate the "preceding block" used for void-tag rel-infons.
_BLOCK_TAGS = frozenset(
    {"p", "div", "td", "th", "tr", "table", "ul", "ol", "li", "h1", "h2", "h3", "h4", "h5", "h6", "hr", "br", "body", "html"}
)


@dataclass(frozen=True, slots=True)
class Anchor:
    """One hyperlink: the anchor ``label`` text and the raw ``href`` string."""

    label: str
    href: str


@dataclass(frozen=True, slots=True)
class RelInfon:
    """One delimiter-scoped text segment (``delimiter`` is the tag name)."""

    delimiter: str
    text: str


@dataclass(frozen=True, slots=True)
class ParsedDocument:
    """The structural summary of one HTML document.

    Attributes:
        title: content of the first ``<title>`` element ("" when absent).
        text: whitespace-normalized visible text of the document.
        anchors: hyperlinks in document order.
        relinfons: delimiter-scoped segments in document order; segments for
            *every* delimiter tag present are collected so that RELINFON can
            be filtered per query without re-parsing.
        base_href: the first ``<base href=...>`` value, if any — relative
            hyperlinks resolve against it instead of the document URL
            (HTML 2.0 §5.2.2).
    """

    title: str
    text: str
    anchors: tuple[Anchor, ...]
    relinfons: tuple[RelInfon, ...]
    base_href: str | None = None


def normalize_space(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip the ends."""
    return " ".join(text.split())


def parse_html(html: str) -> ParsedDocument:
    """Parse ``html`` into a :class:`ParsedDocument` in one pass."""
    title_parts: list[str] = []
    text_parts: list[str] = []
    anchors: list[Anchor] = []
    relinfons: list[RelInfon] = []

    in_title = False
    invisible_depth = 0
    base_href: str | None = None
    # Stack of (tag, text-part-count-at-open) for open container delimiters;
    # the count marks where the container's inner text starts.
    container_stack: list[tuple[str, int]] = []
    open_counts: Counter[str] = Counter()  # open containers per tag name
    # Text accumulated since the last block boundary (for void-tag infons).
    block_parts: list[str] = []
    current_anchor_href: str | None = None
    anchor_label_parts: list[str] = []

    for token in tokenize(html):
        if isinstance(token, Text):
            if in_title:
                title_parts.append(token.data)
            elif invisible_depth == 0:
                text_parts.append(token.data)
                block_parts.append(token.data)
                if current_anchor_href is not None:
                    anchor_label_parts.append(token.data)
            continue

        if isinstance(token, StartTag):
            name = token.name
            if name == "title":
                in_title = True
            elif name in _INVISIBLE_TAGS:
                invisible_depth += 1
            elif name == "a":
                href = token.attrs.get("href")
                if href is not None:
                    current_anchor_href = href
                    anchor_label_parts = []
            elif name == "base" and base_href is None:
                base_href = token.attrs.get("href")
            if name in VOID_TAGS:
                block = normalize_space("".join(block_parts))
                if block:
                    relinfons.append(RelInfon(name, block))
                block_parts = []
            elif not token.self_closing:
                container_stack.append((name, len(text_parts)))
                open_counts[name] += 1
                if name in _BLOCK_TAGS:
                    block_parts = []
            continue

        if isinstance(token, EndTag):
            name = token.name
            if name == "title":
                in_title = False
            elif name in _INVISIBLE_TAGS:
                invisible_depth = max(0, invisible_depth - 1)
            elif name == "a" and current_anchor_href is not None:
                anchors.append(
                    Anchor(normalize_space("".join(anchor_label_parts)), current_anchor_href)
                )
                current_anchor_href = None
                anchor_label_parts = []
            if open_counts[name]:
                # Pop the innermost open ``name``; unclosed tags above it close
                # implicitly, without segments (period browsers' recovery).  An
                # end tag with no open partner never gets here, and every entry
                # scanned is popped, so closing costs what opening did.
                while True:
                    tag, start = container_stack.pop()
                    open_counts[tag] -= 1
                    if tag == name:
                        break
                if name not in _STRUCTURAL_TAGS:
                    inner = normalize_space("".join(text_parts[start:]))
                    if inner:
                        relinfons.append(RelInfon(name, inner))
            if name in _BLOCK_TAGS:
                block_parts = []
            continue
        # Comments carry no model content.

    return ParsedDocument(
        title=normalize_space("".join(title_parts)),
        text=normalize_space("".join(text_parts)),
        anchors=tuple(anchors),
        relinfons=tuple(relinfons),
        base_href=base_href,
    )
