"""The token-stream HTML parser, kept as the scanner's differential reference.

This is the tokenizer → token stream → tree-builder pair that built every
node database until the fused scanner (:func:`repro.html.parser.parse_html`)
replaced it in production; the code below is that pair, moved verbatim.  It
is per-character Python and quadratic on ``<`` / ``&`` storms, which is why
it left production — and it stays because the engine's own oracle cannot
replace it: the data-shipping reference builds its node databases through
the same ``parse_html`` the query-servers use, so a scanner bug changes both
sides of that comparison identically.  Only tests import this module; it
takes the three result types from :mod:`repro.html` so the two parsers'
outputs compare with ``==``, and shares no parsing code with the scanner.

The tokenizer targets the HTML 2.0 subset the paper works with ([6] in the
paper is RFC 1866): start tags with attributes, end tags, comments, and
character data.  It never raises on sloppy markup — unclosed quotes and bare
``<`` characters are treated as data, matching how 1999-era browsers (and
therefore 1999-era pages) behaved.  Entities ``&amp; &lt; &gt; &quot; &#...;``
are decoded in text and attribute values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Union

from ..html import Anchor, ParsedDocument, RelInfon  # result types only

__all__ = [
    "StartTag", "EndTag", "Text", "Comment", "Token",
    "decode_entities", "tokenize", "parse_html",
]


@dataclass(frozen=True, slots=True)
class StartTag:
    """``<name attr="value" ...>``; ``self_closing`` covers ``<hr/>`` forms."""

    name: str
    attrs: dict[str, str] = field(default_factory=dict)
    self_closing: bool = False


@dataclass(frozen=True, slots=True)
class EndTag:
    """``</name>``."""

    name: str


@dataclass(frozen=True, slots=True)
class Text:
    """A run of character data with entities decoded."""

    data: str


@dataclass(frozen=True, slots=True)
class Comment:
    """``<!-- ... -->`` (also swallows ``<!DOCTYPE ...>`` declarations)."""

    data: str


Token = Union[StartTag, EndTag, Text, Comment]

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": " "}


def decode_entities(text: str) -> str:
    """Decode the small set of entities used by the generator and test pages."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end == -1 or end - i > 10:
            out.append(ch)
            i += 1
            continue
        name = text[i + 1 : end]
        # Outside input: past U+10FFFF chr() raises, and a surrogate is text no
        # UTF-8 encoder (the wire codec) accepts.  Both stay literal text.
        if name.startswith("#") and name[1:].isascii() and name[1:].isdigit():
            code = int(name[1:])
            valid = code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF
            out.append(chr(code) if valid else text[i : end + 1])
        elif name.lower() in _ENTITIES:
            out.append(_ENTITIES[name.lower()])
        else:
            out.append(text[i : end + 1])
        i = end + 1
    return "".join(out)


def tokenize(html: str) -> Iterator[Token]:
    """Yield :data:`Token` objects for ``html``.

    Tag and attribute names are lower-cased.  Malformed constructs degrade to
    :class:`Text` rather than raising.
    """
    i = 0
    n = len(html)
    text_start = 0
    while i < n:
        if html[i] != "<":
            i += 1
            continue
        # Flush pending character data.
        if i > text_start:
            yield Text(decode_entities(html[text_start:i]))
        if html.startswith("<!--", i):
            end = html.find("-->", i + 4)
            if end == -1:
                yield Text(html[i:])
                return
            yield Comment(html[i + 4 : end].strip())
            i = end + 3
        elif html.startswith("<!", i):
            end = html.find(">", i + 2)
            if end == -1:
                yield Text(html[i:])
                return
            yield Comment(html[i + 2 : end].strip())
            i = end + 1
        else:
            token, i_next = _read_tag(html, i)
            if token is None:
                # A bare '<' — treat it as text and move on.
                yield Text("<")
                i += 1
            else:
                yield token
                i = i_next
        text_start = i
    if text_start < n:
        yield Text(decode_entities(html[text_start:]))


def _read_tag(html: str, start: int) -> tuple[Token | None, int]:
    """Read one ``<...>`` tag starting at ``start``; ``(None, _)`` if malformed."""
    end = html.find(">", start + 1)
    if end == -1:
        return None, start
    body = html[start + 1 : end].strip()
    if not body:
        return None, start
    closing = body.startswith("/")
    if closing:
        name = body[1:].strip().lower()
        if not _is_tag_name(name):
            return None, start
        return EndTag(name), end + 1
    self_closing = body.endswith("/")
    if self_closing:
        body = body[:-1].rstrip()
    name, _, attr_text = _partition_name(body)
    if not _is_tag_name(name):
        return None, start
    return StartTag(name.lower(), _parse_attrs(attr_text), self_closing), end + 1


def _partition_name(body: str) -> tuple[str, str, str]:
    for idx, ch in enumerate(body):
        if ch.isspace():
            return body[:idx], " ", body[idx + 1 :]
    return body, "", ""


def _is_tag_name(name: str) -> bool:
    return bool(name) and name[0].isalpha() and all(c.isalnum() or c in "-_:" for c in name)


def _parse_attrs(text: str) -> dict[str, str]:
    """Parse ``key="value" key='v' key=v key`` attribute text."""
    attrs: dict[str, str] = {}
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        key_start = i
        while i < n and not text[i].isspace() and text[i] != "=":
            i += 1
        key = text[key_start:i].lower()
        while i < n and text[i].isspace():
            i += 1
        if i < n and text[i] == "=":
            i += 1
            while i < n and text[i].isspace():
                i += 1
            if i < n and text[i] in "\"'":
                quote = text[i]
                close = text.find(quote, i + 1)
                if close == -1:
                    value, i = text[i + 1 :], n
                else:
                    value, i = text[i + 1 : close], close + 1
            else:
                val_start = i
                while i < n and not text[i].isspace():
                    i += 1
                value = text[val_start:i]
            attrs[key] = decode_entities(value)
        elif key:
            attrs[key] = ""
    return attrs


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
