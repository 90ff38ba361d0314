"""HTML document analysis for virtual-relation construction.

One scanner goes from the page string straight to everything the three
virtual relations need (the paper's Database Constructor makes "a single
pass over the associated document", Section 4.4):

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

The markup rules are those of the HTML 2.0 era ([6] in the paper is RFC
1866) and of the browsers that read it: nothing raises, a ``<`` that opens
no well-formed tag is character data, an unclosed comment swallows the rest
of the page, attribute values may be quoted, unquoted or unterminated, and
``&amp; &lt; &gt; &quot; &apos; &nbsp; &#N;`` are decoded in text and
attribute values.

Pages are outside input, so the scan is linear in ``len(html)`` whatever they
contain: no pattern reads past the next ``<``, the position of the next ``>``
is remembered across the ``<`` that fail to reach it, and a character
reference is looked for within the ten characters it may span.

**What the scanner keeps.**  It joins nothing but the title.  It keeps the
visible character runs it collects anyway, and integers into them: per anchor
the href and the ``(start, end)`` run indexes of its label, per rel-infon the
delimiter and the ``(start, end)`` of its segment.  A segment with no visible
text is no rel-infon, and the scanner knows which those are without joining:
it counts *ink* — the visible runs so far that are not all whitespace
(``str.isspace`` is exactly the class ``str.split()`` splits on) — and a
segment is non-empty iff ink rose between its two ends.
:class:`ParsedDocument` joins and whitespace-normalises the text, the labels
and the segments when each is first read, and drops the runs and marks once
all three have been.  So the structural pass — and with it every count the cost model
reads — is the same whatever a query touches, and what the RELINFON model
asks for beyond it (nested containers each repeat their inner text:
``"<b>x" * N + "</b>" * N`` is N marks, and N copies only once read) is paid
by the reader.

:mod:`repro.testing.html_reference` keeps the tokenizer and tree builder this
scanner replaced; the test suite holds the two equal on every input it has.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

from ..errors import UrlError
from ..urlutils import Url, classify_link, parse_url

__all__ = ["Anchor", "RelInfon", "ParsedDocument", "parse_html", "resolved_links"]

# What the scanner does at a tag, by (lower-cased) name.  Any other name is a
# plain container: its rel-infon is the text between the tag pair.
_VOID = 1  # never has content; its rel-infon is the preceding text block
_BLOCK = 2  # ends the "preceding block" a void tag's rel-infon takes
_STRUCTURAL = 4  # a container that forms no rel-infon of its own
_HIDDEN = 8  # content is not part of DOCUMENT.text
_TITLE = 16
_ANCHOR = 32
_BASE = 64
_STATEFUL = _HIDDEN | _TITLE | _ANCHOR | _BASE  # tags that change what is being read
_TAG_KINDS = {
    **dict.fromkeys(("img", "meta", "input", "link"), _VOID),
    **dict.fromkeys(("hr", "br"), _VOID | _BLOCK),
    **dict.fromkeys(
        ("p", "div", "td", "th", "tr", "table", "ul", "ol", "li",
         "h1", "h2", "h3", "h4", "h5", "h6"),
        _BLOCK,
    ),
    **dict.fromkeys(("html", "body"), _BLOCK | _STRUCTURAL),
    "head": _STRUCTURAL,
    "script": _HIDDEN,
    "style": _HIDDEN,
    "title": _TITLE,
    "a": _ANCHOR,
    "base": _BASE | _VOID,
}

# Character data up to the next "<", then a tag written the ordinary way: an
# ASCII name right after the "<" (or "</"), attribute text with no "<" in it.
# Groups: the character data, an end tag's name, a start tag's name, its
# attribute text.  An end tag carries no attributes.  (One \s before the
# attribute text, not \s+: with [^<>]* behind it that would try every split
# of a whitespace run.)
_ORDINARY = re.compile(
    r"([^<]*)<(?:/([A-Za-z][A-Za-z0-9:_-]*)\s*>|([A-Za-z][A-Za-z0-9:_-]*)(?:\s([^<>]*))?>)"
)
# The full rule, matched just past a "<" the pattern above declined.
# Whitespace may pad the inside of a tag; a name is letters, digits and "-_:"
# by the Unicode rules of str.isalnum, which \w plus a first-character check
# reproduce.  Group 1: the name of an end tag, which must close at once.
# Group 2: the name of a start tag, which must be followed by whitespace, ">"
# or a self-closing "/>"; its ">" may be anywhere further on.  Neither
# pattern reads past the next "<".
_ANY_TAG = re.compile(r"\s*(?:/\s*([\w:-]+)\s*>|([\w:-]+)(?=[\s>]|/\s*>))")
_NAME = re.compile(r"[\w:-]+")
# One attribute: a key (empty right before a "="), then optionally "=" and a
# double-quoted, single-quoted or bare value; an unterminated quote takes the
# rest of the tag.
_ATTRIBUTE = re.compile(r"""([^\s=]+|(?==))\s*(?:=\s*(?:"([^"]*)"?|'([^']*)'?|(\S*)))?""")
# "&", at most nine characters, ";" — whatever is in between.
_REFERENCE = re.compile(r"&([^;]{0,9});")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'", "nbsp": " "}


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


class ParsedDocument:
    """The structural summary of one HTML document.

    Built by :func:`parse_html` from the scanner's runs and marks, or from
    materialised parts (what the reference parser has); the two compare
    equal when they describe the same document.

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
        anchor_hrefs / anchor_labels: ``anchors`` as two parallel columns.
        relinfon_delimiters / relinfon_texts: ``relinfons`` likewise.

    ``text``, ``anchor_labels`` and ``relinfon_texts`` are joined on first
    read; the lists are shared with every reader and must not be mutated.
    """

    __slots__ = (
        "title", "base_href", "anchor_hrefs", "relinfon_delimiters",
        "_text", "_labels", "_segments", "_runs", "_label_spans", "_segment_spans",
    )

    def __init__(
        self,
        title: str,
        text: str,
        anchors: "tuple[Anchor, ...]",
        relinfons: "tuple[RelInfon, ...]",
        base_href: str | None = None,
    ) -> None:
        self.title = title
        self.base_href = base_href
        self.anchor_hrefs = [anchor.href for anchor in anchors]
        self.relinfon_delimiters = [infon.delimiter for infon in relinfons]
        self._text: str | None = text
        self._labels: list[str] | None = [anchor.label for anchor in anchors]
        self._segments: list[str] | None = [infon.text for infon in relinfons]
        self._runs = self._label_spans = self._segment_spans = None

    @classmethod
    def _scanned(
        cls,
        title: str,
        base_href: str | None,
        runs: list[str],
        hrefs: list[str],
        label_spans: list[tuple[int, int]],
        delimiters: list[str],
        segment_spans: list[tuple[int, int]],
    ) -> "ParsedDocument":
        """What the scanner found: nothing joined yet but the title."""
        self = cls.__new__(cls)
        self.title = title
        self.base_href = base_href
        self.anchor_hrefs = hrefs
        self.relinfon_delimiters = delimiters
        self._text = self._labels = self._segments = None
        self._runs = runs
        self._label_spans = label_spans
        self._segment_spans = segment_spans
        return self

    def _joined(self, spans: list[tuple[int, int]]) -> list[str]:
        runs = self._runs
        return [" ".join("".join(runs[start:end]).split()) for start, end in spans]

    def _release(self) -> None:
        """Drop the runs and marks once nothing is left to join from them."""
        if self._text is not None and self._labels is not None and self._segments is not None:
            self._runs = self._label_spans = self._segment_spans = None

    @property
    def text(self) -> str:
        text = self._text
        if text is None:
            text = self._text = " ".join("".join(self._runs).split())
            self._release()
        return text

    @property
    def anchor_labels(self) -> list[str]:
        labels = self._labels
        if labels is None:
            labels = self._labels = self._joined(self._label_spans)
            self._release()
        return labels

    @property
    def relinfon_texts(self) -> list[str]:
        segments = self._segments
        if segments is None:
            segments = self._segments = self._joined(self._segment_spans)
            self._release()
        return segments

    @property
    def anchors(self) -> tuple[Anchor, ...]:
        return tuple(map(Anchor, self.anchor_labels, self.anchor_hrefs))

    @property
    def relinfons(self) -> tuple[RelInfon, ...]:
        return tuple(map(RelInfon, self.relinfon_delimiters, self.relinfon_texts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParsedDocument):
            return NotImplemented
        return (
            self.title == other.title
            and self.base_href == other.base_href
            and self.text == other.text
            and self.anchor_hrefs == other.anchor_hrefs
            and self.anchor_labels == other.anchor_labels
            and self.relinfon_delimiters == other.relinfon_delimiters
            and self.relinfon_texts == other.relinfon_texts
        )

    def __repr__(self) -> str:
        return (
            f"ParsedDocument(title={self.title!r}, text={self.text!r}, "
            f"anchors={self.anchors!r}, relinfons={self.relinfons!r}, "
            f"base_href={self.base_href!r})"
        )


def _reference_text(match: re.Match[str]) -> str:
    name = match[1]
    digits = name[1:]
    if name[:1] == "#" and digits.isascii() and digits.isdigit():
        # Outside input: past U+10FFFF chr() raises, and a surrogate is text
        # no UTF-8 encoder (the wire codec) accepts.  Both stay literal.
        code = int(digits)
        if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
            return chr(code)
        return match[0]
    return _ENTITIES.get(name.lower(), match[0])


def decode_entities(text: str) -> str:
    """Decode ``&name;`` and ``&#N;``; anything else that starts with ``&`` stays."""
    if "&" not in text or ";" not in text:
        return text
    return _REFERENCE.sub(_reference_text, text)


def _href(attributes: str) -> str | None:
    """The last ``href`` in a start tag's attribute text, ``None`` without one."""
    value = None
    for key, double_quoted, single_quoted, bare in _ATTRIBUTE.findall(attributes):
        if key.lower() == "href":
            value = double_quoted or single_quoted or bare
    return value if value is None else decode_entities(value)


def parse_html(html: str) -> ParsedDocument:
    """Parse ``html`` into a :class:`ParsedDocument` in one pass."""
    find = html.find
    ordinary_at = _ORDINARY.match
    kind_of = _TAG_KINDS.get
    size = len(html)
    title_runs: list[str] = []
    runs: list[str] = []  # the visible character data, in document order
    # Where character data goes: the title inside <title>, nowhere inside
    # <script> / <style>, the visible text otherwise.
    sink: list[str] | None = runs
    in_title = False
    hidden = 0  # open <script> / <style>
    ink = 0  # runs in ``runs`` that are not all whitespace
    hrefs: list[str] = []  # per anchor, with its label's span of ``runs``
    label_spans: list[tuple[int, int]] = []
    delimiters: list[str] = []  # per rel-infon, with its segment's span
    segment_spans: list[tuple[int, int]] = []
    # A block, an anchor label and a container are each the visible text from
    # some point on, so each is a mark: an index into ``runs``, and for the
    # two that form rel-infons the ink there.
    block_mark = block_ink = label_mark = 0
    open_href: str | None = None  # of the <a href> being read
    base_href: str | None = None
    containers: list[tuple[str, int, int]] = []  # open container tags, (name, mark, ink)
    open_counts: defaultdict[str, int] = defaultdict(int)  # open containers per name
    # The first ">" at or past the last place one was looked for, -1 once none
    # remains: a run of "<" that open nothing looks for its ">" once.
    gt = 0
    pos = 0
    while True:
        tag = ordinary_at(html, pos)
        if tag is not None:
            run, end_name, name, attributes = tag.groups()
            pos = tag.end()
            if run and sink is not None:
                if "&" in run:
                    run = decode_entities(run)
                sink.append(run)
                if sink is runs and not run.isspace():
                    ink += 1
        else:
            i = find("<", pos)
            if i < 0:
                i = size
            if i > pos and sink is not None:
                run = decode_entities(html[pos:i])
                sink.append(run)
                if sink is runs and not run.isspace():
                    ink += 1
            if i == size:
                break
            end_name = name = attributes = None
            tag = _ANY_TAG.match(html, i + 1)
            if tag is None:
                if html.startswith("!", i + 1):
                    # A comment is skipped to its "-->", a declaration to its
                    # ">"; without one the rest of the page is undecoded text
                    # (no mark is read after it, so its ink is not counted).
                    if html.startswith("--", i + 2):
                        end = find("-->", i + 4)
                        pos = end + 3
                    else:
                        end = find(">", i + 2)
                        pos = end + 1
                    if end >= 0:
                        continue
                    if sink is not None:
                        sink.append(html[i:])
                    break
            elif tag.lastindex == 1:
                lowered = tag[1].lower()  # which can break a name: "İ"
                if lowered[0].isalpha() and (lowered.isascii() or _NAME.fullmatch(lowered)):
                    end_name = lowered
                    pos = tag.end()
            elif tag[2][0].isalpha():
                end = tag.end()
                if 0 <= gt < end:
                    gt = find(">", end)
                if gt >= 0:
                    name = tag[2]
                    attributes = html[end:gt]
                    pos = gt + 1
            if end_name is None and name is None:
                # A "<" that opens nothing is character data.
                if sink is not None:
                    sink.append("<")
                    if sink is runs:
                        ink += 1
                pos = i + 1
                continue

        if end_name is not None:
            name = end_name.lower()
            kind = kind_of(name, 0)
            if kind & _STATEFUL:
                if kind & _TITLE:
                    in_title = False
                    sink = None if hidden else runs
                elif kind & _HIDDEN:
                    if hidden:
                        hidden -= 1
                        if not hidden and not in_title:
                            sink = runs
                elif kind & _ANCHOR and open_href is not None:
                    hrefs.append(open_href)
                    label_spans.append((label_mark, len(runs)))
                    open_href = None
            if open_counts[name]:
                # Pop the innermost open ``name``; unclosed tags above it
                # close implicitly, without segments (period browsers'
                # recovery).  An end tag with no open partner never gets
                # here, and every entry scanned is popped, so closing costs
                # what opening did.
                while True:
                    opened, mark, inked = containers.pop()
                    open_counts[opened] -= 1
                    if opened == name:
                        break
                if ink > inked and not kind & _STRUCTURAL:
                    delimiters.append(name)
                    segment_spans.append((mark, len(runs)))
            if kind & _BLOCK:
                block_mark = len(runs)
                block_ink = ink
        else:
            name = name.lower()
            kind = kind_of(name, 0)
            self_closing = False
            if attributes:
                attributes = attributes.strip()
                if attributes.endswith("/"):
                    self_closing = True
                    attributes = attributes[:-1].rstrip()
            if kind & _STATEFUL:
                if kind & _TITLE:
                    in_title = True
                    sink = title_runs
                elif kind & _HIDDEN:
                    hidden += 1
                    if not in_title:
                        sink = None
                else:
                    href = _href(attributes) if attributes else None
                    if kind & _ANCHOR:
                        if href is not None:
                            open_href = href
                            label_mark = len(runs)
                    elif base_href is None:
                        base_href = href
            if kind & _VOID:
                if ink > block_ink:
                    delimiters.append(name)
                    segment_spans.append((block_mark, len(runs)))
                block_mark = len(runs)
                block_ink = ink
            elif not self_closing:
                containers.append((name, len(runs), ink))
                open_counts[name] += 1
                if kind & _BLOCK:
                    block_mark = len(runs)
                    block_ink = ink

    return ParsedDocument._scanned(
        " ".join("".join(title_runs).split()),
        base_href, runs, hrefs, label_spans, delimiters, segment_spans,
    )


def resolved_links(parsed: ParsedDocument, url: Url) -> Iterator[tuple[int, Url, str]]:
    """``(anchor position, href, link type symbol)`` per link of the page at ``url``.

    The position indexes ``parsed.anchors`` (and ``anchor_labels``): resolving
    reads no label, so it joins none.  A ``<base href>`` redirects
    *resolution* of relative hrefs (HTML 2.0 §5.2.2); classification still
    compares destinations against the document's actual URL, since I/L/G is
    about where the link leads relative to where the document lives.
    Unresolvable hrefs (empty, malformed) carry no traversal value and are
    skipped.
    """
    resolve_base = url
    if parsed.base_href:
        try:
            resolve_base = parse_url(parsed.base_href, base=url)
        except UrlError:
            pass
    for position, raw in enumerate(parsed.anchor_hrefs):
        try:
            href = parse_url(raw, base=resolve_base)
        except UrlError:
            continue
        yield position, href, classify_link(url, href)
