"""Prepared DISQL: compile a query's template once, bind its literals after.

§2.3's translation ``S p1 q1 … pn qn`` is a pure function of the DISQL
text, and a user site submits the same query over and over with one string
changed — another keyword, another StartNode.  :class:`TemplateCache` keys
a text by its *template*: the text with the contents of every string
literal blanked.  :data:`_STRING` finds exactly the spans
:func:`~repro.disql.lexer.tokenize_disql` reads as STRING tokens — it is
unambiguous at every backslash, as ``_read_string`` is — and an
unterminated string leaves an odd run of quotes in the key, which no text
that compiles produces.

The first text of a template is compiled in full, and the template records
where each of its strings went: a ``Literal`` operand of a node-query, or a
StartNode URL.  Every later text of the template is a *bind*: its strings
are decoded from the text, the StartNode URLs parsed, and each node-query
rebuilt along the spine from its ``where`` root to the literals; every
other object is the first compile's.  A bind returns what a full compile
returns — an equal ``WebQuery``, or, for the one check a new string can
fail, the same ``UrlError``, since ``parse_url`` runs once per StartNode
URL exactly as :func:`~repro.disql.translate.translate` runs it.

Numbers stay in the template (PRE bounds, ``LIMIT``, ``contains~k``,
numeric operands).  A text that uses any string otherwise — the keywords of
an ``index(...)`` source, text inside a PRE — is compiled in full every
time, and so is a text the compiler rejects.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from typing import Callable

from ..core.webquery import WebQuery, WebQueryStep
from ..relational.expr import And, Compare, Contains, Expr, Literal, Not, Or
from ..relational.query import NodeQuery
from ..urlutils import parse_url
from .parser import _parse_recording_strings
from .translate import translate

__all__ = ["TemplateCache"]

#: A complete string literal, its contents captured: ``\"`` and ``\\`` are
#: escapes, any other backslash stands for itself, and no string spans a
#: newline.
_STRING = re.compile(r'"((?:[^"\\\n]|\\["\\]|\\(?!["\\]))*)"')
_ESCAPE = re.compile(r'\\(["\\])')

#: ``values → expr``: an expression rebuilt around new string values.
_Rebuild = Callable[[list], Expr]


class TemplateCache:
    """Bounded LRU of DISQL templates (one per engine; see the module doc)."""

    __slots__ = ("max_size", "_templates")

    def __init__(self, max_size: int = 256) -> None:
        self.max_size = max_size
        self._templates: OrderedDict[str, _Template] = OrderedDict()

    def compile(self, text: str, search_index=None) -> WebQuery:
        """``compile_disql(text, search_index=...)``, through the cache."""
        parts = _STRING.split(text)
        key = '""'.join(parts[::2])
        template = self._templates.get(key)
        if template is not None:
            self._templates.move_to_end(key)
            return template.bind(parts[1::2])
        query, strings = _parse_recording_strings(text)
        webquery = translate(query, search_index=search_index)
        # Every string token an operand or a StartNode URL, in token order.
        if len(strings) == len(parts) // 2:
            template = _Template.record(webquery, strings)
            if template is not None:
                self._templates[key] = template
                if len(self._templates) > self.max_size:
                    self._templates.popitem(last=False)
        return webquery

    def __len__(self) -> int:
        return len(self._templates)


class _Template:
    """One compiled text and where its strings went."""

    __slots__ = ("query", "starts", "spines")

    def __init__(
        self, query: WebQuery, starts: tuple[int, ...], spines: tuple[_Rebuild | None, ...]
    ) -> None:
        self.query = query
        #: The string slot of each StartNode URL, in order.
        self.starts = starts
        #: Per step, the rebuild of its node-query's ``where`` (None: no slot).
        self.spines = spines

    @classmethod
    def record(cls, query: WebQuery, strings: list) -> "_Template | None":
        """The template of ``query``, compiled from a text whose string
        tokens became ``strings``; None if a string cannot be located."""
        slot_of = {
            id(use): slot for slot, use in enumerate(strings) if isinstance(use, Literal)
        }
        starts = tuple(
            slot for slot, use in enumerate(strings) if not isinstance(use, Literal)
        )
        found: list[int] = []
        spines = tuple(_spine(step.query.where, slot_of, found) for step in query.steps)
        if sorted(found) != sorted(slot_of.values()) or len(starts) != len(query.start_urls):
            return None
        return cls(query, starts, spines)

    def bind(self, bodies: list[str]) -> WebQuery:
        """The ``WebQuery`` of this template's text with string contents ``bodies``."""
        values = [_ESCAPE.sub(r"\1", body) if "\\" in body else body for body in bodies]
        query = self.query
        start_urls = tuple(parse_url(values[slot]) for slot in self.starts)
        steps = tuple(
            step if spine is None
            else WebQueryStep(step.pre, _with_where(step.query, spine(values)))
            for step, spine in zip(query.steps, self.spines)
        )
        return WebQuery(
            query.qid, start_urls, steps, query.select_header,
            display_distinct=query.display_distinct,
            display_order=query.display_order,
            display_limit=query.display_limit,
        )


def _with_where(query: NodeQuery, where: Expr) -> NodeQuery:
    return NodeQuery(query.select, query.tables, where, query.label, query.sitewide_aliases)


def _spine(expr: Expr, slot_of: dict[int, int], found: list[int]) -> _Rebuild | None:
    """Rebuild of ``expr`` with each literal in ``slot_of`` (by identity)
    taking its slot's value — None when no such literal lies under ``expr``.
    Appends every slot it reaches to ``found``."""
    if isinstance(expr, Literal):
        slot = slot_of.get(id(expr))
        if slot is None:
            return None
        found.append(slot)
        return lambda values: Literal(values[slot])
    if isinstance(expr, Compare):
        op = expr.op
        return _pair(
            expr.left, expr.right, slot_of, found, lambda left, right: Compare(op, left, right)
        )
    if isinstance(expr, Contains):
        edits = expr.max_edits
        return _pair(
            expr.haystack, expr.needle, slot_of, found, lambda h, n: Contains(h, n, edits)
        )
    if isinstance(expr, (And, Or)):
        return _pair(expr.left, expr.right, slot_of, found, type(expr))
    if isinstance(expr, Not):
        operand = _spine(expr.operand, slot_of, found)
        return None if operand is None else lambda values: Not(operand(values))
    return None


def _pair(
    first: Expr, second: Expr, slot_of: dict[int, int], found: list[int],
    make: Callable[[Expr, Expr], Expr],
) -> _Rebuild | None:
    left = _spine(first, slot_of, found)
    right = _spine(second, slot_of, found)
    if left is None and right is None:
        return None
    left = left or (lambda values: first)
    right = right or (lambda values: second)
    return lambda values: make(left(values), right(values))
