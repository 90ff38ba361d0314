"""Link types and virtual-relation schemas.

The schemas here are the paper's, verbatim:

* ``DOCUMENT(url, title, text, length)`` — one entry per document;
* ``ANCHOR(label, base, href, ltype)`` — one entry per hyperlink;
* ``RELINFON(delimiter, url, text, length)`` — one entry per delimiter-scoped
  segment (the rel-infon extension the authors added to [14]'s model).
"""

from __future__ import annotations

import enum

from ..relational.schema import Schema

__all__ = [
    "LinkType",
    "DOCUMENT_SCHEMA",
    "ANCHOR_SCHEMA",
    "RELINFON_SCHEMA",
]


class LinkType(enum.Enum):
    """The four link categories of paper Section 2.

    The values are the one-letter symbols used in PREs and in the
    ``ANCHOR.ltype`` attribute.
    """

    INTERIOR = "I"
    LOCAL = "L"
    GLOBAL = "G"
    NULL = "N"

    @classmethod
    def from_symbol(cls, symbol: str) -> "LinkType":
        """Map ``"I"/"L"/"G"/"N"`` (case-insensitive) to a member."""
        member = _BY_SYMBOL.get(symbol)
        if member is not None:
            return member
        try:
            return cls(symbol.upper())
        except ValueError:
            raise ValueError(f"unknown link type symbol {symbol!r}") from None

    def __str__(self) -> str:
        return self.value


_BY_SYMBOL = {ltype.value: ltype for ltype in LinkType}

DOCUMENT_SCHEMA = Schema("document", ("url", "title", "text", "length"))
ANCHOR_SCHEMA = Schema("anchor", ("label", "base", "href", "ltype"))
RELINFON_SCHEMA = Schema("relinfon", ("delimiter", "url", "text", "length"))
