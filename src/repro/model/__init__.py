"""Document and link model: WEBDIS's three virtual relations.

Each web resource is modelled as tuple entries in the
``DOCUMENT(url, title, text, length)``, ``ANCHOR(label, base, href, ltype)``
and ``RELINFON(delimiter, url, text, length)`` virtual relations (paper
Section 2.2).  :class:`~repro.model.database.NodeDatabase` is the temporary
in-memory database a query-server constructs for a node, queries, and purges.
"""

from .database import DatabaseConstructor, NodeDatabase
from .relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA, LinkType

__all__ = [
    "ANCHOR_SCHEMA",
    "DOCUMENT_SCHEMA",
    "DatabaseConstructor",
    "LinkType",
    "NodeDatabase",
    "RELINFON_SCHEMA",
]
