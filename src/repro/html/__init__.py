"""Lightweight HTML tooling for the simulated Web.

WEBDIS models every web resource as an HTML document (paper Section 2.2) and
builds its virtual relations — DOCUMENT, ANCHOR, RELINFON — from a single
pass over the document.  This subpackage provides the two pieces that make
that possible without any external dependency:

* :mod:`repro.html.parser` — one forgiving HTML 2.0-era scanner, from the
  page string straight to title, visible text, anchors, delimiter-scoped
  *rel-infon* segments and ``<base href>``, plus the one resolver that turns
  the anchors into classified links,
* :mod:`repro.html.generator` — rendering of synthetic pages so web builders
  can express sites structurally and still exercise the real parser.

There is one parse path and no token stream.  The tokenizer and tree builder
the scanner replaced live on in :mod:`repro.testing.html_reference`, as the
reference the tests hold it equal to.
"""

from .generator import PageSpec, render_page
from .parser import Anchor, ParsedDocument, RelInfon, parse_html, resolved_links

__all__ = [
    "Anchor",
    "PageSpec",
    "ParsedDocument",
    "RelInfon",
    "parse_html",
    "render_page",
    "resolved_links",
]
