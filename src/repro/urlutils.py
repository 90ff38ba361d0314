"""URL handling for the simulated Web.

WEBDIS classifies every hyperlink by where its destination lives relative to
the document that contains it (paper Section 2):

* **interior** (``I``) — a fragment inside the same web resource,
* **local** (``L``) — a different resource on the same server,
* **global** (``G``) — a resource on a different server,
* **null** (``N``) — the resource itself (the zero-length path).

That classification is purely a function of the *base* and *href* URLs, so it
lives here next to the URL type rather than in the link-model module.

URLs in this library are the simplified ``scheme://host/path[#fragment]``
shape that the 1999-era Web (and the paper's examples) used.  The type is a
frozen dataclass so URLs can key dictionaries and sets — both the CHT and the
node-query log table are keyed by node URL.  A URL computes its hash and its
rendered text once, on first use; neither is part of its value.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import UrlError
from .storedhash import cache_field, stored_hash

DEFAULT_SCHEME = "http"
_SCHEME_SEP = "://"
#: A URL scheme (RFC 3986): a letter, then letters, digits, ``+``, ``-``, ``.``.
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.\-]*")


@dataclass(frozen=True, slots=True)
@stored_hash
class Url:
    """A parsed, normalized URL.

    Attributes:
        host: the server name, lower-cased (``dsl.serc.iisc.ernet.in``).
        path: absolute resource path, always starting with ``/``.
        fragment: the part after ``#`` (empty when absent); fragments
            distinguish *interior* links from *null* links.
        scheme: protocol name, lower-cased; defaults to ``http``.
    """

    host: str
    path: str = "/"
    fragment: str = ""
    scheme: str = DEFAULT_SCHEME
    _hash: int | None = cache_field()
    _text: str | None = cache_field()

    def __post_init__(self) -> None:
        if not self.host:
            raise UrlError("URL host must be non-empty")
        if not self.path.startswith("/"):
            raise UrlError(f"URL path must be absolute, got {self.path!r}")

    @property
    def site(self) -> str:
        """The hosting site name; WEBDIS servers are deployed one per site."""
        return self.host

    def without_fragment(self) -> "Url":
        """This URL with any ``#fragment`` removed (the *node* identity)."""
        if not self.fragment:
            return self
        return Url(self.host, self.path, "", self.scheme)

    def with_fragment(self, fragment: str) -> "Url":
        """This URL pointing at ``fragment`` inside the same resource."""
        return Url(self.host, self.path, fragment, self.scheme)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = f"{self.scheme}{_SCHEME_SEP}{self.host}{self.path}"
            if self.fragment:
                text = f"{text}#{self.fragment}"
            object.__setattr__(self, "_text", text)
        return text


def parse_url(text: str, *, base: Url | None = None) -> Url:
    """Parse ``text`` into a :class:`Url`, resolving relative forms via ``base``.

    Accepted shapes::

        http://host/path#frag     absolute
        host/path                 scheme-less absolute (paper style:
                                  ``dsl.serc.iisc.ernet.in/people``)
        /path                     host-relative          (requires base)
        path or ./path or ../p    document-relative      (requires base)
        #frag                     fragment-only          (requires base)

    A ``?query`` stays part of the path, as written; ``://`` separates a
    scheme only after a scheme token, so ``/go?to=http://b.example/`` is
    host-relative and ``#a://b`` fragment-only.  An empty scheme is no
    scheme token: ``://b.example/x`` is a document-relative path, as a
    browser resolves it.

    Raises:
        UrlError: on empty input or when a relative form has no base.
    """
    text = text.strip()
    if not text:
        raise UrlError("empty URL")

    if _SCHEME_SEP in text:
        scheme, _, rest = text.partition(_SCHEME_SEP)
        if _SCHEME.fullmatch(scheme):
            return _parse_host_rest(rest, scheme.lower())

    if text.startswith("#"):
        if base is None:
            raise UrlError(f"fragment-only URL {text!r} needs a base URL")
        return base.with_fragment(text[1:])

    if text.startswith("/"):
        if base is None:
            raise UrlError(f"host-relative URL {text!r} needs a base URL")
        path, frag = _split_fragment(text)
        return Url(base.host, _normalize_path(path), frag, base.scheme)

    head = text.split("/", 1)[0].split("#", 1)[0]
    if _looks_like_host(head):
        return _parse_host_rest(text, DEFAULT_SCHEME)

    if base is None:
        raise UrlError(f"relative URL {text!r} needs a base URL")
    path, frag = _split_fragment(text)
    directory = posixpath.dirname(base.path.partition("?")[0])
    return Url(base.host, _normalize_path(posixpath.join(directory, path)), frag, base.scheme)


def _parse_host_rest(rest: str, scheme: str) -> Url:
    """Parse ``host[/path][#frag]`` (everything after ``scheme://``)."""
    rest, frag = _split_fragment(rest)
    host, slash, path = rest.partition("/")
    if not host:
        raise UrlError(f"URL {rest!r} has an empty host")
    return Url(host.lower(), _normalize_path("/" + path if slash else "/"), frag, scheme)


def _split_fragment(text: str) -> tuple[str, str]:
    path, _, frag = text.partition("#")
    return path, frag


def _normalize_path(path: str) -> str:
    """Collapse ``.``/``..`` segments and duplicate slashes; keep it absolute.

    A trailing slash is preserved (``/dir/`` is a directory reference and
    resolves relative URLs differently than ``/dir``).  Everything from the
    first ``?`` on is a query and is kept as written.
    """
    if "?" in path:
        path, mark, query = path.partition("?")
        return _normalize_path(path) + mark + query
    if path.startswith("/") and "/." not in path and "//" not in path:
        return path  # nothing to collapse (a dotfile, "/.x", goes the long way)
    trailing = path.endswith("/") and path != "/"
    normalized = posixpath.normpath(path)
    if normalized == ".":
        return "/"
    if trailing and not normalized.endswith("/"):
        normalized += "/"
    if normalized.startswith("//"):
        # POSIX preserves a leading double slash; URLs have no use for it.
        normalized = normalized[1:]
    if not normalized.startswith("/"):
        normalized = "/" + normalized
    return normalized


@lru_cache(maxsize=4096)
def _looks_like_host(token: str) -> bool:
    """Heuristic for scheme-less absolute URLs (``csa.iisc.ernet.in/...``).

    A token is treated as a host when it contains a dot and every
    dot-separated label is a well-formed DNS label.  Single-word tokens
    (``people``) and file-looking tokens (``index.html``) are *not* hosts.
    """
    if "." not in token:
        return False
    labels = token.lower().split(".")
    if any(not label or not label.replace("-", "").isalnum() for label in labels):
        return False
    # "index.html" style names: final label is a well-known file suffix.
    if labels[-1] in _FILE_SUFFIXES:
        return False
    return True


_FILE_SUFFIXES = frozenset(
    {"html", "htm", "xml", "txt", "ps", "pdf", "gz", "gif", "jpg", "jpeg", "png", "css", "js"}
)


def classify_link(base: Url, href: Url) -> str:
    """Classify the link ``base -> href`` as one of ``"I"``/``"L"``/``"G"``/``"N"``.

    Per the paper's definitions: *interior* when the destination is a
    fragment of the same resource, *local* when it is a different resource on
    the same server, *global* when the server differs, and *null* when the
    link points at the resource itself (no fragment).
    """
    if href.host != base.host:
        return "G"
    if href.path != base.path:
        return "L"
    return "I" if href.fragment else "N"
