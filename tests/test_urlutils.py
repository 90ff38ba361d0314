"""Tests for URL parsing, normalization and link classification."""

from __future__ import annotations

import posixpath

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UrlError
from repro.model import LinkType
from repro.urlutils import Url, _normalize_path, classify_link, parse_url


class TestUrlType:
    def test_defaults(self):
        url = Url("example.com")
        assert url.path == "/"
        assert url.scheme == "http"
        assert url.fragment == ""

    def test_str_round_trip(self):
        url = Url("example.com", "/a/b.html", "sec")
        assert str(url) == "http://example.com/a/b.html#sec"
        assert parse_url(str(url)) == url

    def test_empty_host_rejected(self):
        with pytest.raises(UrlError):
            Url("")

    def test_relative_path_rejected(self):
        with pytest.raises(UrlError):
            Url("example.com", "a.html")

    def test_site_is_host(self):
        assert Url("Dsl.Example".lower(), "/x").site == "dsl.example"

    def test_without_fragment(self):
        url = Url("h.example", "/p", "frag")
        assert url.without_fragment() == Url("h.example", "/p")
        assert url.without_fragment().fragment == ""

    def test_without_fragment_identity_when_absent(self):
        url = Url("h.example", "/p")
        assert url.without_fragment() is url

    def test_with_fragment(self):
        assert Url("h.example", "/p").with_fragment("top").fragment == "top"

    def test_hashable(self):
        assert len({Url("a.example", "/x"), Url("a.example", "/x")}) == 1


class TestParseAbsolute:
    def test_full_url(self):
        url = parse_url("http://dsl.serc.iisc.ernet.in/people")
        assert url.host == "dsl.serc.iisc.ernet.in"
        assert url.path == "/people"

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.COM/X").host == "example.com"

    def test_path_case_preserved(self):
        assert parse_url("http://example.com/Labs").path == "/Labs"

    def test_scheme_preserved(self):
        assert parse_url("https://example.com/").scheme == "https"

    def test_bare_host(self):
        url = parse_url("http://example.com")
        assert url.path == "/"

    def test_schemeless_host_paper_style(self):
        url = parse_url("dsl.serc.iisc.ernet.in/people")
        assert url.host == "dsl.serc.iisc.ernet.in"
        assert url.path == "/people"

    def test_fragment(self):
        assert parse_url("http://a.example/x#frag").fragment == "frag"

    def test_empty_raises(self):
        with pytest.raises(UrlError):
            parse_url("   ")

    def test_empty_host_raises(self):
        with pytest.raises(UrlError):
            parse_url("http:///path")


class TestParseRelative:
    BASE = parse_url("http://a.example/dir/page.html")

    def test_host_relative(self):
        assert parse_url("/other", base=self.BASE) == Url("a.example", "/other")

    def test_document_relative(self):
        assert parse_url("sibling.html", base=self.BASE).path == "/dir/sibling.html"

    def test_dot_dot(self):
        assert parse_url("../up.html", base=self.BASE).path == "/up.html"

    def test_dot_dot_beyond_root_clamps(self):
        assert parse_url("../../../x.html", base=self.BASE).path == "/x.html"

    def test_fragment_only(self):
        url = parse_url("#sec", base=self.BASE)
        assert url.path == self.BASE.path
        assert url.fragment == "sec"

    def test_relative_without_base_raises(self):
        with pytest.raises(UrlError):
            parse_url("page.html")

    def test_fragment_without_base_raises(self):
        with pytest.raises(UrlError):
            parse_url("#x")

    def test_index_html_not_treated_as_host(self):
        url = parse_url("index.html", base=self.BASE)
        assert url.host == "a.example"

    def test_duplicate_slashes_normalized(self):
        assert parse_url("http://a.example//x//y.html").path == "/x/y.html"


class TestClassifyLink:
    BASE = parse_url("http://a.example/page.html")

    def test_global(self):
        assert classify_link(self.BASE, parse_url("http://b.example/")) == "G"

    def test_local(self):
        assert classify_link(self.BASE, Url("a.example", "/other.html")) == "L"

    def test_interior(self):
        assert classify_link(self.BASE, self.BASE.with_fragment("top")) == "I"

    def test_null(self):
        assert classify_link(self.BASE, self.BASE) == "N"

    def test_same_path_different_host_is_global(self):
        assert classify_link(self.BASE, Url("b.example", "/page.html")) == "G"


# -- the fast paths agree with what they skip -------------------------------------


def _normalize_path_at_parent(path: str) -> str:
    """``urlutils._normalize_path`` before it learned to skip ``normpath``."""
    trailing = path.endswith("/") and path != "/"
    normalized = posixpath.normpath(path)
    if normalized == ".":
        return "/"
    if trailing and not normalized.endswith("/"):
        normalized += "/"
    if normalized.startswith("//"):
        normalized = normalized[1:]
    if not normalized.startswith("/"):
        normalized = "/" + normalized
    return normalized


_segments = st.one_of(
    st.sampled_from([".", "..", "", "...", ".hidden", "..a", "a.", "index.html"]),
    st.text(alphabet="ab.-_~%20", min_size=1, max_size=6),
)
_paths = st.builds(
    lambda absolute, segments, trailing: (
        ("/" if absolute else "") + "/".join(segments) + ("/" if trailing else "")
    ),
    st.booleans(), st.lists(_segments, max_size=6), st.booleans(),
)


class TestFastPaths:
    @settings(max_examples=500, deadline=None)
    @given(_paths)
    def test_normalize_path_equals_the_parents(self, path):
        assert _normalize_path(path) == _normalize_path_at_parent(path)

    def test_dotfiles_and_the_root_take_the_right_route(self):
        for path in ("/", "/a", "/a/", "/a/b.html", "/.hidden", "/a/.hidden/", "//", "/a//b"):
            assert _normalize_path(path) == _normalize_path_at_parent(path)

    def test_link_type_from_symbol(self):
        for symbol in "IiLlGgNn":
            assert LinkType.from_symbol(symbol) is LinkType(symbol.upper())
        for symbol in ("", "X", "IL", " i"):
            with pytest.raises(ValueError) as raised:
                LinkType.from_symbol(symbol)
            assert str(raised.value) == f"unknown link type symbol {symbol!r}"
