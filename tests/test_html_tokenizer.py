"""Tests for the token-stream reference parser.

The tokenizer left production with the fused scanner and lives on in
``repro.testing.html_reference`` as its differential reference; these tests
keep pinning what the reference does.  The entity cases run against both
``decode_entities`` implementations, the reference's and the scanner's.
"""

from __future__ import annotations

import pytest

from repro.html import parser as scanner
from repro.html.parser import parse_html
from repro.testing.html_reference import (
    Comment, EndTag, StartTag, Text, decode_entities, tokenize,
)

DECODERS = (decode_entities, scanner.decode_entities)


def toks(html: str):
    return list(tokenize(html))


def test_production_exports_no_token_stream():
    with pytest.raises(ImportError):
        from repro.html import tokenize  # noqa: F401
    with pytest.raises(ImportError):
        import repro.html.tokenizer  # noqa: F401


class TestBasicTokens:
    def test_start_tag(self):
        assert toks("<p>") == [StartTag("p")]

    def test_end_tag(self):
        assert toks("</p>") == [EndTag("p")]

    def test_text(self):
        assert toks("hello") == [Text("hello")]

    def test_mixed(self):
        assert toks("<b>hi</b>") == [StartTag("b"), Text("hi"), EndTag("b")]

    def test_tag_names_lowercased(self):
        assert toks("<B></B>") == [StartTag("b"), EndTag("b")]

    def test_self_closing(self):
        (tag,) = toks("<hr/>")
        assert isinstance(tag, StartTag) and tag.self_closing

    def test_self_closing_with_space(self):
        (tag,) = toks("<hr />")
        assert isinstance(tag, StartTag) and tag.name == "hr" and tag.self_closing

    def test_comment(self):
        assert toks("<!-- note -->") == [Comment("note")]

    def test_doctype_as_comment(self):
        (token,) = toks("<!DOCTYPE html>")
        assert isinstance(token, Comment)

    def test_unterminated_comment_becomes_text(self):
        (token,) = toks("<!-- open")
        assert isinstance(token, Text)


class TestAttributes:
    def test_double_quoted(self):
        (tag,) = toks('<a href="x.html">')
        assert tag.attrs == {"href": "x.html"}

    def test_single_quoted(self):
        (tag,) = toks("<a href='x.html'>")
        assert tag.attrs == {"href": "x.html"}

    def test_unquoted(self):
        (tag,) = toks("<a href=x.html>")
        assert tag.attrs == {"href": "x.html"}

    def test_multiple(self):
        (tag,) = toks('<a href="x" name="y">')
        assert tag.attrs == {"href": "x", "name": "y"}

    def test_bare_attribute(self):
        (tag,) = toks("<input disabled>")
        assert tag.attrs == {"disabled": ""}

    def test_attr_names_lowercased(self):
        (tag,) = toks('<a HREF="x">')
        assert "href" in tag.attrs

    def test_entity_in_attr_value(self):
        (tag,) = toks('<a href="x?a=1&amp;b=2">')
        assert tag.attrs["href"] == "x?a=1&b=2"

    def test_unterminated_quote_consumes_rest(self):
        (tag,) = toks('<a href="broken>')
        # Degrades without raising; the attr captures what it saw.
        assert isinstance(tag, (StartTag, Text))


class TestMalformedInput:
    def test_bare_less_than(self):
        assert toks("a < b") == [Text("a "), Text("<"), Text(" b")]

    def test_unclosed_tag_at_eof(self):
        tokens = toks("text <a href")
        assert tokens[0] == Text("text ")

    def test_empty_tag(self):
        assert Text("<") in toks("<>")

    def test_numeric_tag_is_text(self):
        assert toks("<1>")[0] == Text("<")

    def test_empty_input(self):
        assert toks("") == []


class TestEntities:
    def test_named(self):
        for decode in DECODERS:
            assert decode("a &amp; b") == "a & b"
            assert decode("&AMP;&apos;&nbsp;&quot;") == "&' \""

    def test_lt_gt(self):
        for decode in DECODERS:
            assert decode("&lt;x&gt;") == "<x>"

    def test_numeric(self):
        for decode in DECODERS:
            assert decode("&#65;") == "A"

    def test_unknown_left_alone(self):
        for decode in DECODERS:
            assert decode("&bogus;") == "&bogus;"

    def test_unterminated_left_alone(self):
        for decode in DECODERS:
            assert decode("a & b") == "a & b"

    def test_in_text_token(self):
        assert toks("a &amp; b") == [Text("a & b")]
        assert parse_html("a &amp; b").text == "a & b"

    def test_numeric_range_ends(self):
        for decode in DECODERS:
            assert decode("&#0;&#55295;&#57344;&#1114111;") == "\x00\ud7ff\ue000\U0010ffff"

    @pytest.mark.parametrize(
        "reference",
        [
            "&#1114112;",  # one past U+10FFFF
            "&#99999999;",  # chr() would raise ValueError
            "&#55296;",  # U+D800, first surrogate
            "&#57343;",  # U+DFFF, last surrogate
            "&#\u00b2;",  # SUPERSCRIPT TWO: isdigit() but not int()-able
            "&#;",
        ],
    )
    def test_character_reference_naming_no_character_stays_literal(self, reference):
        for decode in DECODERS:
            assert decode(f"a{reference}b") == f"a{reference}b"
        assert toks(f"<p>{reference}</p>")[1] == Text(reference)
        (tag,) = toks(f'<a href="{reference}">')
        assert tag.attrs["href"] == reference
        assert parse_html(f"<p>{reference}</p>").text == reference
        assert parse_html(f'<a href="{reference}">x</a>').anchors[0].href == reference

    def test_decoded_text_is_always_utf8_encodable(self):
        for decode in DECODERS:
            for code in (0xD7FF, 0xD800, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0x110000):
                decode(f"&#{code};").encode("utf-8")

    def test_window_is_ten_characters(self):
        # "&" + nine characters + ";" is the longest reference looked at.
        for decode in DECODERS:
            assert decode("&#00000065;") == "A"
            assert decode("&#000000065;") == "&#000000065;"
            assert decode("&" + "x" * 10 + "&amp;") == "&" + "x" * 10 + "&"
