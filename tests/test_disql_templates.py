"""Prepared DISQL: a text of a known template binds its strings.

Properties, each against the uncached compiler (:func:`compile_disql`
without ``templates``) or the lexer as the reference:

* **Bind ≡ compile** — literal-varied texts of the round-trip grammar,
  compiled through one shared :class:`TemplateCache`, equal the uncached
  compile as a ``WebQuery``, or raise the same exception class and message.
  The strings include escapes, a trailing backslash, non-ASCII text, ``""``,
  numeric strings and unparsable StartNode URLs.
* **The key's strings are the lexer's strings** — the blanking regex's spans
  equal ``tokenize_disql``'s STRING token spans, and a text with an
  unterminated string gets a key no tokenizable text has.
* **What bypasses** — ``index(...)`` sources and ``optimize=True`` are never
  cached; the engine keeps one template per query shape.
"""

from __future__ import annotations

import importlib
import re

from hypothesis import example, given, settings, strategies as st

from repro import WebDisEngine
from repro.disql import compile_disql, format_disql, tokenize_disql
from repro.disql import template as template_module
from repro.disql.lexer import TokenKind
from repro.disql.template import TemplateCache
from repro.errors import DisqlSyntaxError
from repro.index import build_index_for_web
from tests.test_disql_roundtrip_property import _queries
from tests.test_index_source_and_limit import INDEX_QUERY

# The package re-exports the function under the module's name.
translate_module = importlib.import_module("repro.disql.translate")

# Raw string *bodies* (the text between the quotes, spliced in verbatim).
_TRICKY_BODIES = [
    'quo\\"ted',  # an escaped quote
    "back\\\\slash",  # an escaped backslash
    "trailing\\",  # escapes the closing quote: unterminated
    "c:\\temp",  # a backslash that escapes nothing
    "κόσμος ünï",
    "",
    "12",
    "1e3",
    "nan",
    "/relative",  # not a StartNode URL without a base
    "http://b.example/x.html",
    "line\nbreak",  # unterminated
    'lone " quote',  # changes the text's structure
    "hr",
    "lab",
]
_bodies = st.one_of(
    st.sampled_from(_TRICKY_BODIES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


def _outcome(run):
    try:
        return ("ok", run())
    except Exception as exc:  # both sides must fail alike, whatever the class
        return (type(exc), str(exc))


def _splice(text: str, spans: list[tuple[int, int]], bodies: list[str]) -> str:
    for (start, end), body in sorted(zip(spans, bodies), reverse=True):
        text = text[:start] + '"' + body + '"' + text[end:]
    return text


@st.composite
def _literal_varied_texts(draw) -> list[str]:
    """Several texts of one rendered query, each with its own strings."""
    text = format_disql(draw(_queries()))
    spans = [(t.start, t.end) for t in tokenize_disql(text) if t.kind is TokenKind.STRING]
    variants = draw(
        st.lists(
            st.lists(_bodies, min_size=len(spans), max_size=len(spans)),
            min_size=1, max_size=4,
        )
    )
    return [text] + [_splice(text, spans, bodies) for bodies in variants]


class TestBindMatchesCompile:
    @given(_literal_varied_texts())
    @settings(max_examples=150, deadline=None)
    def test_literal_varied_texts(self, texts):
        cache = TemplateCache()
        for text in texts:
            assert _outcome(lambda: compile_disql(text, templates=cache)) == _outcome(
                lambda: compile_disql(text)
            )
        # The unmodified rendering compiles, so its template is cached.
        assert len(cache) >= 1

    def test_a_hit_translates_nothing_and_parses_each_start_url_once(self, monkeypatch):
        texts = [
            'select d.url from document d such that "http://a.example/" | '
            f'"http://{host}.example/" L d where d.title contains "{word}"'
            for host, word in (("b", "lab"), ("c", "x\\\\y"), ("d", "ü"))
        ]
        calls = []
        for module in (translate_module, template_module):
            original = module.parse_url
            monkeypatch.setattr(
                module, "parse_url",
                lambda text, _original=original: calls.append(text) or _original(text),
            )
        translated = []
        original_translate = template_module.translate
        monkeypatch.setattr(
            template_module, "translate",
            lambda *args, **kwargs: translated.append(1) or original_translate(*args, **kwargs),
        )
        cache = TemplateCache()
        queries = [compile_disql(text, templates=cache) for text in texts]
        assert len(translated) == 1 and len(cache) == 1
        assert calls == [
            url for host in "bcd" for url in ("http://a.example/", f"http://{host}.example/")
        ]
        assert queries[1].steps[0].query.where.needle.value == "x\\y"
        assert queries == [compile_disql(text) for text in texts]

    def test_unparsable_start_url_raises_the_compilers_error(self):
        cache = TemplateCache()
        good = 'select d.url from document d such that "http://a.example/" L d'
        compile_disql(good, templates=cache)
        bad = good.replace("http://a.example/", "/no/base")
        assert _outcome(lambda: compile_disql(bad, templates=cache)) == _outcome(
            lambda: compile_disql(bad)
        )
        assert _outcome(lambda: compile_disql(bad))[0] != "ok"


class TestBypass:
    def test_index_sources_are_never_cached(self, campus_web):
        index = build_index_for_web(campus_web)
        cache = TemplateCache()
        for __ in range(2):
            query = compile_disql(INDEX_QUERY, search_index=index, templates=cache)
            assert query == compile_disql(INDEX_QUERY, search_index=index)
        assert len(cache) == 0

    def test_optimize_bypasses_the_cache(self):
        cache = TemplateCache()
        text = 'select d.url from document d such that "http://a.example/" (L|L) d'
        assert compile_disql(text, optimize=True, templates=cache) == compile_disql(
            text, optimize=True
        )
        assert len(cache) == 0

    def test_numbers_stay_in_the_template(self):
        cache = TemplateCache()
        for bound in (1, 2):
            compile_disql(
                f'select d.url from document d such that "http://a.example/" L*{bound} d',
                templates=cache,
            )
        assert len(cache) == 2

    def test_bounded(self):
        cache = TemplateCache(max_size=2)
        for bound in (1, 2, 3):
            compile_disql(
                f'select d.url from document d such that "http://a.example/" L*{bound} d',
                templates=cache,
            )
        assert len(cache) == 2


class TestEngineTemplates:
    def test_one_template_per_query_shape(self, campus_web):
        engine = WebDisEngine(campus_web)
        for word in ("lab", "convener", "lab"):
            engine.submit_disql(
                'select d.url from document d such that "http://csa.iisc.ernet.in/" L d'
                f' where d.title contains "{word}"'
            )
        engine.run()
        assert len(engine._templates) == 1


# -- the blanking regex is the lexer ------------------------------------------

_odd_quote_run = re.compile(r'(?<!")(?:"")*"(?!")')
_fragments = st.lists(
    st.sampled_from(['"', "\\", "\n", "a", " ", "é", "(", "1", ".", "d", "@", '""']),
    max_size=24,
).map("".join)


class TestBlankingRegex:
    @given(st.one_of(_fragments, _queries().map(format_disql), _literal_varied_texts().map(
        lambda texts: texts[-1]
    )))
    @settings(max_examples=400, deadline=None)
    # A digit int() cannot read ("²".isdigit()) is a syntax error, not a crash.
    @example('select *\nfrom document d0 such that "quo\\"ted" | ""²" L d0')
    def test_spans_are_the_lexers_string_tokens(self, text):
        key = '""'.join(template_module._STRING.split(text)[::2])
        try:
            tokens = tokenize_disql(text)
        except DisqlSyntaxError as exc:
            if "unterminated" in str(exc):
                # An unterminated string leaves a quote run of odd length.
                assert _odd_quote_run.search(key)
            return
        assert [m.span() for m in template_module._STRING.finditer(text)] == [
            (t.start, t.end) for t in tokens if t.kind is TokenKind.STRING
        ]
        assert not _odd_quote_run.search(key)
