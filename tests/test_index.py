"""Tests for the search-index substrate."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.index import (
    InvertedIndex,
    build_index_for_web,
    crawl,
    resolve_start_nodes,
    tokenize_terms,
)
from repro.urlutils import parse_url
from repro.web import SyntheticWebConfig, WebBuilder, build_campus_web, build_synthetic_web


class TestTokenizer:
    def test_basic(self):
        assert tokenize_terms("Database Systems Lab") == ["database", "systems", "lab"]

    def test_stopwords_removed(self):
        assert tokenize_terms("the state of the art") == ["state", "art"]

    def test_punctuation_splits(self):
        assert tokenize_terms("web-site querying!") == ["web", "site", "querying"]

    def test_numbers_kept(self):
        assert "1999" in tokenize_terms("TR 1999 01")

    def test_empty(self):
        assert tokenize_terms("") == []
        assert tokenize_terms("of the and") == []


def _index_with(*docs):
    index = InvertedIndex()
    for i, (title, text) in enumerate(docs):
        index.add_document(parse_url(f"http://a.example/p{i}"), title, text)
    return index


class TestInvertedIndex:
    def test_counts(self):
        index = _index_with(("one", "alpha beta"), ("two", "beta gamma"))
        assert index.document_count == 2
        assert index.vocabulary_size >= 4

    def test_search_finds_term(self):
        index = _index_with(("doc", "databases rule"), ("other", "networks rule"))
        hits = index.search("databases")
        assert [str(h.url) for h in hits] == ["http://a.example/p0"]

    def test_title_boost(self):
        index = _index_with(
            ("databases", "filler filler filler"),
            ("filler", "databases appear here in the body text"),
        )
        hits = index.search("databases")
        assert str(hits[0].url).endswith("/p0")

    def test_rare_terms_weigh_more(self):
        index = _index_with(
            ("a", "common rare"),
            ("b", "common word"),
            ("c", "common term"),
        )
        hits = index.search("common rare")
        assert str(hits[0].url).endswith("/p0")

    def test_multi_term_accumulates(self):
        index = _index_with(("a", "alpha"), ("b", "beta"), ("c", "alpha beta"))
        hits = {str(h.url): h.score for h in index.search("alpha beta")}
        # The both-terms document must outrank the beta-only document of the
        # same shape (it accumulates score from both query terms).
        assert hits["http://a.example/p2"] > hits["http://a.example/p1"]
        assert len(hits) == 3

    def test_unknown_term_empty(self):
        assert _index_with(("a", "x")).search("zzz") == []

    def test_empty_query(self):
        assert _index_with(("a", "x")).search("of the") == []

    def test_k_limits(self):
        index = _index_with(*((f"t{i}", "shared") for i in range(10)))
        assert len(index.search("shared", k=4)) == 4

    def test_reindex_replaces(self):
        index = InvertedIndex()
        url = parse_url("http://a.example/p")
        index.add_document(url, "old", "ancient words")
        index.add_document(url, "new", "modern words")
        assert index.document_count == 1
        assert index.search("ancient") == []
        assert index.search("modern")

    def test_deterministic_tie_break(self):
        index = _index_with(("t", "same text"), ("t", "same text"))
        hits = index.search("same")
        assert [str(h.url) for h in hits] == sorted(str(h.url) for h in hits)


class TestCrawler:
    def test_crawls_campus(self, campus_web):
        result = crawl(campus_web, ["http://www.csa.iisc.ernet.in/"])
        assert result.pages_fetched == campus_web.page_count()  # all reachable
        assert result.bytes_fetched == campus_web.total_bytes()
        assert result.frontier_exhausted

    def test_max_pages_cap(self, campus_web):
        result = crawl(campus_web, ["http://www.csa.iisc.ernet.in/"], max_pages=3)
        assert result.pages_fetched == 3
        assert not result.frontier_exhausted

    def test_local_only(self, campus_web):
        result = crawl(
            campus_web, ["http://www.csa.iisc.ernet.in/"], follow_global=False
        )
        assert all(u.host == "www.csa.iisc.ernet.in" for u in result.visited)

    def test_floating_links_skipped(self):
        builder = WebBuilder()
        builder.site("a.example").page(
            "/", title="root", links=[("gone", "/missing.html")]
        )
        result = crawl(builder.build(), ["http://a.example/"])
        assert result.pages_fetched == 1

    def test_each_page_is_parsed_once(self, campus_web, parse_calls):
        result = crawl(campus_web, ["http://www.csa.iisc.ernet.in/"])
        assert len(parse_calls) == result.pages_fetched

    def test_bfs_order(self, campus_web):
        result = crawl(campus_web, ["http://www.csa.iisc.ernet.in/"])
        assert str(result.visited[0]) == "http://www.csa.iisc.ernet.in/"


class TestStartNodeResolution:
    def test_resolves_lab_pages(self, campus_web):
        index = build_index_for_web(campus_web)
        starts = resolve_start_nodes(index, "laboratories", k=2)
        assert "http://www.csa.iisc.ernet.in/Labs" in starts

    def test_index_assisted_query(self, campus_web):
        """The paper's automated pipeline: keyword -> StartNodes -> WEBDIS."""
        from repro import WebDisEngine

        index = build_index_for_web(campus_web)
        starts = resolve_start_nodes(index, "laboratories CSA", k=1)
        start_clause = " | ".join(f'"{s}"' for s in starts)
        disql = (
            "select d.url, r.text\n"
            f"from document d such that {start_clause} G.(L*1) d,\n"
            '     relinfon r such that r.delimiter = "hr"\n'
            'where r.text contains "convener"'
        )
        engine = WebDisEngine(campus_web)
        handle = engine.run_query(disql)
        assert len(handle.unique_rows()) == 3  # all three conveners found

    def test_synthetic_coverage(self):
        config = SyntheticWebConfig(sites=4, pages_per_site=4, seed=21)
        web = build_synthetic_web(config)
        index = build_index_for_web(web)
        assert index.document_count == web.page_count()


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=80))
def test_tokenizer_total_function(text):
    terms = tokenize_terms(text)
    assert all(term and term == term.lower() for term in terms)
    assert all(ch.isalnum() for term in terms for ch in term)


class TestPersistence:
    def test_save_load_round_trip(self, campus_web, tmp_path):
        index = build_index_for_web(campus_web)
        path = tmp_path / "campus.index.json"
        index.save(path)
        loaded = InvertedIndex.load(path)
        assert loaded.document_count == index.document_count
        assert loaded.vocabulary_size == index.vocabulary_size

    def test_loaded_index_searches_identically(self, campus_web, tmp_path):
        index = build_index_for_web(campus_web)
        path = tmp_path / "campus.index.json"
        index.save(path)
        loaded = InvertedIndex.load(path)
        for query in ("laboratories", "convener", "database systems"):
            original = [(str(h.url), round(h.score, 9)) for h in index.search(query)]
            reloaded = [(str(h.url), round(h.score, 9)) for h in loaded.search(query)]
            assert original == reloaded

    def test_version_guard(self, tmp_path):
        import json
        import pytest

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            InvertedIndex.load(path)
