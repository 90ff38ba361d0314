"""The memo's visit entries change what a visit costs the process, nothing else.

The oracle is the same engine with ``ResultMemo.visit_for`` patched to miss
(for the test only; there is no knob): every visit then takes the part path
— document, rows probes, fan-out probes — as it did before visit entries
existed, while the memo stores the same entries.  On each scenario below
the shipped and the patched engine must agree on every observable: distinct
rows and statuses, the CHT's end state, the log tables'
``canonical_snapshot()``, ``TrafficStats.summary()``, a digest of the tracer
events and the virtual completion times.

* the ``warm_zipf`` pool, twice through: the second pass is served almost
  entirely by visit entries (a hit that charged a parse, or miscounted
  ``memo_hits``, fails here);
* the same with a memo small enough to flush (a visit entry that survived
  its parts would be charged less than the part path);
* DST-generated cases, their queries submitted together three times;
* hand-built web-queries reusing one node-query at another step (a key
  without the step index would serve one query's visit to the other).

Then the coherence invariant over visit entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro import EngineConfig, QueryStatus, WebDisEngine
from repro.core.resultmemo import ResultMemo
from repro.core.webquery import QueryId, WebQuery, WebQueryStep
from repro.pre import parse_pre
from repro.relational.expr import Attr, Contains, Literal
from repro.relational.query import NodeQuery, TableDecl
from repro.testing.generators import build_web, generate_case, query_texts
from repro.testing.invariants import check_memo_coherence
from repro.testing.runner import _engine_config
from repro.urlutils import Url
from repro.web import SyntheticWebConfig, build_synthetic_web
from repro.web.builders import WebBuilder


def _distinct_rows(handle):
    return frozenset((label, row.header, row.values) for label, row, __ in handle.results)


def _observe(engine, handles) -> dict:
    """Everything a run shows outside the memo."""
    events = repr([str(event) for event in engine.tracer.events])
    return {
        "statuses": [handle.status for handle in handles],
        "rows": [_distinct_rows(handle) for handle in handles],
        "cht": [
            (handle.cht.additions, handle.cht.deletions, [repr(r) for r in handle.cht.history()])
            for handle in handles
        ],
        "log_tables": {
            site: server.log_table.canonical_snapshot()
            for site, server in sorted(engine.servers.items())
        },
        "stats": engine.stats.summary(),
        "trace": hashlib.sha256(events.encode()).hexdigest(),
        "times": [handle.completion_time for handle in handles],
    }


def _run(monkeypatch, *, visits: bool, web, batches, config=None, capacity=None):
    """Run ``batches`` (lists of queries: each batch submitted together,
    then run) on one engine; returns its observations and the visit hits.

    ``visits=False`` is the oracle: ``visit_for`` always misses."""
    original = ResultMemo.visit_for
    hits = [0]

    def visit_for(self, node, key):
        if not visits:
            return None
        entry = original(self, node, key)
        hits[0] += entry is not None
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(ResultMemo, "visit_for", visit_for)
        engine = WebDisEngine(web, config=config or EngineConfig(), trace=True)
        if capacity is not None:
            for server in engine.servers.values():
                server.memo = ResultMemo(engine.stats, capacity=capacity)
        handles = []
        for batch in batches:
            for query in batch:
                submit = engine.submit_disql if isinstance(query, str) else engine.submit
                handles.append(submit(query))
            engine.run()
    assert check_memo_coherence(engine) == []
    return _observe(engine, handles), hits[0], engine


def _assert_same(monkeypatch, **scenario) -> tuple[int, object]:
    shipped, hits, engine = _run(monkeypatch, visits=True, **scenario)
    oracle, __, ___ = _run(monkeypatch, visits=False, **scenario)
    for name in shipped:
        assert shipped[name] == oracle[name], name
    return hits, engine


# -- the warm_zipf pool ----------------------------------------------------------


def _zipf_pool() -> list[str]:
    """EXP-E1 ``warm_zipf``'s sixteen queries: ``(L|G)*3`` then ``(L|G)*2``
    from eight start sites of the 32 × 20 spot-check web."""
    return [
        f'select d.url, d.title, a.href from document d such that '
        f'"http://site{index:03d}.example/" (L|G)*{depth} d, anchor a '
        f'where d.title contains "topic"'
        for depth in (3, 2)
        for index in range(0, 32, 4)
    ]


@pytest.fixture(scope="module")
def spot_check_web():
    return build_synthetic_web(
        SyntheticWebConfig(
            sites=32, pages_per_site=20, local_out_degree=3,
            global_out_degree=2, padding_words=50,
        )
    )


class TestOracle:
    def test_warm_zipf_pool_twice_through(self, monkeypatch, spot_check_web):
        pool = _zipf_pool()
        hits, engine = _assert_same(
            monkeypatch, web=spot_check_web, batches=[[text] for text in pool * 2]
        )
        # Non-vacuous: most of the second pass was served by visit entries.
        assert hits > 900
        assert engine.stats.memo_evictions == 0

    def test_flushing_memo(self, monkeypatch, spot_check_web):
        pool = _zipf_pool()
        hits, engine = _assert_same(
            monkeypatch, web=spot_check_web, batches=[[text] for text in pool * 2],
            capacity=40,
        )
        assert hits > 0
        assert sum(server.memo.flushes for server in engine.servers.values()) > 0
        assert all(len(server.memo) <= 40 for server in engine.servers.values())

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_cases(self, monkeypatch, seed):
        """Three passes: the first parses, the second stores visit entries
        (its part probes all hit), the third is served by them."""
        spec = generate_case(seed)
        config = _engine_config(spec, pressure=False)
        texts = query_texts(spec)
        hits, __ = _assert_same(
            monkeypatch, web=build_web(spec), batches=[texts] * 3, config=config
        )
        assert hits > 0

    def test_one_node_query_at_two_steps(self, monkeypatch):
        """``only`` evaluates the node-query at step 0, ``second`` the same
        node-query (same label) at step 1, in the same PRE states: only the
        step index tells their visits apart."""
        answer = _title_query(("url", "title"), "a")
        only = _web_query((WebQueryStep(parse_pre("(L|G)*2"), answer),))
        second = _web_query(
            (
                WebQueryStep(parse_pre("N"), _title_query(("url",), "x")),
                WebQueryStep(parse_pre("(L|G)*2"), answer),
            )
        )
        hits, __ = _assert_same(
            monkeypatch, web=_small_web(), batches=[[only], [only], [second], [second]]
        )
        assert hits > 0


def _title_query(columns: tuple[str, ...], label: str) -> NodeQuery:
    return NodeQuery(
        tuple(Attr("d", column) for column in columns),
        (TableDecl("document", "d"),),
        Contains(Attr("d", "title"), Literal("topic")),
        label,
    )


def _web_query(steps: tuple[WebQueryStep, ...]) -> WebQuery:
    return WebQuery(QueryId("u", "user.example", 1, 1), (Url("a.example", "/"),), steps)


def _small_web():
    builder = WebBuilder()
    builder.site("a.example").page(
        "/", title="topic root",
        links=[("p1", "/p1.html"), ("b", "http://b.example/")],
    ).page("/p1.html", title="topic p1", links=[("p2", "/p2.html")]).page(
        "/p2.html", title="topic p2", links=[("root", "/")]
    )
    builder.site("b.example").page(
        "/", title="topic b", links=[("a", "http://a.example/p2.html")]
    )
    return builder.build()


# -- the coherence invariant ---------------------------------------------------------


def _warm_engine():
    """A small engine whose memos hold visit entries: the query twice."""
    query = _web_query((WebQueryStep(parse_pre("(L|G)*2"), _title_query(("url",), "q")),))
    engine = WebDisEngine(_small_web())
    for __ in range(2):
        handle = engine.submit(query)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
    memo = engine.servers["a.example"].memo
    assert memo.entry_counts()["visits"] > 0
    return engine, memo


class TestVisitEntryCoherence:
    def test_a_warm_memo_is_coherent(self):
        engine, memo = _warm_engine()
        assert check_memo_coherence(engine) == []
        # The gauge counts visit entries, and so does the recount.
        visits = dict(memo._visits)
        assert memo.recount_bytes() == memo.bytes_est
        memo._visits.clear()
        assert memo.recount_bytes() < memo.bytes_est
        memo._visits.update(visits)

    def test_a_visit_entry_from_a_dead_version_is_found(self):
        engine, memo = _warm_engine()
        key, entry = next(iter(memo._visits.items()))
        memo._visits[key] = replace(entry, version=entry.version - 1)
        (violation,) = check_memo_coherence(engine)
        assert violation.invariant == "memo-coherence"
        assert "dead version" in violation.detail and "visit" in violation.detail

    def test_a_visit_entry_outliving_its_part_is_found(self):
        engine, memo = _warm_engine()
        entry = next(iter(memo._visits.values()))
        kind, node, part = entry.parts[0]
        size = memo._rows.pop((node, part)).size if kind == "r" else (
            memo._fanout[node].pop(part).size
        )
        memo.bytes_est -= size
        engine.stats.memo_bytes_est -= size
        violations = check_memo_coherence(engine)
        assert [v.invariant for v in violations] == ["memo-coherence"]
        assert "outliving a part" in violations[0].detail

    def test_a_visit_entry_missing_from_the_gauge_is_found(self):
        engine, memo = _warm_engine()
        key = next(iter(memo._visits))
        del memo._visits[key]
        (violation,) = check_memo_coherence(engine)
        assert "byte gauge drifted" in violation.detail

    def test_crash_and_epoch_drop_visit_entries(self):
        engine, memo = _warm_engine()
        engine.advance_memo_epoch()
        assert memo.entry_counts() == {"rows": 0, "fanout": 0, "visits": 0}
        engine, memo = _warm_engine()
        engine.servers["a.example"].crash()
        assert engine.servers["a.example"].memo.entry_counts()["visits"] == 0
