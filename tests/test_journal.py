"""Tests for the protocol journal: recording, persistence, CHT audit."""

from __future__ import annotations

import pytest

from repro import EngineConfig, NetworkConfig, QueryStatus, WebDisEngine
from repro.core.webquery import QueryClone
from repro.journal import ProtocolJournal
from repro.web.campus import CAMPUS_QUERY_DISQL
from repro.web.figures import FIGURE5_START_URL, figure_query_disql


def _recorded_run(campus_web, **engine_kwargs):
    engine = WebDisEngine(campus_web, **engine_kwargs)
    journal = ProtocolJournal.attach(engine.network)
    handle = engine.run_query(CAMPUS_QUERY_DISQL)
    return engine, journal, handle


class TestRecording:
    def test_all_sends_recorded(self, campus_web):
        engine, journal, __ = _recorded_run(campus_web)
        assert len(journal) == engine.stats.messages_sent

    def test_kinds_match_stats(self, campus_web):
        engine, journal, __ = _recorded_run(campus_web)
        assert journal.by_kind() == dict(engine.stats.messages_by_kind)

    def test_entries_time_ordered(self, campus_web):
        __, journal, ___ = _recorded_run(campus_web)
        times = [e.time for e in journal.entries]
        assert times == sorted(times)

    def test_messages_decodable_objects(self, campus_web):
        __, journal, ___ = _recorded_run(campus_web)
        assert any(isinstance(e.message, QueryClone) for e in journal.entries)

    def test_detach(self, campus_web):
        engine = WebDisEngine(campus_web)
        journal = ProtocolJournal.attach(engine.network)
        engine.network.remove_tap(journal._record)
        engine.run_query(CAMPUS_QUERY_DISQL)
        assert len(journal) == 0


class TestPersistence:
    def test_round_trip(self, campus_web, tmp_path):
        __, journal, ___ = _recorded_run(campus_web)
        path = tmp_path / "run.jsonl"
        written = journal.write_jsonl(path)
        loaded = ProtocolJournal.load_jsonl(path)
        assert written == len(loaded)
        assert loaded.by_kind() == journal.by_kind()
        assert [e.message for e in loaded.entries] == [
            e.message for e in journal.entries
        ]

    def test_version_guard(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"journal_version": 999}\n')
        with pytest.raises(ValueError):
            ProtocolJournal.load_jsonl(path)

    def test_total_bytes(self, campus_web):
        __, journal, ___ = _recorded_run(campus_web)
        assert journal.total_bytes() > 0


class TestChtAudit:
    def test_complete_run_balanced(self, campus_web):
        __, journal, handle = _recorded_run(campus_web)
        assert handle.status is QueryStatus.COMPLETE
        audit = journal.audit_cht(handle.qid)
        assert audit.balanced
        assert audit.outstanding == 0
        assert audit.result_rows == len(handle.results)

    def test_failed_run_unbalanced(self, campus_web):
        engine = WebDisEngine(campus_web)
        journal = ProtocolJournal.attach(engine.network)
        engine.network.fail_next("dsl.serc.iisc.ernet.in", "user.example")
        handle = engine.run_query(CAMPUS_QUERY_DISQL)
        assert handle.status is QueryStatus.RUNNING
        audit = journal.audit_cht(handle.qid)
        assert not audit.balanced
        assert audit.outstanding == handle.cht.imbalance()

    def test_duplicate_drops_visible(self, figure5_web):
        engine = WebDisEngine(figure5_web)
        journal = ProtocolJournal.attach(engine.network)
        handle = engine.run_query(figure_query_disql(FIGURE5_START_URL))
        audit = journal.audit_cht(handle.qid)
        assert audit.balanced
        assert audit.dispositions.get("duplicate") == 2

    def test_audit_isolated_per_query(self, campus_web):
        engine = WebDisEngine(campus_web)
        journal = ProtocolJournal.attach(engine.network)
        h1 = engine.submit_disql(CAMPUS_QUERY_DISQL)
        h2 = engine.submit_disql(CAMPUS_QUERY_DISQL)
        engine.run()
        a1 = journal.audit_cht(h1.qid)
        a2 = journal.audit_cht(h2.qid)
        assert a1.balanced and a2.balanced
        assert a1.report_messages == a2.report_messages

    def test_audit_with_split_cht_messages(self, campus_web):
        __, journal, handle = _recorded_run(
            campus_web, config=EngineConfig(combine_results_and_cht=False)
        )
        assert handle.status is QueryStatus.COMPLETE
        audit = journal.audit_cht(handle.qid)
        assert audit.balanced
        assert audit.dispositions.get("data-only", 0) > 0
