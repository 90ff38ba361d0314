"""Self-healing queries: epoch-fenced recovery and idempotent CHT accounting.

The PR-1 footgun, quoted from :meth:`UserSiteClient.reforward_pending`'s own
doc at the time: *"Re-forwarding an entry whose original report is still in
flight would retire it twice and unbalance the CHT."*  These tests pin the
fix — dispatch identities + recovery epochs — at three levels:

* the :class:`~repro.core.cht.CurrentHostsTable` accounting itself
  (supersede / absorb / early / abandon);
* a direct reproduction of the footgun: the slow-report-races-re-forward
  event sequence, which a bare ``(node, state)`` count cannot survive, is
  absorbed exactly by the identity books;
* end-to-end through the engine, with a slow network edge forcing the
  original report to genuinely lose the race against the re-forward;

plus the satellites that ride along: the :class:`QuerySupervisor`
watch→re-forward→degrade driver, cancel resetting the reliable channel
(tag-scoped), the recovery counters, and the wire codec round-tripping
dispatch identities.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (
    EngineConfig,
    NetworkConfig,
    QueryStatus,
    QuerySupervisor,
    RecoveryPolicy,
    RetryPolicy,
    WebDisEngine,
)
from repro.core.cht import CurrentHostsTable, InstanceStatus, RetireResult
from repro.core.messages import ChtEntry, CloneReport, Disposition, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId
from repro.disql import compile_disql
from repro.errors import ProtocolError
from repro.pre import parse_pre
from repro.urlutils import Url
from repro.web.builders import WebBuilder
from repro.wire import decode_message, encode_message


def _entry(host: str = "a.example", path: str = "/") -> ChtEntry:
    return ChtEntry(Url(host, path), QueryState(1, parse_pre("N")))


def _star_web(leaves: int = 3):
    builder = WebBuilder()
    builder.site("root.example").page(
        "/",
        title="root topic",
        links=[(f"leaf {i}", f"http://leaf{i}.example/") for i in range(leaves)],
    )
    for i in range(leaves):
        builder.site(f"leaf{i}.example").page(
            "/", title=f"leaf {i} topic", emphasized=[("b", f"answer {i}")]
        )
    return builder.build()


QUERY = (
    'select d.url, r.text\n'
    'from document d such that "http://root.example/" N|G d,\n'
    '     relinfon r such that r.delimiter = "b"\n'
    'where r.text contains "answer"'
)

ANSWERS = {"answer 0", "answer 1", "answer 2"}


class TestIdentityAccounting:
    """CurrentHostsTable: the dispatch-identity books, driven directly."""

    def test_stamped_add_retire_balances(self):
        cht = CurrentHostsTable()
        entry = _entry()
        cht.add(entry, dispatch_id="u1@user", epoch=0)
        assert not cht.all_deleted()
        assert cht.mark_deleted(entry, dispatch_id="u1@user") is RetireResult.RETIRED
        assert cht.all_deleted()
        assert cht.imbalance() == 0
        cht.audit()

    def test_duplicate_report_absorbed_not_double_counted(self):
        cht = CurrentHostsTable()
        entry = _entry()
        cht.add(entry, dispatch_id="u1@user")
        cht.mark_deleted(entry, dispatch_id="u1@user")
        # The same report delivered twice (e.g. a resend after a FAULT whose
        # first copy actually arrived): absorbed, books untouched.
        assert (
            cht.mark_deleted(entry, dispatch_id="u1@user")
            is RetireResult.ABSORBED_DUPLICATE
        )
        assert cht.duplicates_absorbed == 1
        assert cht.all_deleted()
        assert cht.imbalance() == 0
        cht.audit()

    def test_supersede_fences_the_old_dispatch(self):
        cht = CurrentHostsTable()
        entry = _entry()
        cht.add(entry, dispatch_id="u1@user", epoch=0)
        assert cht.supersede("u1@user", entry.node, "u2@user", new_epoch=1)
        # The old instance no longer blocks completion; the new one does.
        pending = cht.pending_instances()
        assert [inst.dispatch_id for inst in pending] == ["u2@user"]
        assert pending[0].epoch == 1
        # The slow original report arrives: absorbed as stale, harmlessly.
        assert cht.mark_deleted(entry, dispatch_id="u1@user") is RetireResult.ABSORBED_STALE
        assert cht.stale_absorbed == 1
        assert not cht.all_deleted()
        # The re-forward's own report completes the query.
        assert cht.mark_deleted(entry, dispatch_id="u2@user") is RetireResult.RETIRED
        assert cht.all_deleted()
        cht.audit()

    def test_supersede_requires_a_pending_instance(self):
        cht = CurrentHostsTable()
        entry = _entry()
        cht.add(entry, dispatch_id="u1@user")
        cht.mark_deleted(entry, dispatch_id="u1@user")
        assert not cht.supersede("u1@user", entry.node, "u2@user", new_epoch=1)
        assert not cht.supersede("unknown", entry.node, "u3@user", new_epoch=1)
        assert cht.all_deleted()

    def test_early_retirement_matches_later_announcement(self):
        # Out-of-order delivery: the child's own report overtakes the parent
        # report announcing that child.  The retirement is held "early" and
        # matched when the announcement lands.
        cht = CurrentHostsTable()
        entry = _entry()
        assert cht.mark_deleted(entry, dispatch_id="s4@leaf") is RetireResult.EARLY
        assert not cht.all_deleted()
        cht.add(entry, dispatch_id="s4@leaf", epoch=0)
        assert cht.all_deleted()
        assert cht.imbalance() == 0
        cht.audit()

    def test_abandon_writes_off_for_coverage(self):
        cht = CurrentHostsTable()
        entry = _entry()
        cht.add(entry, dispatch_id="u1@user")
        assert cht.abandon("u1@user", entry.node, "site unreachable")
        assert cht.all_deleted()  # write-off counts as a deletion: exact books
        written_off = cht.abandoned_instances()
        assert [inst.status for inst in written_off] == [InstanceStatus.ABANDONED]
        assert written_off[0].reason == "site unreachable"
        # A very late report for the abandoned dispatch: stale, absorbed.
        assert cht.mark_deleted(entry, dispatch_id="u1@user") is RetireResult.ABSORBED_STALE
        cht.audit()

    def test_consistency_check_catches_corruption(self):
        cht = CurrentHostsTable()
        cht.add(_entry(), dispatch_id="u1@user")
        cht.check_consistency()
        cht._pending_count += 1  # simulate an accounting bug
        with pytest.raises(ProtocolError):
            cht.check_consistency()


class TestLegacyFootgun:
    """The PR-1 race against the identity books.

    Event sequence: an entry is dispatched, the user-site re-forwards it
    while the original report is merely slow, the server's processing
    announces one child, then *both* reports — the slow original and the
    re-forward's — arrive and retire the entry.  A signed ``(node, state)``
    count takes the second retirement for a real one and wedges.
    """

    def test_epoch_fencing_absorbs_the_same_race(self):
        cht = CurrentHostsTable()
        parent, child = _entry("a.example"), _entry("b.example")
        cht.add(parent, dispatch_id="u1@user", epoch=0)
        cht.supersede("u1@user", parent.node, "u2@user", new_epoch=1)  # re-forward
        cht.mark_deleted(parent, dispatch_id="u1@user")  # slow original: stale
        cht.add(child, dispatch_id="s1@a.example", epoch=0)
        assert cht.mark_deleted(parent, dispatch_id="u2@user") is RetireResult.RETIRED
        assert not cht.all_deleted()  # exactly the child outstanding
        assert cht.mark_deleted(child, dispatch_id="s1@a.example") is RetireResult.RETIRED
        assert cht.all_deleted()
        assert cht.imbalance() == 0
        assert cht.stale_absorbed == 1
        cht.audit()


class TestReforwardRace:
    """End-to-end: a slow network edge makes the original report lose the
    race against a re-forward."""

    def test_slow_report_after_reforward_absorbed_exactly(self):
        # leaf1's report path takes 6s; everything else 0.4s.  The user-site
        # re-forwards at 4s, while leaf1's report is still on its way; leaf1's
        # log table drops the re-forwarded clone as a DUPLICATE; the original
        # (stale) report and the duplicate-drop report then both arrive.
        engine = WebDisEngine(
            _star_web(),
            net_config=NetworkConfig(
                latency_base=0.4,
                latency_overrides={("leaf1.example", "user.example"): 6.0},
            ),
            trace=True,
        )
        handle = engine.submit_disql(QUERY)
        engine.clock.schedule(4.0, lambda: engine.client.reforward_pending(handle))
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        handle.cht.audit()
        assert handle.recovery_epoch == 1
        assert engine.stats.clones_reforwarded == 1
        # The late original retired nothing: absorbed as stale, not
        # double-retired (the double-retire would have completed the query
        # early, with leaf1's re-forward still outstanding).
        assert engine.stats.stale_reports_absorbed == 1
        assert handle.cht.stale_absorbed == 1
        # And its rows arrived exactly once.
        assert {row.values[1] for row in handle.unique_rows()} == ANSWERS
        assert len(handle.results) == len(handle.unique_rows())

    def test_reprocessed_rows_are_deduplicated(self):
        # Same race, but leaf1 crashes (wiping its log table) and restarts
        # before the re-forward lands — so the clone is genuinely processed
        # twice and *both* reports carry the same rows.  The second copy
        # must be dropped, not double-counted.
        engine = WebDisEngine(
            _star_web(),
            net_config=NetworkConfig(
                latency_base=0.4,
                latency_overrides={("leaf1.example", "user.example"): 6.0},
            ),
            trace=True,
        )
        handle = engine.submit_disql(QUERY)
        # The report leaves leaf1 at ~0.8s and is in flight when the site
        # crashes; in-flight messages *from* a crashed site still deliver.
        engine.crash_server("leaf1.example", at=1.0)
        engine.restart_server("leaf1.example", at=1.5)
        engine.clock.schedule(4.0, lambda: engine.client.reforward_pending(handle))
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert engine.stats.stale_reports_absorbed == 1
        assert engine.stats.duplicate_rows_dropped >= 1
        assert {row.values[1] for row in handle.unique_rows()} == ANSWERS
        # leaf1's answer appears once despite two full reports carrying it.
        assert len(handle.results) == len(handle.unique_rows())


class TestSupervisor:
    """The automatic watch→re-forward→degrade driver."""

    def test_recovers_clone_lost_in_crash(self):
        engine = WebDisEngine(_star_web(), net_config=NetworkConfig(latency_base=1.0))
        handle = engine.submit_disql(QUERY)
        # Crash eats the clone in flight to leaf1 (connect already
        # succeeded, so no retry fires); the restart brings the site back
        # with a blank log table.
        engine.crash_server("leaf1.example", at=1.5)
        engine.restart_server("leaf1.example", at=2.5)
        reports = []
        supervisor = QuerySupervisor(
            engine.client, RecoveryPolicy(quiet_timeout=3.0, max_recoveries=3)
        )
        supervisor.supervise(handle, on_final=reports.append)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert {row.values[1] for row in handle.unique_rows()} == ANSWERS
        assert engine.stats.clones_reforwarded >= 1
        [coverage] = reports  # on_final fired exactly once
        assert coverage.complete
        assert coverage.status is QueryStatus.COMPLETE
        assert coverage.recoveries_attempted >= 1
        assert coverage.abandoned == ()
        assert coverage.unreachable_sites == ()

    def test_escalates_to_partial_after_fruitless_recoveries(self):
        # leaf1 never comes back; a long-fused retry policy keeps every
        # re-forward attempt parked in the channel, so no recovery round
        # makes progress and the supervisor must degrade gracefully.
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(
                retry_policy=RetryPolicy(max_attempts=10, base_delay=30.0, jitter=0.0)
            ),
            net_config=NetworkConfig(latency_base=1.0),
            trace=True,
        )
        handle = engine.submit_disql(QUERY)
        engine.crash_server("leaf1.example", at=1.5)  # clone dies in flight
        reports = []
        supervisor = QuerySupervisor(
            engine.client,
            RecoveryPolicy(quiet_timeout=2.5, max_recoveries=2, backoff_multiplier=1.5),
        )
        supervisor.supervise(handle, on_final=reports.append)
        engine.run()
        assert handle.status is QueryStatus.PARTIAL
        assert "no progress" in handle.partial_reason
        assert handle.cht.all_deleted()  # write-offs keep the books exact
        [coverage] = reports
        assert not coverage.complete
        assert coverage.recoveries_attempted == 2
        assert coverage.unreachable_sites == ("leaf1.example",)
        assert {dispatch.node.host for dispatch in coverage.abandoned} == {"leaf1.example"}
        # The answers that were reachable still came home.
        assert {row.values[1] for row in handle.unique_rows()} == {"answer 0", "answer 2"}
        # Escalation abandoned the parked re-forward retries.
        assert engine.stats.sends_abandoned >= 1
        assert engine.stats.queries_partial == 1

    def test_absolute_deadline_escalates(self):
        engine = WebDisEngine(_star_web(), net_config=NetworkConfig(latency_base=1.0))
        handle = engine.submit_disql(QUERY)
        engine.crash_server("leaf1.example", at=1.5)  # never restarted
        reports = []
        supervisor = QuerySupervisor(
            engine.client,
            # quiet_timeout beyond the deadline: no recovery rounds, only
            # the hard per-query deadline.
            RecoveryPolicy(quiet_timeout=50.0, max_recoveries=3, deadline=6.0),
        )
        supervisor.supervise(handle, on_final=reports.append)
        engine.run()
        assert handle.status is QueryStatus.PARTIAL
        assert "deadline" in handle.partial_reason
        assert handle.completion_time == pytest.approx(6.0)
        [coverage] = reports
        assert coverage.unreachable_sites == ("leaf1.example",)

    def test_clean_completion_reports_coverage_once(self):
        engine = WebDisEngine(_star_web())
        handle = engine.submit_disql(QUERY)
        reports = []
        QuerySupervisor(engine.client).supervise(handle, on_final=reports.append)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        [coverage] = reports
        assert coverage.complete
        assert coverage.recoveries_attempted == 0
        assert coverage.recovery_epoch == 0
        assert "complete" in coverage.summary()


class TestCancelResetsChannel:
    def test_cancel_abandons_only_its_own_retries(self):
        # Both queries' opening dispatches are parked in retry (root is
        # down).  Cancelling the first must abandon *its* sends only — the
        # second query's retries survive and carry it to completion.
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(
                retry_policy=RetryPolicy(
                    max_attempts=5, base_delay=1.0, multiplier=2.0, jitter=0.0
                )
            ),
            net_config=NetworkConfig(latency_base=0.4),
        )
        engine.crash_server("root.example")
        doomed = engine.submit_disql(QUERY)
        survivor = engine.submit_disql(QUERY)
        engine.cancel(doomed, at=0.5)
        engine.restart_server("root.example", at=2.0)
        engine.run()
        assert doomed.status is QueryStatus.CANCELLED
        assert engine.stats.sends_abandoned == 1  # doomed's dispatch, nothing else
        assert survivor.status is QueryStatus.COMPLETE
        assert {row.values[1] for row in survivor.unique_rows()} == ANSWERS


class TestConsistencyFlag:
    def test_on_by_default_and_counters_surfaced(self):
        engine = WebDisEngine(_star_web())
        handle = engine.run_query(QUERY)  # every report ran the O(1) check
        assert handle.status is QueryStatus.COMPLETE
        summary = engine.stats.summary()
        for counter in (
            "duplicate_reports_absorbed",
            "stale_reports_absorbed",
            "duplicate_rows_dropped",
            "clones_reforwarded",
            "queries_partial",
            "sends_abandoned",
        ):
            assert counter in summary

    def test_removed_knobs_are_rejected(self):
        pytest.raises(TypeError, EngineConfig, debug_unfenced_recovery=True)
        pytest.raises(TypeError, EngineConfig, debug_consistency_checks=False)
        pytest.raises(TypeError, EngineConfig, db_cache_size=1)
        pytest.raises(TypeError, EngineConfig, memo_capacity=2)
        pytest.raises(TypeError, EngineConfig, log_purge_interval=1.0)
        pytest.raises(TypeError, EngineConfig, scheduler="fifo")
        pytest.raises(TypeError, EngineConfig, cross_query_caching=False)
        # Every field doubles the configurations to cover: adding one is a
        # decision, so the count is pinned.
        assert len(dataclasses.fields(EngineConfig)) == 20


class TestWireIdentity:
    """Dispatch identities survive the wire; unstamped traffic is unchanged."""

    QID = QueryId("maya", "user.example", 5001, 7)

    def _query(self):
        return compile_disql(
            'select d.url from document d such that "http://root.example/" N|G d'
        ).with_qid(self.QID)

    def test_stamped_clone_round_trips(self):
        clone = QueryClone(
            self._query(), 0, parse_pre("N|G"), (Url("root.example", "/"),),
            dispatch_id="u3@user.example", epoch=2,
        )
        decoded = decode_message(encode_message(clone))
        assert decoded == clone
        assert decoded.dispatch_id == "u3@user.example"
        assert decoded.epoch == 2

    def test_stamped_report_round_trips(self):
        parent = _entry("root.example")
        child = _entry("leaf0.example")
        report = CloneReport(
            (parent.node,), parent.state, (Disposition.PROCESSED,), (), (0,),
            ((child.node, child.state),), ("s9@root.example",), (1,),
            dispatch_id="u1@user.example", epoch=1,
        )
        message = ResultMessage(self.QID, (report,))
        assert decode_message(encode_message(message)) == message

    def test_unstamped_traffic_unchanged_on_the_wire(self):
        # Legacy messages must not grow identity keys: the encoded form of
        # an unstamped report is byte-identical to the pre-extension codec.
        entry = _entry()
        report = CloneReport(
            (entry.node,), entry.state, (Disposition.PROCESSED,), (), (0,), (), (), (0,)
        )
        message = ResultMessage(self.QID, (report,))
        encoded = encode_message(message)
        for key in (b'"did"', b'"ep"', b'"cids"'):
            assert key not in encoded
        assert decode_message(encoded) == message
