"""Query-server crash/recovery and end-to-end reliability (§7.1 extension).

Three recovery paths keep completion exact when a server crashes mid-query:

* sender-side retries — the connect never succeeded, so the forwarder's
  :class:`~repro.net.reliable.ReliableChannel` keeps trying until the site
  restarts;
* client re-forwarding — the connect *did* succeed and the clone died
  inside the crash; :meth:`~repro.core.client.UserSiteClient.reforward_pending`
  (which a :class:`~repro.core.supervisor.QuerySupervisor` calls on a
  stall) sends it again;
* retraction — the site never comes back; the forwarder retires the
  entries once its retry budget is spent.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import (
    EngineConfig,
    FaultPlan,
    NetworkConfig,
    QueryStatus,
    RetryPolicy,
    WebDisEngine,
)
from repro.net import Network, SimClock, TrafficStats
from repro.net.network import QUERY_PORT
from repro.web.builders import WebBuilder
from repro.web.campus import CAMPUS_QUERY_DISQL


def _star_web():
    builder = WebBuilder()
    builder.site("root.example").page(
        "/",
        title="root topic",
        links=[(f"leaf {i}", f"http://leaf{i}.example/") for i in range(3)],
    )
    for i in range(3):
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

RETRIES = RetryPolicy(max_attempts=8, base_delay=0.5, multiplier=2.0, jitter=0.0)


@dataclass(frozen=True)
class _Blob:
    size: int = 10
    kind: str = "blob"

    def size_bytes(self) -> int:
        return self.size


class TestInFlightLoss:
    def test_crash_between_connect_and_delivery_drops_payload(self):
        # Satellite: the Network._deliver drop path, at the network level.
        clock = SimClock()
        network = Network(clock, TrafficStats(), NetworkConfig(latency_base=1.0))
        network.register_site("a.example")
        network.register_site("b.example")
        received = []
        network.listen("b.example", 80, lambda s, p: received.append(p))
        assert network.send("a.example", "b.example", 80, _Blob())  # connect ok
        clock.schedule(0.5, lambda: network.crash_site("b.example"))
        clock.run()
        assert received == []  # lost in flight

        # After recovery (site up, listener re-bound) a resend goes through —
        # this is what protocol-level retries/re-forwards ride on.
        network.set_site_up("b.example")
        network.listen("b.example", 80, lambda s, p: received.append(p))
        assert network.send("a.example", "b.example", 80, _Blob())
        clock.run()
        assert len(received) == 1

    def test_reforward_recovers_clone_lost_in_crash(self):
        """Connect succeeded, clone lost inside the crash: no retry fires
        (the sender saw success), so a re-forward is what resolves the
        orphaned CHT entry."""
        engine = WebDisEngine(_star_web(), net_config=NetworkConfig(latency_base=1.0))
        handle = engine.submit_disql(QUERY)
        # Root forwards at ~t=1.0 (connects succeed); deliveries land at
        # ~t=2.0.  Crash at 1.5 eats the clone in flight to leaf1.
        engine.crash_server("leaf1.example", at=1.5)
        engine.restart_server("leaf1.example", at=2.5)
        # Re-forward once the surviving clones have reported.
        engine.clock.schedule(9.0, lambda: engine.client.reforward_pending(handle))
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert {r.values[1] for r in handle.unique_rows()} == {
            "answer 0", "answer 1", "answer 2"
        }
        assert engine.stats.retried_sends == 0  # connect never failed


class TestCrashRecovery:
    def test_retry_bridges_crash_and_restart(self):
        """Crash *before* the forward: the connect fails HOST_DOWN and the
        forwarder's retries bridge the outage — no re-forward needed."""
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(retry_policy=RETRIES),
            net_config=NetworkConfig(latency_base=1.0),
        )
        handle = engine.submit_disql(QUERY)
        engine.crash_server("leaf1.example", at=0.5)  # before root forwards
        engine.restart_server("leaf1.example", at=4.0)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert {r.values[1] for r in handle.unique_rows()} == {
            "answer 0", "answer 1", "answer 2"
        }
        assert engine.stats.retried_sends >= 1
        assert engine.stats.retries_exhausted == 0

    def test_unrecovered_crash_retracts_after_exhaustion(self):
        """The site never restarts: the forwarder burns its retry budget,
        then falls back to the existing CHT-retraction path.  The query
        still completes exactly — with the dead site's answer missing."""
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(
                retry_policy=RetryPolicy(max_attempts=3, base_delay=0.2, jitter=0.0)
            ),
            net_config=NetworkConfig(latency_base=1.0),
            trace=True,
        )
        handle = engine.submit_disql(QUERY)
        engine.crash_server("leaf1.example", at=0.5)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert {r.values[1] for r in handle.unique_rows()} == {"answer 0", "answer 2"}
        assert engine.stats.retries_exhausted >= 1
        assert "unreachable-site" in engine.tracer.actions()

    def test_crash_via_fault_plan(self):
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(retry_policy=RETRIES),
            net_config=NetworkConfig(latency_base=1.0),
        )
        engine.apply_faults(
            FaultPlan().crash("leaf2.example", at=0.5, restart_at=4.0)
        )
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert len(handle.unique_rows()) == 3

    def test_crash_unknown_site_rejected(self):
        import pytest

        from repro.errors import SimulationError

        engine = WebDisEngine(_star_web())
        with pytest.raises(SimulationError):
            engine.crash_server("nonexistent.example")
        with pytest.raises(SimulationError):
            engine.restart_server("nonexistent.example")

    def test_restarted_server_state_is_blank(self):
        engine = WebDisEngine(_star_web())
        first = engine.run_query(QUERY)
        assert first.status is QueryStatus.COMPLETE
        server = engine.server_for("leaf1.example")
        assert server.log_table.entry_count() > 0
        engine.crash_server("leaf1.example")
        engine.restart_server("leaf1.example")
        assert server.log_table.entry_count() == 0
        assert server.queue_depth == 0
        assert engine.network.is_listening("leaf1.example", QUERY_PORT)
        # And it serves fresh queries again.
        second = engine.run_query(QUERY)
        assert second.status is QueryStatus.COMPLETE
        assert len(second.unique_rows()) == 3


class TestCancellationUnderRetries:
    def test_refused_dispatch_is_never_retried(self):
        """Acceptance: a cancelled query's REFUSED result dispatches must
        never consume retries — REFUSED *is* the termination signal — and
        every server the query reached must purge it."""
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(retry_policy=RETRIES),
            net_config=NetworkConfig(latency_base=0.5),
            trace=True,
        )
        handle = engine.submit_disql(QUERY)
        engine.cancel(handle, at=0.6)  # root has the clone; no reply yet
        engine.run()
        assert handle.status is QueryStatus.CANCELLED
        assert engine.stats.refused_sends >= 1
        assert engine.stats.retried_sends == 0
        assert engine.stats.retries_exhausted == 0
        assert "purged" in engine.tracer.actions()


class TestChaos:
    def test_ten_percent_faults_with_retries_completes_exactly(self):
        """Acceptance: at a 10% transient fault rate, retries carry every
        query to exact CHT completion with the full answer set."""
        engine = WebDisEngine(
            _star_web(),
            config=EngineConfig(
                retry_policy=RetryPolicy(max_attempts=8, base_delay=0.05, seed=1)
            ),
        )
        engine.apply_faults(FaultPlan(seed=1).drop(0.10))
        handle = engine.submit_disql(QUERY)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert {r.values[1] for r in handle.unique_rows()} == {
            "answer 0", "answer 1", "answer 2"
        }
        assert engine.stats.retries_exhausted == 0

    def test_chaos_campus_query_with_retries(self):
        engine = WebDisEngine(
            _build_campus(),
            config=EngineConfig(
                retry_policy=RetryPolicy(max_attempts=8, base_delay=0.05, seed=2)
            ),
        )
        engine.apply_faults(FaultPlan(seed=2).drop(0.10))
        handle = engine.submit_disql(CAMPUS_QUERY_DISQL)
        engine.run()
        assert handle.status is QueryStatus.COMPLETE
        assert handle.cht.imbalance() == 0
        assert len(handle.unique_rows("q2")) == 3
        assert engine.stats.failed_sends >= 1  # the plan actually bit
        assert engine.stats.retried_sends >= 1


def _build_campus():
    from repro.web import build_campus_web

    return build_campus_web()
