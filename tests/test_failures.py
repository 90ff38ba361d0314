"""Node-failure injection and graceful degradation/recovery (§7.1)."""

from __future__ import annotations

import pytest

from repro import NetworkConfig, QueryStatus, SendOutcome, WebDisEngine
from repro.baselines import HybridEngine
from repro.errors import SimulationError
from repro.web.builders import WebBuilder
from tests.conftest import outcome_of


def _star_web():
    """A root linking to three leaf sites, each holding one answer."""
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


class TestSiteDown:
    def test_down_site_refuses(self):
        engine = WebDisEngine(_star_web())
        engine.network.set_site_down("leaf0.example")
        assert not engine.network.is_site_up("leaf0.example")
        from repro.net.network import QUERY_PORT

        outcome = outcome_of(engine.network, "root.example", "leaf0.example", QUERY_PORT, _blob())
        assert outcome is SendOutcome.HOST_DOWN  # transient, unlike an active REFUSED

    def test_crash_unregistered_site_rejected(self):
        engine = WebDisEngine(_star_web())
        with pytest.raises(SimulationError):
            engine.network.set_site_down("nonexistent.example")

    def test_down_then_up(self):
        engine = WebDisEngine(_star_web())
        engine.network.set_site_down("leaf0.example")
        engine.network.set_site_up("leaf0.example")
        assert engine.network.is_site_up("leaf0.example")

    def test_in_flight_delivery_lost_on_crash(self):
        engine = WebDisEngine(_star_web(), net_config=NetworkConfig(latency_base=1.0))
        handle = engine.submit_disql(QUERY)
        # Root receives the query at ~t=1.0 and forwards immediately (the
        # connect to leaf1 succeeds); crash leaf1 at t=1.5 so the forwarded
        # clone is lost in flight (delivery would be at ~t=2.0).
        engine.clock.schedule(1.5, lambda: engine.network.set_site_down("leaf1.example"))
        engine.run()
        # The lost clone's CHT entry stays outstanding: no false completion.
        assert handle.status is QueryStatus.RUNNING
        assert handle.cht.imbalance() > 0


class TestGracefulDegradation:
    def test_query_completes_around_down_site(self):
        """A site that is down *before* forwarding degrades gracefully:
        the forwarder's retraction keeps completion exact, and the answers
        from healthy sites still arrive."""
        engine = WebDisEngine(_star_web(), trace=True)
        engine.network.set_site_down("leaf1.example")
        handle = engine.run_query(QUERY)
        assert handle.status is QueryStatus.COMPLETE
        answers = {r.values[1] for r in handle.unique_rows()}
        assert answers == {"answer 0", "answer 2"}
        assert "unreachable-site" in engine.tracer.actions()

    def test_all_leaves_down_still_completes(self):
        engine = WebDisEngine(_star_web())
        for i in range(3):
            engine.network.set_site_down(f"leaf{i}.example")
        handle = engine.run_query(QUERY)
        assert handle.status is QueryStatus.COMPLETE
        assert {r.values[1] for r in handle.unique_rows()} == set()

    def test_recovered_site_serves_next_query(self):
        engine = WebDisEngine(_star_web())
        engine.network.set_site_down("leaf1.example")
        first = engine.run_query(QUERY)
        assert len(first.unique_rows()) == 2  # two healthy leaves
        engine.network.set_site_up("leaf1.example")
        second = engine.run_query(QUERY)
        assert len(second.unique_rows()) == 3  # all three leaves again


class TestGracefulRecovery:
    def test_hybrid_recovers_full_answers(self):
        """With the hybrid central fallback, a crashed *query-server* whose
        documents are still web-served is processed centrally: the full
        answer set survives the failure (§7.1 graceful recovery)."""
        web = _star_web()
        hybrid = HybridEngine(web, web.site_names)
        # leaf1's query-server is gone, but its doc server stays up — model
        # this by closing the query port only.
        from repro.net.network import QUERY_PORT

        hybrid.network.close("leaf1.example", QUERY_PORT)
        handle = hybrid.run_query(QUERY)
        assert handle.status is QueryStatus.COMPLETE
        answers = {r.values[1] for r in handle.unique_rows() if r.values[1].startswith("answer")}
        assert answers == {"answer 0", "answer 1", "answer 2"}
        assert hybrid.stats.documents_shipped >= 1  # leaf1's page was fetched


def _blob():
    class _B:
        kind = "blob"

        def size_bytes(self):
            return 10

    return _B()
