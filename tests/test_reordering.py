"""End-to-end message reordering: the CHT must stay exact.

Reports to the user travel on independent connections, so a slow link can
deliver a *child's* report (which retires an entry) before the *parent's*
report (which announced it).  The CHT holds such an early retirement
until its announcement lands (`repro/core/cht.py`); these tests force the
scenario with per-link latency overrides and verify completion stays exact
— neither premature nor missed.
"""

from __future__ import annotations

import pytest

from repro import NetworkConfig, QueryStatus, WebDisEngine
from repro.web.builders import WebBuilder

USER = "user.example"


def _chain_web():
    """root -> mid -> leaf, one answer at each hop."""
    builder = WebBuilder()
    builder.site("root.example").page(
        "/", title="root topic", links=[("mid", "http://mid.example/")]
    )
    builder.site("mid.example").page(
        "/", title="mid topic", links=[("leaf", "http://leaf.example/")]
    )
    builder.site("leaf.example").page("/", title="leaf topic")
    return builder.build()


QUERY = (
    'select d.url from document d such that "http://root.example/" N|G|G.G d\n'
    'where d.title contains "topic"'
)


def _run(overrides):
    engine = WebDisEngine(
        _chain_web(),
        net_config=NetworkConfig(latency_base=0.05, latency_overrides=overrides),
    )
    handle = engine.run_query(QUERY)
    return engine, handle


class TestReordering:
    def test_baseline_in_order(self):
        engine, handle = _run(None)
        assert handle.status is QueryStatus.COMPLETE
        assert len(handle.unique_rows()) == 3

    @pytest.mark.parametrize(
        "slow_site", ["root.example", "mid.example"]
    )
    def test_slow_parent_report_still_completes(self, slow_site):
        """The parent's report (announcing children) arrives LAST."""
        overrides = {(slow_site, USER): 5.0}
        engine, handle = _run(overrides)
        assert handle.status is QueryStatus.COMPLETE
        assert len(handle.unique_rows()) == 3
        handle.cht.check_consistency()
        assert handle.cht.imbalance() == 0

    def test_deletion_really_arrives_before_addition(self):
        """Confirm the scenario actually reorders: slowing mid's report (the
        one announcing the leaf entry) lets the leaf's own report beat it to
        the user, driving the leaf's CHT count negative transiently —
        visible in the audit history."""
        overrides = {("mid.example", USER): 5.0}
        engine, handle = _run(overrides)
        history = handle.cht.history()
        # Find the leaf entry: its deletion must precede its addition.
        events = [
            (record.deleted, record.time)
            for record in history
            if "leaf.example" in str(record.entry.node)
        ]
        assert len(events) == 2
        (first_deleted, t1), (second_deleted, t2) = events
        assert first_deleted and not second_deleted  # delete recorded first
        assert t1 <= t2
        assert handle.status is QueryStatus.COMPLETE

    def test_no_premature_completion_mid_reorder(self):
        """At no point during the reordered run may all_deleted() hold while
        clones are still active — completion fires exactly once, at the end."""
        overrides = {("root.example", USER): 5.0}
        engine = WebDisEngine(
            _chain_web(),
            net_config=NetworkConfig(latency_base=0.05, latency_overrides=overrides),
        )
        completions: list[float] = []
        handle = engine.submit_disql(
            QUERY, on_complete=lambda h: completions.append(engine.clock.now)
        )
        engine.run()
        assert completions == [handle.completion_time]
        # Completion must wait for the slow root report (>= 5 s latency).
        assert handle.completion_time > 5.0

    def test_wan_lan_asymmetry_changes_timing_only(self):
        symmetric_engine, symmetric = _run(None)
        overrides = {("leaf.example", USER): 1.0, ("mid.example", USER): 0.5}
        skewed_engine, skewed = _run(overrides)
        assert {r.values for r in skewed.unique_rows()} == {
            r.values for r in symmetric.unique_rows()
        }
        assert skewed.response_time() > symmetric.response_time()
