"""Unit tests for core data structures: state, query objects, CHT, log table."""

from __future__ import annotations

import pytest

from repro.core.cht import CurrentHostsTable, RetireResult
from repro.core.logtable import LogAction, NodeQueryLogTable
from repro.core.messages import ChtEntry, Disposition, NodeReport, RelayMessage, ResultMessage
from repro.core.state import QueryState
from repro.core.webquery import QueryClone, QueryId, WebQuery, WebQueryStep
from repro.errors import DisqlSemanticsError, ProtocolError
from repro.pre import parse_pre
from repro.relational.expr import Attr
from repro.relational.query import NodeQuery, ResultRow, TableDecl
from repro.urlutils import Url

QID = QueryId("maya", "user.example", 5001, 1)


def _step(pre_text: str, label: str) -> WebQueryStep:
    return WebQueryStep(
        parse_pre(pre_text),
        NodeQuery((Attr("d", "url"),), (TableDecl("document", "d"),), label=label),
    )


def _query(*pre_texts: str) -> WebQuery:
    steps = tuple(_step(t, f"q{i + 1}") for i, t in enumerate(pre_texts))
    return WebQuery(QID, (Url("start.example", "/"),), steps)


class TestQueryState:
    def test_str_matches_paper_notation(self):
        state = QueryState(2, parse_pre("G.L"))
        assert str(state) == "(2, G.L)"

    def test_hashable_key(self):
        a = QueryState(1, parse_pre("G|L"))
        b = QueryState(1, parse_pre("G|L"))
        assert a == b and hash(a) == hash(b)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            QueryState(-1, parse_pre("G"))

    def test_size_grows_with_pre(self):
        small = QueryState(1, parse_pre("G"))
        big = QueryState(1, parse_pre("N|G.(L*4)"))
        assert big.size_bytes() > small.size_bytes()


class TestWebQuery:
    def test_initial_state(self):
        query = _query("L", "G.(L*1)")
        assert query.initial_state() == QueryState(2, parse_pre("L"))

    def test_step_labels(self):
        query = _query("L", "G")
        assert query.step_label(1) == "q2"

    def test_no_steps_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            WebQuery(QID, (Url("s.example", "/"),), ())

    def test_no_start_nodes_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            WebQuery(QID, (), (_step("L", "q1"),))

    def test_with_qid(self):
        query = _query("L")
        other = query.with_qid(QueryId("x", "h.example", 1, 2))
        assert other.qid.user == "x" and query.qid.user == "maya"


class TestQueryClone:
    def test_state(self):
        query = _query("L", "G")
        clone = QueryClone(query, 0, parse_pre("L"), (Url("a.example", "/"),))
        assert clone.state == QueryState(2, parse_pre("L"))
        clone2 = QueryClone(query, 1, parse_pre("G"), (Url("a.example", "/"),))
        assert clone2.state.num_q == 1

    def test_site_from_dest(self):
        clone = QueryClone(_query("L"), 0, parse_pre("L"), (Url("a.example", "/x"),))
        assert clone.site == "a.example"

    def test_multi_site_dest_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            QueryClone(
                _query("L"), 0, parse_pre("L"),
                (Url("a.example", "/"), Url("b.example", "/")),
            )

    def test_empty_dest_rejected(self):
        with pytest.raises(DisqlSemanticsError):
            QueryClone(_query("L"), 0, parse_pre("L"), ())

    def test_step_index_range(self):
        with pytest.raises(DisqlSemanticsError):
            QueryClone(_query("L"), 1, parse_pre("L"), (Url("a.example", "/"),))

    def test_size_smaller_with_fewer_remaining_steps(self):
        query = _query("L", "G", "I")
        early = QueryClone(query, 0, parse_pre("L"), (Url("a.example", "/"),))
        late = QueryClone(query, 2, parse_pre("I"), (Url("a.example", "/"),))
        assert late.size_bytes() < early.size_bytes()

    def test_history_increases_size(self):
        query = _query("L")
        bare = QueryClone(query, 0, parse_pre("L"), (Url("a.example", "/"),))
        trailed = QueryClone(
            query, 0, parse_pre("L"), (Url("a.example", "/"),),
            history=("x.example", "y.example"),
        )
        assert trailed.size_bytes() > bare.size_bytes()


ENTRY = ChtEntry(Url("a.example", "/"), QueryState(1, parse_pre("G")))
OTHER = ChtEntry(Url("b.example", "/"), QueryState(1, parse_pre("G")))


class TestCurrentHostsTable:
    def test_empty_table_is_complete(self):
        # Vacuously: no additions, no deletions.
        assert CurrentHostsTable().all_deleted()

    def test_pending_entry_blocks_completion(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        assert not cht.all_deleted()

    def test_add_delete_completes(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        cht.mark_deleted(ENTRY, dispatch_id="d1")
        assert cht.all_deleted()

    def test_unstamped_operations_are_rejected(self):
        cht = CurrentHostsTable()
        pytest.raises(TypeError, cht.add, ENTRY)
        pytest.raises(ProtocolError, cht.add, ENTRY, dispatch_id="")
        pytest.raises(ProtocolError, cht.mark_deleted, ENTRY, dispatch_id="")
        assert cht.additions == cht.deletions == 0

    def test_multiset_semantics(self):
        # Two clones at one (node, state) entry are two instances.
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        cht.add(ENTRY, dispatch_id="d2")
        cht.mark_deleted(ENTRY, dispatch_id="d1")
        assert not cht.all_deleted()
        cht.mark_deleted(ENTRY, dispatch_id="d2")
        assert cht.all_deleted()

    def test_out_of_order_delete_before_add(self):
        """A delete arriving before its add must not fake completion."""
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        # Report for OTHER arrives before the report that adds OTHER:
        assert cht.mark_deleted(OTHER, dispatch_id="d2") is RetireResult.EARLY
        cht.add(OTHER, dispatch_id="d2")
        assert not cht.all_deleted()  # ENTRY still pending
        cht.mark_deleted(ENTRY, dispatch_id="d1")
        assert cht.all_deleted()

    def test_pending_entries_listing(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        cht.add(OTHER, dispatch_id="d2")
        cht.mark_deleted(ENTRY, dispatch_id="d1")
        assert cht.pending_entries() == [OTHER]

    def test_history_preserved(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, time=1.0, dispatch_id="d1")
        cht.mark_deleted(ENTRY, time=2.0, dispatch_id="d1")
        history = cht.history()
        assert [(r.deleted, r.time) for r in history] == [(False, 1.0), (True, 2.0)]

    def test_consistency_check(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        cht.check_consistency()

    def test_imbalance(self):
        cht = CurrentHostsTable()
        cht.add(ENTRY, dispatch_id="d1")
        cht.add(OTHER, dispatch_id="d2")
        cht.mark_deleted(ENTRY, dispatch_id="d1")
        assert cht.imbalance() == 1


NODE = Url("a.example", "/page")


class TestNodeQueryLogTable:
    def test_first_visit_processes(self):
        table = NodeQueryLogTable()
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("G")), 0.0)
        assert obs.action is LogAction.PROCESS
        assert table.entry_count() == 1

    def test_exact_duplicate_dropped(self):
        table = NodeQueryLogTable()
        state = QueryState(1, parse_pre("G"))
        table.observe(NODE, QID, state, 0.0)
        assert table.observe(NODE, QID, state, 1.0).action is LogAction.DROP
        assert table.drops == 1

    def test_subsumed_bound_dropped(self):
        table = NodeQueryLogTable()
        table.observe(NODE, QID, QueryState(1, parse_pre("L*2.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L*1.G")), 1.0)
        assert obs.action is LogAction.DROP

    def test_superset_rewrites(self):
        table = NodeQueryLogTable()
        table.observe(NODE, QID, QueryState(1, parse_pre("L*2.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L*4.G")), 1.0)
        assert obs.action is LogAction.REWRITE
        assert str(obs.rewritten_rem) == "L.L*3.G"
        assert table.rewrites == 1

    def test_superset_replaces_entry(self):
        table = NodeQueryLogTable()
        table.observe(NODE, QID, QueryState(1, parse_pre("L*2.G")), 0.0)
        table.observe(NODE, QID, QueryState(1, parse_pre("L*4.G")), 1.0)
        # The wider bound is now logged: the old narrower one is duplicate.
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L*3.G")), 2.0)
        assert obs.action is LogAction.DROP
        assert table.states_for(NODE, QID) == [QueryState(1, parse_pre("L*4.G"))]

    def test_different_num_q_processes(self):
        table = NodeQueryLogTable()
        table.observe(NODE, QID, QueryState(2, parse_pre("G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("G")), 1.0)
        assert obs.action is LogAction.PROCESS
        assert table.entry_count() == 2

    def test_different_node_processes(self):
        table = NodeQueryLogTable()
        state = QueryState(1, parse_pre("G"))
        table.observe(NODE, QID, state, 0.0)
        obs = table.observe(Url("a.example", "/other"), QID, state, 1.0)
        assert obs.action is LogAction.PROCESS

    def test_different_query_processes(self):
        table = NodeQueryLogTable()
        state = QueryState(1, parse_pre("G"))
        table.observe(NODE, QID, state, 0.0)
        other_qid = QueryId("maya", "user.example", 5002, 2)
        assert table.observe(NODE, other_qid, state, 1.0).action is LogAction.PROCESS

    def test_purge_then_reprocess(self):
        table = NodeQueryLogTable()
        state = QueryState(1, parse_pre("G"))
        table.observe(NODE, QID, state, 0.0)
        removed = table.purge_older_than(5.0)
        assert removed == 1
        assert table.observe(NODE, QID, state, 6.0).action is LogAction.PROCESS

    def test_purge_keeps_recent(self):
        table = NodeQueryLogTable()
        table.observe(NODE, QID, QueryState(1, parse_pre("G")), 10.0)
        assert table.purge_older_than(5.0) == 0
        assert table.entry_count() == 1


class TestLanguageSubsumptionMode:
    """The generalized (language-containment) log-table mode."""

    def _table(self):
        return NodeQueryLogTable(mode="language")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            NodeQueryLogTable(mode="telepathy")

    def test_rewritten_clone_recognized(self):
        # L.L*1.G ⊆ L*4.G — invisible to the paper's A*m·B test.
        table = self._table()
        table.observe(NODE, QID, QueryState(1, parse_pre("L*4.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L.L*1.G")), 1.0)
        assert obs.action is LogAction.DROP

    def test_commuted_alternation_recognized(self):
        table = self._table()
        table.observe(NODE, QID, QueryState(1, parse_pre("G|L")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L|G")), 1.0)
        assert obs.action is LogAction.DROP

    def test_paper_mode_misses_those(self):
        table = NodeQueryLogTable(mode="paper")
        table.observe(NODE, QID, QueryState(1, parse_pre("L*4.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L.L*1.G")), 1.0)
        assert obs.action is LogAction.PROCESS

    def test_superset_still_rewrites(self):
        table = self._table()
        table.observe(NODE, QID, QueryState(1, parse_pre("L*2.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L*4.G")), 1.0)
        assert obs.action is LogAction.REWRITE

    def test_unrelated_still_processes(self):
        table = self._table()
        table.observe(NODE, QID, QueryState(1, parse_pre("G.G")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L.L")), 1.0)
        assert obs.action is LogAction.PROCESS

    def test_num_q_still_respected(self):
        table = self._table()
        table.observe(NODE, QID, QueryState(2, parse_pre("G|L")), 0.0)
        obs = table.observe(NODE, QID, QueryState(1, parse_pre("L|G")), 1.0)
        assert obs.action is LogAction.PROCESS


class TestMessages:
    def _report(self):
        row = ResultRow(("d.url",), ("http://a.example/",))
        return NodeReport(
            ENTRY,
            Disposition.PROCESSED,
            new_entries=(OTHER,),
            results=(("q1", row),),
        )

    def test_result_message_size(self):
        message = ResultMessage(QID, (self._report(),))
        assert message.size_bytes() > 0
        assert message.result_count() == 1

    def test_empty_report_smaller(self):
        full = ResultMessage(QID, (self._report(),))
        empty = ResultMessage(QID, (NodeReport(ENTRY, Disposition.DUPLICATE),))
        assert empty.size_bytes() < full.size_bytes()

    def test_kind_override(self):
        assert ResultMessage(QID, (), kind="cht").kind == "cht"

    def test_relay_wraps_inner(self):
        inner = ResultMessage(QID, (self._report(),))
        relay = RelayMessage(("a.example", "b.example"), inner)
        assert relay.kind == "relay"
        assert relay.size_bytes() > inner.size_bytes()


# --- property: CHT balance under arbitrary report interleavings -------------

from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _report_trees(draw):
    """A random clone tree plus a random delivery order of its reports.

    Protocol model: ``send_query`` seeds the root entry; each node's report
    *atomically* retires its own entry and announces its children's entries
    (they travel in one message).  Reports from different servers arrive in
    any order.
    """
    n = draw(st.integers(1, 9))
    entries = [
        ChtEntry(Url(f"n{i}.example", "/"), QueryState(1, parse_pre("G")))
        for i in range(n)
    ]
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    children = {i: [j for j in range(n) if parents[j] == i] for i in range(n)}
    order = draw(st.permutations(range(n)))
    return entries, children, order


@given(_report_trees())
@settings(max_examples=200, deadline=None)
def test_cht_complete_exactly_after_last_report(tree):
    """Under ANY delivery order of atomic reports, the CHT reads complete
    exactly once: after the final report (the balance argument of
    repro/core/cht.py, exercised exhaustively)."""
    entries, children, order = tree
    cht = CurrentHostsTable()
    cht.add(entries[0], dispatch_id="d0")  # send_query seeds the root
    for index, node in enumerate(order):
        # One report message: retire own entry, announce the children.
        cht.mark_deleted(entries[node], dispatch_id=f"d{node}")
        for child in children[node]:
            cht.add(entries[child], dispatch_id=f"d{child}")
        assert cht.all_deleted() == (index == len(order) - 1)
    cht.check_consistency()
    assert cht.imbalance() == 0
