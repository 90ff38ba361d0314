"""The per-query protocol table is a memo of ``pre.ops``, nothing else.

``repro.core.program`` answers, per state ``(step_index, rem)``, the
questions the hop path used to put to the PRE tree at every node.  The
property here is the oracle ROADMAP's integer-state item asks for: on random
multi-step web-queries, every row reachable from the initial row — by
fan-out, by stepping to the next node-query, by the ``A*m·B`` rewrite — holds
exactly what the tree-walking functions return on the trees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.program import QueryProgram, StateRow
from repro.core.state import QueryState
from repro.core.webquery import QueryId, WebQuery, WebQueryStep
from repro.disql import compile_disql
from repro.errors import DisqlSemanticsError
from repro.pre.ast import Never, concat, repeat
from repro.pre.ops import (
    advance,
    compare_for_log,
    decompose_repeat_head,
    first_symbols,
    nullable,
    pre_size,
    rewrite_superset,
)
from repro.pre.parser import parse_pre
from repro.urlutils import Url
from repro.wire import pre_from_wire, pre_to_wire
from tests.test_pre_properties import pres
from tests.test_subsumption_properties import bodies, bounds, tails

NODE_QUERY = compile_disql(
    'select d.url from document d such that "http://a.example/" N d'
).steps[0].query

#: Random PREs plus the ``A*m·B`` shapes the rewrite applies to (rare among
#: the former).
step_pres = st.one_of(
    pres,
    st.tuples(bodies, bounds, tails).map(
        lambda parts: concat((repeat(parts[0], parts[1]), *parts[2]))
    ),
)


def _web_query(step_pres_drawn) -> WebQuery:
    return WebQuery(
        QueryId("maya", "user.example", 5001, 1),
        (Url("a.example"),),
        tuple(WebQueryStep(pre, NODE_QUERY) for pre in step_pres_drawn),
    )


def _reachable(program: QueryProgram, limit: int = 200) -> list[StateRow]:
    """Rows reachable from the initial row; the walk itself fills the table."""
    found: list[StateRow] = []
    seen: set[StateRow] = set()
    stack = [program.starts[0]]
    while stack and len(found) < limit:
        row = stack.pop()
        if row in seen:
            continue
        seen.add(row)
        found.append(row)
        stack.extend(next_row for __, next_row in row.fanout())
        if row.next_start is not None:
            stack.append(row.next_start)
        if decompose_repeat_head(row.rem) is not None:
            stack.append(row.rewritten())
    return found


@settings(max_examples=150, deadline=None)
@given(st.lists(step_pres, min_size=1, max_size=3))
def test_every_reachable_row_equals_the_tree_walk(drawn):
    query = _web_query(drawn)
    program = query.program
    rows = _reachable(program)
    for row in rows:
        k, rem = row.step_index, row.rem
        assert row.state == QueryState(len(drawn) - k, rem)
        assert row.state.row is row
        assert row.nullable == nullable(rem)
        assert row.rem_bytes == 4 * pre_size(rem)
        assert row.state.size_bytes() == 4 + 4 * pre_size(rem)
        # Fan-out: the symbols, their order and the derivatives.
        expected = [
            (ltype, advance(rem, ltype))
            for ltype in sorted(first_symbols(rem), key=lambda lt: lt.value)
        ]
        expected = [(lt, d) for lt, d in expected if not isinstance(d, Never)]
        assert [(lt, nxt.rem) for lt, nxt in row.fanout()] == expected
        assert all(nxt.step_index == k for __, nxt in row.fanout())
        # Next step.
        if k + 1 < len(drawn):
            assert row.next_start is program.starts[k + 1]
            assert (row.next_start.step_index, row.next_start.rem) == (k + 1, drawn[k + 1])
        else:
            assert row.next_start is None
        # The A*m.B rewrite, or the same refusal.
        if decompose_repeat_head(rem) is None:
            with pytest.raises(ValueError):
                row.rewritten()
        else:
            rewritten = row.rewritten()
            assert (rewritten.step_index, rewritten.rem) == (k, rewrite_superset(rem))
        # §3.1.1 relation to every other reachable state.
        for logged in rows:
            assert row.relation(logged.rem) is compare_for_log(rem, logged.rem)
        # Canonical: the same pair is the same object, even via an equal copy.
        assert program.row(k, rem) is row
        assert program.row(k, pre_from_wire(pre_to_wire(rem))) is row
    assert program.remaining_bytes == tuple(
        sum(step.size_bytes() for step in query.steps[k:]) for k in range(len(drawn))
    )


def test_rows_are_canonical_per_program_and_fresh_per_copy():
    query = compile_disql(
        'select d.url from document d such that "http://a.example/" (L|G)*3 d'
    )
    program = query.program
    assert query.program is program  # built once
    start = program.starts[0]
    assert program.row(0, parse_pre("(L|G)*3")) is start  # equal tree, same row
    assert start.fanout() is start.fanout()
    copy = query.with_qid(QueryId("maya", "user.example", 5001, 9))
    assert copy.program is not program  # the table belongs to the object
    assert copy.program.starts[0] is not start
    # ...but what the rows say is the value, and values compare structurally.
    assert copy.program.starts[0].state == start.state
    assert hash(copy.program.starts[0].state) == hash(start.state)
    assert copy == query.with_qid(copy.qid)  # the table is not part of ==


def test_out_of_range_step_is_rejected():
    program = compile_disql(
        'select d.url from document d such that "http://a.example/" L d'
    ).program
    with pytest.raises(DisqlSemanticsError):
        program.row(1, parse_pre("L"))
    with pytest.raises(DisqlSemanticsError):
        program.row(-1, parse_pre("L"))
