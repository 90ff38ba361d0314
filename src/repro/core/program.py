"""The per-query protocol table: PRE states compiled once, walked by identity.

The paper's protocol keys on one small value — "the state of a query … is
completely captured by ``num_q`` … and ``rem(p_i)``" (§2.7.1) — and a run
revisits the same handful of states at every node of the traversal.  A
:class:`QueryProgram` is built once per :class:`~repro.core.webquery.WebQuery`
and interns each ``(step_index, rem)`` it meets as one :class:`StateRow`
carrying everything the per-hop path asks about that state: the canonical
:class:`~repro.core.state.QueryState` that reports, CHT entries and log-table
entries reuse, whether the node-query runs here, the link types to follow
and the row each leads to, the next step's start row, the state's share of a
clone's ``size_bytes()``, the ``A*m·B`` rewritten row and the §3.1.1 relation
to a logged PRE.

Every cell is filled *by calling* :mod:`repro.pre.ops` — ``nullable``,
``first_symbols``, ``advance``, ``pre_size``, ``rewrite_superset``,
``compare_for_log`` — so the tree-walking derivation stays the only
definition of the semantics; the table memoises it per query
(``tests/test_query_program.py`` holds table ≡ tree walk as a property).

Identity vs equality.  Within one program ``(step_index, rem)`` → row is
canonical, so a row's identity (default object hash, C speed) stands in for
the pair wherever the per-hop path used to hash the tree: the worklist and
``seen`` set of :func:`~repro.core.processing.process_node`, the forward
sets, clone grouping.  Identity is an accelerator, never the definition:
everything that crosses a process or a query — ``Url``, ``QueryId``,
``QueryState``, the PRE nodes — still compares structurally, so a state that
arrives from another ``WebQuery`` instance of the same qid (a re-forward, a
wire decode, the user-site's CHT) meets the same table entries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import DisqlSemanticsError
from ..model.relations import LinkType
from ..pre.ast import Never, Pre
from ..pre.ops import (
    LogComparison,
    advance,
    compare_for_log,
    first_symbols,
    nullable,
    pre_size,
    rewrite_superset,
)
from .state import QueryState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .webquery import WebQueryStep

__all__ = ["QueryProgram", "StateRow"]


class StateRow:
    """One protocol state ``(step_index, rem)`` with the hop path's answers.

    Compared and hashed by identity; obtain rows from
    :meth:`QueryProgram.row`, never by construction.
    """

    __slots__ = (
        "program", "step_index", "rem", "state", "nullable", "rem_bytes",
        "next_start", "_fanout", "_rewritten", "_relations",
    )

    def __init__(self, program: "QueryProgram", step_index: int, rem: Pre) -> None:
        self.program = program
        #: The next node-query to evaluate, and the PRE remaining before it.
        self.step_index = step_index
        self.rem = rem
        #: The one ``QueryState`` object for this row.
        self.state = QueryState(len(program.steps) - step_index, rem)
        object.__setattr__(self.state, "row", self)
        #: The node-query is evaluated at a node reached in this state.
        self.nullable = nullable(rem)
        #: ``rem``'s share of a clone's serialized size.
        self.rem_bytes = 4 * pre_size(rem)
        #: Where a successful evaluation continues: the next step's start
        #: row, or None after the last node-query.
        following = step_index + 1
        self.next_start: StateRow | None = (
            program.starts[following] if following < len(program.steps) else None
        )
        self._fanout: tuple[tuple[LinkType, StateRow], ...] | None = None
        self._rewritten: StateRow | None = None
        self._relations: dict[Pre, LogComparison] = {}

    def fanout(self) -> tuple[tuple["LinkType", "StateRow"], ...]:
        """``(link type, next row)`` per type ``rem`` can follow, by ``LinkType.value``.

        Dead directions (a ``Never`` derivative) are left out.
        """
        pairs = self._fanout
        if pairs is None:
            row_for = self.program.row
            step_index, rem = self.step_index, self.rem
            found = []
            for ltype in sorted(first_symbols(rem), key=lambda lt: lt.value):
                next_rem = advance(rem, ltype)
                if not isinstance(next_rem, Never):
                    found.append((ltype, row_for(step_index, next_rem)))
            pairs = self._fanout = tuple(found)
        return pairs

    def rewritten(self) -> "StateRow":
        """The row of ``A·A*(m-1)·B`` for this row's ``A*m·B`` (§3.1.1).

        Raises ``ValueError`` for any other shape, as ``rewrite_superset`` does.
        """
        row = self._rewritten
        if row is None:
            row = self._rewritten = self.program.row(
                self.step_index, rewrite_superset(self.rem)
            )
        return row

    def relation(self, logged: Pre) -> LogComparison:
        """How a clone arriving in this state relates to the logged ``rem``."""
        relation = self._relations.get(logged)
        if relation is None:
            relation = self._relations[logged] = compare_for_log(self.rem, logged)
        return relation

    def __repr__(self) -> str:
        return f"<StateRow step {self.step_index} rem {self.rem}>"


class QueryProgram:
    """The state table of one web-query (see the module docstring)."""

    __slots__ = ("steps", "remaining_bytes", "starts", "_rows")

    def __init__(self, steps: "tuple[WebQueryStep, ...]") -> None:
        self.steps = steps
        sizes = [step.size_bytes() for step in steps]
        #: ``remaining_bytes[k]``: serialized size of steps ``k`` onwards —
        #: the part of the query a clone at step ``k`` still carries.
        self.remaining_bytes = tuple(sum(sizes[k:]) for k in range(len(steps)))
        self._rows: dict[tuple[int, Pre], StateRow] = {}
        #: ``starts[k]``: the row a clone enters step ``k`` in.  Filled last
        #: step first, because a row links to the start row after its own.
        self.starts: list[StateRow] = [None] * len(steps)  # type: ignore[list-item]
        for k in reversed(range(len(steps))):
            self.starts[k] = self.row(k, steps[k].pre)

    def row(self, step_index: int, rem: Pre) -> StateRow:
        """The row for ``(step_index, rem)``: same pair, same object."""
        key = (step_index, rem)
        row = self._rows.get(key)
        if row is None:
            if not 0 <= step_index < len(self.steps):
                raise DisqlSemanticsError(f"step index {step_index} out of range")
            row = self._rows[key] = StateRow(self, step_index, rem)
        return row

    def __len__(self) -> int:
        return len(self._rows)
