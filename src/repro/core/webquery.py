"""The Web-Query object and its travelling clones.

Paper Section 4.1: a Web-Query carries a QueryID — user name, user-site
address, result port, locally unique query number — plus the sequence of
node-queries and PREs.  As the query migrates, each hop manufactures
*clones*: copies of the remaining query with an updated PRE, destination
node list, and step position (Section 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import DisqlSemanticsError
from ..pre.ast import Pre
from ..pre.ops import pre_size
from ..relational.query import NodeQuery
from ..storedhash import cache_field, stored_hash
from ..urlutils import Url
from .program import QueryProgram, StateRow
from .state import QueryState

__all__ = ["QueryId", "WebQueryStep", "WebQuery", "QueryClone"]


@dataclass(frozen=True, slots=True)
@stored_hash
class QueryId:
    """Globally unique query identity + the user's return address (§4.1)."""

    user: str
    host: str
    port: int
    number: int
    _hash: int | None = cache_field()

    def __str__(self) -> str:
        return f"{self.user}@{self.host}:{self.port}/{self.number}"

    def size_bytes(self) -> int:
        return len(self.user) + len(self.host) + 8


@dataclass(frozen=True, slots=True)
class WebQueryStep:
    """One ``p_i q_i`` pair: traverse ``pre``, then evaluate ``query``."""

    pre: Pre
    query: NodeQuery

    def size_bytes(self) -> int:
        return 4 * pre_size(self.pre) + len(str(self.query))


@dataclass(frozen=True, slots=True)
class WebQuery:
    """The full web-query ``Q = S p1 q1 p2 q2 ... pn qn``.

    Attributes:
        qid: identity and return address.
        start_urls: the StartNodes ``S``.
        steps: the alternating PRE / node-query sequence.
        select_header: the user-facing select list (qualified names across
            all steps), used to assemble the final result display.
    """

    qid: QueryId
    start_urls: tuple[Url, ...]
    steps: tuple[WebQueryStep, ...]
    select_header: tuple[str, ...] = ()
    #: Display directives applied by the user-site's result collector —
    #: they never travel in clones or affect node-query evaluation.
    display_distinct: bool = False
    #: ``(qualified attribute name, descending)`` sort keys.
    display_order: tuple[tuple[str, bool], ...] = ()
    #: Cap on displayed rows per node-query (None = unlimited).
    display_limit: int | None = None
    #: The user-site's completion watermark when it submitted this query:
    #: the smallest number among its queries not yet terminal, this one
    #: counted.  None when that is this query's own number — nothing older
    #: is live, the sequential case — and then it costs no bytes.
    done_below: int | None = None
    _program: QueryProgram | None = cache_field()
    #: This object's wire text, built by :mod:`repro.wire` on first encode:
    #: it lives and dies with the query, like :attr:`program`.
    _wire: str | None = cache_field()

    def __post_init__(self) -> None:
        if not self.start_urls:
            raise DisqlSemanticsError("web-query has no StartNodes")
        if not self.steps:
            raise DisqlSemanticsError("web-query has no node-queries")

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def sitewide(self) -> bool:
        """Whether a node-query ranges a document alias over its whole site (§7.1)."""
        return any(step.query.sitewide_aliases for step in self.steps)

    @property
    def program(self) -> QueryProgram:
        """This query's protocol table, built on first use.

        Belongs to this object, not to its value: a copy (:meth:`with_qid`,
        a wire decode) builds its own.
        """
        program = self._program
        if program is None:
            program = QueryProgram(self.steps)
            object.__setattr__(self, "_program", program)
        return program

    def step_label(self, index: int) -> str:
        return self.steps[index].query.label

    def initial_state(self) -> QueryState:
        return self.program.starts[0].state

    @property
    def mark(self) -> int:
        """The watermark: every query of this origin numbered below it is terminal."""
        return self.qid.number if self.done_below is None else self.done_below

    def with_qid(self, qid: QueryId, done_below: int | None = None) -> "WebQuery":
        return replace(self, qid=qid, done_below=done_below)


@dataclass(frozen=True, slots=True)
class QueryClone:
    """One travelling copy of a web-query.

    A clone is addressed to a set of destination *nodes* that all live on one
    *site* (optimization 4 of Section 3.2: one clone per remote site, with
    the node list inside).  ``step_index`` is the next node-query to
    evaluate; ``rem`` is the PRE remaining before that evaluation.
    """

    query: WebQuery
    step_index: int
    rem: Pre
    dest: tuple[Url, ...]
    #: Server sites visited before this hop — populated only under the
    #: path-retrace result-return policy (§2.6's rejected alternative),
    #: which is exactly the "cannot forget the past" storage cost the
    #: paper criticizes.  Empty under direct return.
    history: tuple[str, ...] = ()
    #: Dispatch identity, minted by whoever forwards this clone (the
    #: user-site client or a server) and echoed back in the resulting
    #: :class:`~repro.core.messages.CloneReport` so the CHT can retire the
    #: clone's entries idempotently.  Every sent clone has one.
    dispatch_id: str = ""
    #: Recovery epoch of the query when this dispatch chain was created;
    #: children inherit it, re-forwards bump it.
    epoch: int = 0
    _row: StateRow | None = cache_field()

    def __post_init__(self) -> None:
        if not self.dest:
            raise DisqlSemanticsError("clone has no destination nodes")
        sites = {url.host for url in self.dest}
        if len(sites) != 1:
            raise DisqlSemanticsError(f"clone spans multiple sites: {sorted(sites)}")
        if not 0 <= self.step_index < len(self.query.steps):
            raise DisqlSemanticsError(
                f"clone step index {self.step_index} out of range"
            )

    @property
    def site(self) -> str:
        """The destination site (all ``dest`` nodes share it)."""
        return self.dest[0].host

    @classmethod
    def at(
        cls,
        query: WebQuery,
        row: StateRow,
        dest: tuple[Url, ...],
        history: tuple[str, ...] = (),
        dispatch_id: str = "",
        epoch: int = 0,
    ) -> "QueryClone":
        """A clone of ``query`` in the state of ``row`` (a row of its program)."""
        clone = cls(query, row.step_index, row.rem, dest, history, dispatch_id, epoch)
        object.__setattr__(clone, "_row", row)
        return clone

    @property
    def row(self) -> StateRow:
        """The row of the query's protocol table for ``(step_index, rem)``."""
        row = self._row
        if row is None:
            row = self.query.program.row(self.step_index, self.rem)
            object.__setattr__(self, "_row", row)
        return row

    @property
    def state(self) -> QueryState:
        return self.row.state

    @property
    def kind(self) -> str:
        return "query"

    def size_bytes(self) -> int:
        """Serialized size: qid + remaining steps + current PRE + node list.

        Only the *remaining* node-queries travel — the paper notes that a
        clone is the "rest of the query".  A watermark below the query's own
        number travels too (4 bytes).  A
        :class:`~repro.core.messages.CloneBundle` charges the query's share
        (:meth:`query_bytes`) once for all its clones.
        """
        return self.query_bytes() + self.own_bytes()

    def query_bytes(self) -> int:
        """The query's share: its id, the steps from this clone's on, a mark."""
        query = self.query
        mark = 0 if query.done_below is None else 4
        return (
            query.qid.size_bytes() + self.row.program.remaining_bytes[self.step_index] + mark
        )

    def own_bytes(self) -> int:
        """The clone's own share: current PRE, nodes, trail and identity."""
        dests = sum(len(str(url)) for url in self.dest)
        trail = sum(len(site) + 2 for site in self.history)
        return self.row.rem_bytes + dests + trail + len(self.dispatch_id) + 4 + 16
