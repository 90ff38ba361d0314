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
from ..urlutils import Url
from .state import QueryState

__all__ = ["QueryId", "WebQueryStep", "WebQuery", "QueryClone"]


@dataclass(frozen=True, slots=True)
class QueryId:
    """Globally unique query identity + the user's return address (§4.1)."""

    user: str
    host: str
    port: int
    number: int

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

    def step_label(self, index: int) -> str:
        return self.steps[index].query.label

    def initial_state(self) -> QueryState:
        return QueryState(len(self.steps), self.steps[0].pre)

    def with_qid(self, qid: QueryId) -> "WebQuery":
        return replace(self, qid=qid)


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
    #: :class:`~repro.core.messages.NodeReport` so the CHT can retire the
    #: clone's entries idempotently.  Empty only until the dispatcher
    #: stamps the clone (:meth:`with_identity`); every sent clone has one.
    dispatch_id: str = ""
    #: Recovery epoch of the query when this dispatch chain was created;
    #: children inherit it, re-forwards bump it.
    epoch: int = 0

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

    @property
    def state(self) -> QueryState:
        return QueryState(len(self.query.steps) - self.step_index, self.rem)

    @property
    def kind(self) -> str:
        return "query"

    def with_identity(self, dispatch_id: str, epoch: int) -> "QueryClone":
        """A copy stamped with a dispatch identity (see ``dispatch_id``)."""
        return replace(self, dispatch_id=dispatch_id, epoch=epoch)

    def size_bytes(self) -> int:
        """Serialized size: qid + remaining steps + current PRE + node list.

        Only the *remaining* node-queries travel — the paper notes that a
        clone is the "rest of the query".
        """
        remaining = sum(step.size_bytes() for step in self.query.steps[self.step_index :])
        dests = sum(len(str(url)) for url in self.dest)
        trail = sum(len(site) + 2 for site in self.history)
        identity = len(self.dispatch_id) + 4
        return (
            self.query.qid.size_bytes() + remaining + 4 * pre_size(self.rem)
            + dests + trail + identity + 16
        )
