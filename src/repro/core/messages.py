"""Messages flowing back to the user-site.

Optimization 3 of Section 3.2: node-query results and the new
``(NextNode, QueryState)`` information for the CHT are *shipped together* in
one message, batched across all the nodes a clone covered at a site.  Each
:class:`NodeReport` inside the message is the per-node unit: it names the
processed node and received state (the CHT entry to mark deleted), lists the
CHT entries for the clones about to be forwarded, and carries that node's
result rows.

Frontier batching widens the batch: one :class:`ResultMessage` then covers
*every* clone a site-local frontier processed, in BFS order.  That order is
load-bearing for the CHT — a child's report (retiring its entry) always
appears *after* the parent report whose ``new_entries`` announced it, so the
user-site processes announce-before-retire within the one message exactly as
it would across separate per-hop messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import DisqlSemanticsError
from ..relational.query import ResultRow
from ..storedhash import cache_field, stored_hash
from ..urlutils import Url
from .state import QueryState
from .webquery import QueryClone, QueryId

__all__ = ["Disposition", "ChtEntry", "NodeReport", "ResultMessage", "CloneBundle"]


class Disposition(enum.Enum):
    """How the server handled one destination node."""

    PROCESSED = "processed"  # node-query stage processed normally
    DATA_ONLY = "data-only"  # result rows only; carries no CHT bookkeeping
    DUPLICATE = "duplicate"  # dropped by the node-query log table
    REWRITTEN = "rewritten"  # log table superset: query rewritten, processed
    MISSING = "missing"  # node does not exist at this site (floating link)
    UNREACHABLE = "unreachable"  # forward of this entry's clone failed
    PURGED = "purged"  # query purged at the server (termination)
    OVERLOADED = "overloaded"  # clone shed by a saturated server (load shedding)


@dataclass(frozen=True, slots=True)
@stored_hash
class ChtEntry:
    """One ``(node URL, query state)`` pair — the CHT's key."""

    node: Url
    state: QueryState
    _hash: int | None = cache_field()

    def size_bytes(self) -> int:
        return len(str(self.node)) + self.state.size_bytes()

    def __str__(self) -> str:
        return f"{self.node} {self.state}"


@dataclass(frozen=True, slots=True)
class NodeReport:
    """Everything the user-site learns about one processed node.

    ``entry`` is the CHT entry this report retires (the paper's "top-most
    entry in the list").  ``new_entries`` are the entries for the clones the
    server is about to forward — sent *before* the forwarding happens so the
    CHT always has complete knowledge (Section 2.7.1).  ``results`` pairs
    each row with the node-query label that produced it.

    Dispatch identity (self-healing extension): ``dispatch_id`` echoes the
    identity of the clone dispatch this report resolves, and ``epoch`` the
    recovery epoch that dispatch was issued under.  ``child_ids`` runs
    parallel to ``new_entries`` — ``child_ids[i]`` is the dispatch identity
    the clone carrying ``new_entries[i]`` will travel under, minted by the
    reporting server *before* the forward.  The user-site's CHT keys its
    accounting on these identities so a late or duplicated report is
    absorbed idempotently instead of unbalancing the table.  The user-site
    rejects a bookkeeping report with no ``dispatch_id``, or with
    ``child_ids`` not parallel to ``new_entries`` (``ProtocolError``).
    """

    entry: ChtEntry
    disposition: Disposition
    new_entries: tuple[ChtEntry, ...] = ()
    results: tuple[tuple[str, ResultRow], ...] = ()
    dispatch_id: str = ""
    epoch: int = 0
    child_ids: tuple[str, ...] = ()

    def size_bytes(self) -> int:
        size = self.entry.size_bytes() + 1
        size += sum(entry.size_bytes() for entry in self.new_entries)
        for label, row in self.results:
            size += len(label) + row.value_bytes()
        size += len(self.dispatch_id) + 4 + sum(len(cid) for cid in self.child_ids)
        return size


@dataclass(frozen=True, slots=True)
class ResultMessage:
    """A batch of node reports sent directly to the user-site (§2.6, §3.2).

    ``kind`` is ``"result"`` for the paper's combined message; the
    results/CHT-separation ablation labels the CHT-only half ``"cht"``.
    """

    qid: QueryId
    reports: tuple[NodeReport, ...]
    kind: str = "result"

    def size_bytes(self) -> int:
        return self.qid.size_bytes() + sum(report.size_bytes() for report in self.reports) + 8

    def result_count(self) -> int:
        return sum(len(report.results) for report in self.reports)


@dataclass(frozen=True, slots=True)
class CloneBundle:
    """Several clones travelling to one destination site in one message.

    Coalesced dispatch (frontier batching, EXP-P2): a frontier can seed
    clones in *different* states for the same remote site; instead of one
    network message per ``(site, state)`` group, the server ships them all
    under a single envelope.  The receiving server unpacks the bundle into
    its queue — each inner clone keeps its own dispatch identity, so CHT
    accounting is exactly as if the clones had travelled separately.
    """

    clones: tuple[QueryClone, ...]

    def __post_init__(self) -> None:
        if not self.clones:
            raise DisqlSemanticsError("clone bundle is empty")
        sites = {clone.site for clone in self.clones}
        if len(sites) != 1:
            raise DisqlSemanticsError(f"bundle spans multiple sites: {sorted(sites)}")

    @property
    def site(self) -> str:
        return self.clones[0].site

    @property
    def kind(self) -> str:
        return "query-batch"

    def size_bytes(self) -> int:
        return sum(clone.size_bytes() for clone in self.clones) + 8


@dataclass(frozen=True, slots=True)
class RelayMessage:
    """A result message retracing the query's path (§2.6 alternative).

    ``remaining`` lists the server sites still to traverse backwards; the
    last hop delivers ``inner`` to the user-site's result port.  Only used
    when ``EngineConfig.direct_result_return`` is False.
    """

    remaining: tuple[str, ...]
    inner: ResultMessage

    @property
    def kind(self) -> str:
        return "relay"

    def size_bytes(self) -> int:
        return self.inner.size_bytes() + sum(len(site) + 2 for site in self.remaining) + 8
