"""The DST oracle: a reference evaluation plus coverage-aware comparison.

The reference is the **data-shipping baseline** run fault-free on the same
web and query — an independent, centralized evaluator that shares the
traversal semantics but none of the distributed machinery (no CHT, no
clone forwarding, no report messages), so an agreement between the two is
evidence about the protocols, not a tautology.  It evaluates node-queries
with the tree interpreter (``compiled_plans=False``), while the servers
under test run compiled plans on the batch executor, so the same agreement
cross-checks the executor against the interpreter on every case.

Comparison rules:

* **Clean runs** (no faults, or a fault-free control run): the WEBDIS
  result set must equal the reference set exactly, and the query must be
  COMPLETE.
* **Faulted runs**: nothing beyond the reference may ever appear
  (*invented* rows are always a violation).  Missing rows are allowed only
  when *attributable*: the reference run records, per processed node,
  which rows it produced and which nodes it forwarded to
  (:class:`~repro.baselines.datashipping.JournalEntry`).  The faulted
  run's write-off points — abandoned dispatches in the
  :class:`~repro.core.supervisor.CoverageReport` plus unreachable-site
  retractions in the trace — are closed under the reference's forward
  edges, and a missing row is attributable iff **every** node that
  produced it in the reference lies inside that lost closure.  A missing
  row with a surviving producer means the protocol lost data it had no
  excuse to lose.

Nodes are keyed by URL string (fragments stripped) rather than by
``(node, state)``: the distributed and centralized traversals can attach
different (rewritten) states to the same node, and coverage is about
*where* processing happened.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.datashipping import DataShippingEngine
from ..core.client import QueryHandle, QueryStatus
from ..core.config import EngineConfig
from .generators import Spec, build_web, query_texts
from .invariants import Violation

__all__ = ["Reference", "reference_run", "check_clean", "check_faulted"]

#: Trace actions marking a node written off by a failed (re-)dispatch or
#: shed by a saturated server (``overload-shed`` — load shedding retracts
#: the node's pending clone, so its subtree is an attributable hole).
_WRITE_OFF_ACTIONS = frozenset(
    {
        "unreachable-start",
        "unreachable-reforward",
        "unreachable-site",
        "overload-shed",
    }
)

RowKey = tuple[str, tuple[str, ...], tuple[object, ...]]


def _norm(node: str) -> str:
    """Node key: the URL without its fragment."""
    return node.split("#", 1)[0]


@dataclass(frozen=True)
class Reference:
    """What the fault-free centralized run computed, with provenance."""

    #: Distinct result rows (label, header, values).
    unique: frozenset[RowKey]
    #: Per-row producers: which processed nodes emitted the row.
    producers: dict[RowKey, frozenset[str]]
    #: Forward edges of the traversal (node -> nodes it forwarded to).
    forwards: dict[str, tuple[str, ...]]


def reference_run(spec: Spec, index: int = 0) -> Reference:
    """Evaluate one of the spec's queries centrally, fault-free, with
    provenance.  ``index`` selects the query (0 = the main query; extras
    follow in submission order) — each query gets its own *solo* reference,
    which is what makes the multi-query comparison an isolation oracle:
    an interleaved run must match what every query computes alone.
    """
    engine = DataShippingEngine(
        build_web(spec), config=EngineConfig(compiled_plans=False), record_journal=True
    )
    result = engine.run_query(query_texts(spec)[index])
    assert result.completion_time is not None, "reference run did not quiesce"
    producers: dict[RowKey, set[str]] = {}
    forwards: dict[str, tuple[str, ...]] = {}
    for entry in engine.journal:
        node = _norm(entry.node)
        for key in entry.rows:
            producers.setdefault(key, set()).add(node)
        existing = forwards.get(node, ())
        forwards[node] = existing + tuple(_norm(t) for t in entry.forwards)
    return Reference(
        unique=frozenset(producers),
        producers={key: frozenset(nodes) for key, nodes in producers.items()},
        forwards=forwards,
    )


def observed_rows(handle: QueryHandle) -> frozenset[RowKey]:
    """The distinct rows a WEBDIS handle collected."""
    return frozenset(
        (label, row.header, row.values) for label, row, __ in handle.results
    )


def check_clean(handle: QueryHandle, reference: Reference) -> list[Violation]:
    """Fault-free equivalence: COMPLETE and exactly the reference set."""
    qid = str(handle.qid)
    violations = []
    if handle.status is not QueryStatus.COMPLETE:
        violations.append(
            Violation(
                "clean-complete", qid,
                f"fault-free run finished {handle.status.value}"
                + (f" ({handle.partial_reason})" if handle.partial_reason else ""),
            )
        )
    observed = observed_rows(handle)
    missing = reference.unique - observed
    invented = observed - reference.unique
    if missing:
        sample = sorted(str(key) for key in missing)[0]
        violations.append(
            Violation(
                "oracle-exact", qid,
                f"clean run missing {len(missing)} reference row(s), e.g. {sample}",
            )
        )
    if invented:
        sample = sorted(str(key) for key in invented)[0]
        violations.append(
            Violation(
                "oracle-exact", qid,
                f"clean run invented {len(invented)} row(s), e.g. {sample}",
            )
        )
    return violations


def _lost_closure(write_offs: set[str], reference: Reference) -> set[str]:
    """Write-off nodes closed under the reference's forward edges."""
    lost = set()
    stack = [node for node in write_offs]
    while stack:
        node = stack.pop()
        if node in lost:
            continue
        lost.add(node)
        stack.extend(reference.forwards.get(node, ()))
    return lost


def write_off_nodes(handle: QueryHandle, tracer, coverage=None) -> set[str]:
    """Nodes the faulted run demonstrably gave up on.

    Abandoned dispatch instances (recovery escalation) plus every node a
    failed dispatch retracted — ``unreachable-start`` (initial clone),
    ``unreachable-reforward`` (recovery re-dispatch) and
    ``unreachable-site`` (server-side forward failure) — plus the nodes a
    saturated server shed (``overload-shed`` retractions / the handle's
    ``shed_nodes``).
    """
    nodes = {_norm(str(inst.node)) for inst in handle.cht.abandoned_instances()}
    nodes.update(_norm(str(node)) for node in getattr(handle, "shed_nodes", ()))
    if coverage is not None:
        nodes.update(_norm(str(dispatch.node)) for dispatch in coverage.abandoned)
        nodes.update(_norm(str(node)) for node in coverage.shed_nodes)
    if tracer is not None and getattr(tracer, "enabled", False):
        for event in tracer.events:
            if event.action in _WRITE_OFF_ACTIONS:
                nodes.add(_norm(event.node))
    return nodes


def check_faulted(
    handle: QueryHandle,
    tracer,
    reference: Reference,
    coverage=None,
) -> list[Violation]:
    """Coverage-consistent subset check for a faulted run (see module doc)."""
    qid = str(handle.qid)
    violations = []
    observed = observed_rows(handle)
    invented = observed - reference.unique
    if invented:
        sample = sorted(str(key) for key in invented)[0]
        violations.append(
            Violation(
                "oracle-invented", qid,
                f"{len(invented)} row(s) beyond the reference, e.g. {sample}",
            )
        )
    missing = reference.unique - observed
    if not missing:
        return violations
    lost = _lost_closure(write_off_nodes(handle, tracer, coverage), reference)
    for key in sorted(missing, key=str):
        producers = reference.producers.get(key, frozenset())
        if producers and producers <= lost:
            continue  # attributable: every producer is in the lost closure
        survivors = sorted(producers - lost)
        violations.append(
            Violation(
                "oracle-partial", qid,
                f"missing row {key[0]}={key[2]} not attributable to any "
                f"write-off: producer(s) {survivors or list(producers)} "
                "were never abandoned or retracted",
            )
        )
    return violations
