"""Execution tracing — the raw material for Figures 1, 5 and 7.

Every significant per-node event (evaluation, forwarding, duplicate drop,
rewrite, dead end, purge) is recorded with its virtual time, node, role and
query state, so benches can print the paper's traversal diagrams as tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .state import QueryState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .processing import NodeOutcome
    from .webquery import QueryClone, WebQuery

__all__ = ["TraceEvent", "Tracer"]

#: Role names as used in the paper.
SERVER_ROUTER = "ServerRouter"
PURE_ROUTER = "PureRouter"
START_NODE = "StartNode"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One traversal event."""

    time: float
    node: str
    site: str
    state: QueryState
    role: str
    action: str
    detail: str = ""

    def __str__(self) -> str:
        extra = f" [{self.detail}]" if self.detail else ""
        return (
            f"t={self.time:8.4f}  {self.role:<12} {self.action:<18} "
            f"{self.node}  state={self.state}{extra}"
        )


class Tracer:
    """Collects :class:`TraceEvent` objects when enabled.

    One method per shape of event the engine emits: :meth:`node` (one
    event at one node), :meth:`outcome` (a visit's outcome), :meth:`nodes`
    (one event per node of a clone) and :meth:`site` (a site or transport
    event, with no node or state).  Every call site checks :attr:`enabled`
    first, so a run with tracing off makes no tracer call at all; a
    disabled tracer that is called anyway still records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[TraceEvent] = []

    def node(
        self, time: float, node: object, site: str, state: QueryState, action: str,
        detail: str = "", role: str = "-",
    ) -> None:
        """One event at ``node``: an admission disposition, a dispatch, a re-forward."""
        if self.enabled:
            self.events.append(TraceEvent(time, str(node), site, state, role, action, detail))

    def outcome(
        self, time: float, node: object, site: str, state: QueryState,
        outcome: "NodeOutcome | None", query: "WebQuery",
    ) -> None:
        """A visit's outcome at ``node``, one event per thing that happened.

        ``missing`` when its document could not be had (``outcome`` None);
        otherwise ``answered`` / ``failed`` per node-query evaluated
        (``routed`` when none ran), then ``dead-end`` or ``forwarded``.
        """
        if outcome is None:
            self.node(time, node, site, state, "missing")
            return
        role = outcome.role
        for step_index, success in outcome.evaluations:
            action = "answered" if success else "failed"
            self.node(time, node, site, state, action, query.step_label(step_index), role)
        if not outcome.evaluations:
            self.node(time, node, site, state, "routed", role=role)
        if outcome.dead_end:
            self.node(time, node, site, state, "dead-end", role=role)
        elif outcome.forwards:
            self.node(
                time, node, site, state, "forwarded", f"{len(outcome.forwards)} link(s)", role
            )

    def nodes(self, time: float, clone: "QueryClone", site: str, action: str) -> None:
        """One ``action`` event per node of ``clone``: purged, shed, unreachable."""
        for node in clone.dest:
            self.node(time, node, site, clone.state, action)

    def site(self, time: float, site: str, action: str, detail: str = "") -> None:
        """An event at ``site`` with no node or state: a retry, a frontier batch."""
        self.node(time, "-", site, "-", action, detail)

    # -- analysis helpers used by tests and benches ---------------------------

    def visits_to(self, node: str) -> list[TraceEvent]:
        """Arrival events (any action) at ``node``, in time order."""
        return [event for event in self.events if event.node == node]

    def nodes_with_role(self, role: str) -> list[str]:
        """Distinct nodes that ever acted in ``role``, in first-seen order."""
        seen: list[str] = []
        for event in self.events:
            if event.role == role and event.node not in seen:
                seen.append(event.node)
        return seen

    def actions(self) -> Counter:
        return Counter(event.action for event in self.events)

    def to_dot(self, title: str = "WEBDIS traversal") -> str:
        """Export the traversal as a Graphviz DOT digraph (Figure-7 style).

        Nodes are the visited URLs (shaded by outcome: answered / failed /
        duplicate / routed); edges connect consecutive distinct nodes in
        trace order, labelled with the destination's query state.  The
        output renders with ``dot -Tsvg``.
        """
        colors = {
            "answered": "palegreen",
            "failed": "lightsalmon",
            "duplicate-dropped": "lightgoldenrod",
            "dead-end": "lightsalmon",
        }
        node_color: dict[str, str] = {}
        node_roles: dict[str, set[str]] = {}
        for event in self.events:
            node_roles.setdefault(event.node, set()).add(event.role)
            if event.action in colors and event.node not in node_color:
                node_color[event.node] = colors[event.action]
            elif event.action == "answered":
                node_color[event.node] = colors["answered"]
        lines = [
            "digraph webdis {",
            f'  label="{title}";',
            "  rankdir=LR;",
            '  node [shape=box, style=filled, fillcolor=white, fontsize=10];',
        ]
        for node, roles in node_roles.items():
            fill = node_color.get(node, "white")
            role = "/".join(sorted(r for r in roles if r != "-")) or "visited"
            lines.append(
                f'  "{node}" [fillcolor={fill}, tooltip="{role}"];'
            )
        previous: str | None = None
        seen_edges: set[tuple[str, str, str]] = set()
        for event in self.events:
            if previous is not None and previous != event.node:
                edge = (previous, event.node, str(event.state))
                if edge not in seen_edges:
                    seen_edges.add(edge)
                    lines.append(
                        f'  "{previous}" -> "{event.node}" [label="{event.state}", fontsize=8];'
                    )
            previous = event.node
        lines.append("}")
        return "\n".join(lines)

    def render(self) -> str:
        """A printable table of the whole trace."""
        lines = [
            f"{'time':>10}  {'role':<12} {'action':<18} {'state':<18} node",
            "-" * 88,
        ]
        for event in self.events:
            lines.append(
                f"{event.time:10.4f}  {event.role:<12} {event.action:<18} "
                f"{str(event.state):<18} {event.node}"
                + (f"  [{event.detail}]" if event.detail else "")
            )
        return "\n".join(lines)
