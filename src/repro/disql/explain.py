"""Explain: render a web-query in the paper's formalism.

Section 2.3 presents translated queries as::

    Q = http://csa.iisc.ernet.in  L  q1  G.(L*1)  q2

    where q1 is
    select d0.url
    from document d0,
    where d0.title contains "lab"
    ...

:func:`explain_webquery` reproduces that presentation for any compiled
query — the tool a user reaches for to check what DISQL lowered to.
"""

from __future__ import annotations

from ..core.webquery import WebQuery
from ..relational.compile import compile_node_query
from ..relational.expr import TRUE
from ..relational.query import NodeQuery

__all__ = ["explain_webquery", "format_node_query"]


def format_node_query(query: NodeQuery) -> str:
    """Multi-line select/from/where rendering of one node-query."""
    lines = ["select " + ", ".join(str(attr) for attr in query.select)]
    table_parts = []
    for table in query.tables:
        rendered = f"{table.relation} {table.alias}"
        if table.alias in query.sitewide_aliases:
            rendered += " such that sitewide"
        table_parts.append(rendered)
    lines.append("from " + ",\n     ".join(table_parts))
    if query.where != TRUE:
        lines.append(f"where {query.where}")
    return "\n".join(lines)


def explain_webquery(
    query: WebQuery, *, narrate: bool = False, plans: bool = False
) -> str:
    """The paper-style formalism: headline plus per-node-query listings.

    ``narrate=True`` adds an English reading of each traversal PRE
    (:func:`repro.pre.describe.describe_pre`).  ``plans=True`` appends to
    each node-query what a server's executor does with it
    (:meth:`repro.relational.compile.CompiledPlan.describe`): per table,
    which conjuncts select below the join, which one a hash index serves,
    and which are left to run per binding.
    """
    headline_parts = []
    start = " | ".join(str(url) for url in query.start_urls)
    headline_parts.append(start)
    for step in query.steps:
        headline_parts.append(str(step.pre))
        headline_parts.append(step.query.label)
    lines = ["Q = " + "  ".join(headline_parts), ""]
    if narrate:
        from ..pre.describe import describe_pre

        for step in query.steps:
            lines.append(
                f"to reach {step.query.label}: traverse {describe_pre(step.pre)}"
            )
        lines.append("")
    for step in query.steps:
        lines.append(f"where {step.query.label} is")
        lines.append(format_node_query(step.query))
        if plans:
            lines.append(f"plan of {step.query.label}:")
            lines.append(compile_node_query(step.query).describe())
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
