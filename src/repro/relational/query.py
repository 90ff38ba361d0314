"""Node-query representation and evaluation.

A *node-query* is the unit of local work in WEBDIS: an SQL-style
select/from/where evaluated entirely against one node's virtual relations
(paper Section 2.3 — each node-query "can be completely processed locally").
Evaluation is a nested-loop scan over the cross product of the declared
virtual relations, with **predicate pushdown**: each conjunct of the
``where`` clause is applied at the loop depth where its last referenced
alias is bound, pruning the cross product as early as possible.  (The
unoptimized evaluator is kept as :func:`evaluate_node_query_naive` — the
test oracle the pushdown is property-checked against.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..errors import DisqlSemanticsError
from ..storedhash import cache_field, stored_hash
from .expr import TRUE, Attr, Expr, attrs_referenced, conjuncts, evaluate
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..model.database import NodeDatabase

__all__ = ["TableDecl", "NodeQuery", "ResultRow", "evaluate_node_query"]

_VIRTUAL_RELATIONS = ("document", "anchor", "relinfon")


@dataclass(frozen=True, slots=True)
class TableDecl:
    """One ``from`` entry: virtual relation ``relation`` bound to ``alias``."""

    relation: str
    alias: str

    def __post_init__(self) -> None:
        if self.relation not in _VIRTUAL_RELATIONS:
            raise DisqlSemanticsError(
                f"unknown virtual relation {self.relation!r}; "
                f"expected one of {', '.join(_VIRTUAL_RELATIONS)}"
            )
        if not self.alias.isidentifier():
            raise DisqlSemanticsError(f"invalid table alias {self.alias!r}")


@dataclass(frozen=True, slots=True)
@stored_hash
class NodeQuery:
    """A locally evaluable select/from/where triple.

    Attributes:
        select: projected attributes, in output order.
        tables: virtual relations in scope, with aliases.
        where: the predicate; :data:`~repro.relational.expr.TRUE` when absent.
        label: human-readable name (``q1``, ``q2`` ...) used in traces.
        sitewide_aliases: document aliases that range over *every* document
            hosted at the current node's site rather than just the current
            node — the multi-document node-queries of paper §7.1 (footnote
            2).  Still strictly site-local: no inter-site communication.
    """

    select: tuple[Attr, ...]
    tables: tuple[TableDecl, ...]
    where: Expr = TRUE
    label: str = "q"
    sitewide_aliases: tuple[str, ...] = ()
    _hash: int | None = cache_field()
    #: The structural key, filled on first use by
    #: :func:`~repro.relational.compile.structural_key`.
    _structure: str | None = cache_field()
    #: ``(shape key, constants, where)``, filled on first use by
    #: :func:`~repro.relational.compile.compile_node_query`.
    _shape: tuple | None = cache_field()

    def __post_init__(self) -> None:
        if not self.select:
            raise DisqlSemanticsError(f"node-query {self.label} has an empty select list")
        if not self.tables:
            raise DisqlSemanticsError(f"node-query {self.label} declares no tables")
        aliases = [decl.alias for decl in self.tables]
        if len(set(aliases)) != len(aliases):
            raise DisqlSemanticsError(f"node-query {self.label} has duplicate aliases: {aliases}")
        known = set(aliases)
        for attr in tuple(self.select) + tuple(attrs_referenced(self.where)):
            if attr.alias not in known:
                raise DisqlSemanticsError(
                    f"node-query {self.label} references undeclared alias {attr.alias!r}"
                )
        for alias in self.sitewide_aliases:
            decl = next((d for d in self.tables if d.alias == alias), None)
            if decl is None:
                raise DisqlSemanticsError(
                    f"node-query {self.label}: sitewide alias {alias!r} is undeclared"
                )
            if decl.relation != "document":
                raise DisqlSemanticsError(
                    f"node-query {self.label}: only document aliases can be "
                    f"sitewide, not {decl.relation!r}"
                )

    @property
    def header(self) -> tuple[str, ...]:
        """Qualified column names of result rows, in select order."""
        return tuple(str(attr) for attr in self.select)

    def cost_weight(self) -> int:
        """A unitless evaluation-cost weight used by the simulator's CPU model."""
        return len(self.tables) * (1 + len(self.select))

    def __str__(self) -> str:
        sel = ", ".join(str(attr) for attr in self.select)
        frm = ", ".join(f"{t.relation} {t.alias}" for t in self.tables)
        if self.where == TRUE:
            return f"select {sel} from {frm}"
        return f"select {sel} from {frm} where {self.where}"


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One projected result row with its qualified-name header."""

    header: tuple[str, ...]
    values: tuple[object, ...]
    _value_bytes: int | None = cache_field()

    def value_bytes(self) -> int:
        """Rendered size of the values: the row's share of ``size_bytes()``.

        Memoized rows are re-sent by every query that visits their node, so
        the rendering is done once per row.
        """
        size = self._value_bytes
        if size is None:
            size = sum(len(str(value)) for value in self.values)
            object.__setattr__(self, "_value_bytes", size)
        return size

    def as_mapping(self) -> dict[str, object]:
        return dict(zip(self.header, self.values))

    def __str__(self) -> str:
        return ", ".join(f"{name}={value!r}" for name, value in zip(self.header, self.values))


def evaluate_node_query(
    query: NodeQuery,
    database: "NodeDatabase",
    site_documents: Table | None = None,
) -> list[ResultRow]:
    """Evaluate ``query`` against one node's virtual relations.

    ``site_documents`` supplies the DOCUMENT rows of every page at the
    node's site; it is required exactly when the query has
    ``sitewide_aliases`` (multi-document node-queries, §7.1).

    Returns the projected rows; an empty list means the node-query failed
    (the node becomes a dead end, paper Section 2.5).
    """
    scans = _scans_for(query, database, site_documents)
    filters = _plan_filters(query.where, [alias for alias, __ in scans])
    results: list[ResultRow] = []
    _nested_loop(query, scans, filters, 0, {}, results)
    return results


def evaluate_node_query_naive(
    query: NodeQuery,
    database: "NodeDatabase",
    site_documents: Table | None = None,
) -> list[ResultRow]:
    """Reference evaluator: full cross product, predicate applied at the leaf.

    Semantically identical to :func:`evaluate_node_query` (property-tested);
    kept as the oracle for the pushdown optimization.
    """
    scans = _scans_for(query, database, site_documents)
    leaf_only: list[list[Expr]] = [[] for __ in scans] + [[query.where]]
    results: list[ResultRow] = []
    _nested_loop(query, scans, leaf_only, 0, {}, results)
    return results


def _scans_for(
    query: NodeQuery, database: "NodeDatabase", site_documents: Table | None
) -> list[tuple[str, Table]]:
    if query.sitewide_aliases and site_documents is None:
        raise DisqlSemanticsError(
            f"node-query {query.label} needs site-wide documents but none were built"
        )
    sitewide = set(query.sitewide_aliases)
    scans: list[tuple[str, Table]] = []
    for decl in query.tables:
        if decl.alias in sitewide:
            assert site_documents is not None
            scans.append((decl.alias, site_documents))
        else:
            scans.append((decl.alias, database.relation(decl.relation)))
    return scans


def _plan_filters(where: Expr, alias_order: Sequence[str]) -> list[list[Expr]]:
    """Assign each conjunct of ``where`` to the earliest depth where it is evaluable.

    ``plan[d]`` holds conjuncts applicable right after binding alias ``d-1``
    (``plan[0]`` holds constant predicates).  Returned list has
    ``len(alias_order) + 1`` slots; every conjunct lands in exactly one.
    """
    positions = {alias: index for index, alias in enumerate(alias_order)}
    plan: list[list[Expr]] = [[] for __ in range(len(alias_order) + 1)]
    for conjunct in conjuncts(where):
        referenced = attrs_referenced(conjunct)
        depth = max((positions[attr.alias] + 1 for attr in referenced), default=0)
        plan[depth].append(conjunct)
    return plan


def _nested_loop(
    query: NodeQuery,
    scans: Sequence[tuple[str, Table]],
    filters: Sequence[Sequence[Expr]],
    depth: int,
    bindings: dict[str, Mapping[str, object]],
    results: list[ResultRow],
) -> None:
    for predicate in filters[depth]:
        if not evaluate(predicate, bindings):
            return
    if depth == len(scans):
        values = tuple(bindings[attr.alias][attr.name] for attr in query.select)
        results.append(ResultRow(query.header, values))
        return
    alias, table = scans[depth]
    attributes = table.schema.attributes
    for row in table.rows():
        bindings[alias] = dict(zip(attributes, row))
        _nested_loop(query, scans, filters, depth + 1, bindings, results)
    bindings.pop(alias, None)

