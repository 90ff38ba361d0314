"""Compiled node-query plans — plan once, execute many.

:func:`~repro.relational.query.evaluate_node_query` re-does the same work
on every call: it re-plans the pushdown filter placement, tree-walks the
``Expr`` AST per row, and binds each row into a fresh alias→attribute dict.
That is fine for a one-shot evaluation, but a WEBDIS server evaluates the
*same* node-query against hundreds of per-node databases as clones arrive
(paper §2.4, §4.4) — the query is fixed, only the data varies.

:func:`compile_node_query` lowers a :class:`NodeQuery` into a
:class:`CompiledPlan` ahead of time:

* pushdown placement (:func:`~repro.relational.query._plan_filters`) is
  resolved once at compile time;
* every WHERE conjunct becomes a Python closure over *positional row
  tuples* — column indices are resolved against the static virtual-relation
  schemas at compile time, so per-row evaluation is ``env[depth][col]``
  indexing instead of dict construction plus recursive AST dispatch;
* those closures and the projection feed the batch pipeline of
  :mod:`repro.relational.columnar`, the one compiled executor.

There are two evaluators, not three: the batch pipeline, and the tree
interpreter — which is both the executable specification and what a plan
replays through when a batch run raises.  A clean batch run is
row-identical to the interpreter by construction; any other run *is* the
interpreter, so rows, order and lazily-raised errors (class and message)
have one definition.  Compilation is database-independent: the
virtual-relation schemas are static, so one plan serves every node
database.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Sequence

from ..errors import DisqlSemanticsError, EvaluationError, SchemaError
from ..model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA
from .columnar import LevelPlan, build_columnar_runner
from .expr import (
    _COMPARATORS,
    And,
    Attr,
    Compare,
    Contains,
    Expr,
    Literal,
    Not,
    Or,
    _coerce_pair,
)
from .query import NodeQuery, ResultRow, _plan_filters, evaluate_node_query
from .schema import Schema
from .table import Table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..model.database import NodeDatabase

__all__ = ["CompiledPlan", "compile_node_query", "structural_hash", "structural_key"]

_SCHEMAS = {
    "document": DOCUMENT_SCHEMA,
    "anchor": ANCHOR_SCHEMA,
    "relinfon": RELINFON_SCHEMA,
}

#: A compiled expression: evaluates against the positional environment
#: (``env[depth]`` is the row tuple currently bound at loop depth).
_Compiled = Callable[[list], object]


class CompiledPlan:
    """One node-query, lowered and ready to execute against any database.

    :meth:`execute_columnar` — the batch pipeline — is the compiled
    executor.  :meth:`execute` is the reference entry: the tree
    interpreter on this plan's query, which is also what the pipeline
    replays through whenever a batch run raises.
    """

    __slots__ = (
        "query", "header", "cost_weight", "_scan_specs", "_columnar", "_gates", "_levels",
    )

    def __init__(
        self,
        query: NodeQuery,
        scan_specs: tuple[tuple[str, bool, Schema], ...],
        columnar: Callable[[list, list, list, list], None],
        gates: tuple[Expr, ...],
        levels: tuple[LevelPlan, ...],
    ) -> None:
        self.query = query
        self.header = query.header
        #: Precomputed evaluation-cost weight (the simulator's CPU model).
        self.cost_weight = query.cost_weight()
        self._scan_specs = scan_specs
        self._columnar = columnar
        self._gates = gates
        self._levels = levels

    def describe(self) -> str:
        """What the batch pipeline does with each conjunct, level by level.

        One block per table in join order — the table, then whichever of
        *selection* (evaluated over the whole table, once per execution),
        *probe* (the equality served by a hash index, per outer binding)
        and *residual* (per outer binding, over the survivors) the level
        has, each in evaluation order.  Constant conjuncts gate the whole
        run first.  See :mod:`repro.relational.columnar` for the rule that
        decides which conjunct goes where.
        """
        lines = []
        if self._gates:
            lines.append("gate: " + " and ".join(str(gate) for gate in self._gates))
        for decl, level in zip(self.query.tables, self._levels):
            lines.append(f"bind {decl.relation} {decl.alias}")
            for label, group in (
                ("selection", level.selection),
                ("probe", (level.probe,) if level.probe is not None else ()),
                ("residual", level.residual),
            ):
                lines.extend(f"  {label}: {conjunct}" for conjunct in group)
        return "\n".join(lines)

    def _bind_tables(
        self, database: "NodeDatabase", site_documents: Table | None
    ) -> list[Table]:
        """The table scanned at each plan level, checked against the
        compiled schemas."""
        tables: list[Table] = []
        for relation, sitewide, schema in self._scan_specs:
            if sitewide:
                if site_documents is None:
                    raise DisqlSemanticsError(
                        f"node-query {self.query.label} needs site-wide documents "
                        "but none were built"
                    )
                table = site_documents
            else:
                table = database.relation(relation)
            if table.schema.attributes != schema.attributes:
                raise SchemaError(
                    f"table for {relation!r} does not match the compiled schema "
                    f"{schema.attributes!r}"
                )
            tables.append(table)
        return tables

    def execute(
        self,
        database: "NodeDatabase",
        site_documents: Table | None = None,
    ) -> list[ResultRow]:
        """Evaluate through the tree interpreter: the reference entry.

        Also what :meth:`execute_columnar` replays through.
        """
        return evaluate_node_query(self.query, database, site_documents)

    def execute_columnar(
        self,
        database: "NodeDatabase",
        site_documents: Table | None = None,
    ) -> list[ResultRow]:
        """Evaluate through the batch (columnar) executor.

        Same rows, same order, same lazily-raised errors as
        :meth:`execute` — see :mod:`repro.relational.columnar` for why a
        clean batch run is row-identical.  Batch evaluation reorders work,
        so it can raise where the interpreter would not (or elsewhere);
        evaluation is pure, so on *any* batch exception the partial rows
        are dropped and the interpreter's outcome — its rows, or its
        exception — is returned instead, counted in
        ``TrafficStats.plan_replays``.
        """
        table_objs = self._bind_tables(database, site_documents)
        tables = [t.row_list() for t in table_objs]
        results: list[ResultRow] = []
        try:
            self._columnar([None] * len(tables), tables, table_objs, results)
        except Exception:
            stats = table_objs[0].stats
            if stats is not None:
                stats.plan_replays += 1
            return self.execute(database, site_documents)
        return results


def _structure(query: NodeQuery) -> tuple[str, str]:
    """``(structural key, digest)`` of ``query``, computed once per object.

    Kept on the node-query itself (outside its value): the plan cache and
    the memo ask on every node visit, and a cache keyed on the query would
    have to hash the whole tree to answer.
    """
    structure = query._structure
    if structure is None:
        key = repr((query.select, query.tables, query.where, query.sitewide_aliases))
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()
        structure = (key, digest)
        object.__setattr__(query, "_structure", structure)
    return structure


def structural_key(query: NodeQuery) -> str:
    """The qid-independent identity of a node-query's *structure*.

    Two node-queries with equal keys compute the same function of a node
    database — same select list, same table declarations, same predicate,
    same sitewide aliases — so compiled plans and memoized results are
    interchangeable between them even when they belong to different
    web-queries.  The ``label`` is deliberately excluded: it names the step
    for traces and result grouping but never affects evaluation.  Built
    from the dataclass reprs (complete by construction) rather than the
    prettified ``str(query)``, so no two distinct structures can collide
    on rendering.
    """
    return _structure(query)[0]


def structural_hash(query: NodeQuery) -> str:
    """Short digest of :func:`structural_key` — the cache key.

    64 bits is plenty for the handful of live node-queries a server sees,
    but consumers must still verify the full key on a hit (see
    :class:`~repro.core.plancache.PlanCache`): a digest can collide, and a
    collision served silently would mean wrong rows.
    """
    return _structure(query)[1]


def compile_node_query(query: NodeQuery) -> CompiledPlan:
    """Lower ``query`` into a :class:`CompiledPlan` (database-independent)."""
    alias_order = [decl.alias for decl in query.tables]
    positions = {alias: index for index, alias in enumerate(alias_order)}
    sitewide = set(query.sitewide_aliases)
    scan_specs = tuple(
        (
            decl.relation,
            decl.alias in sitewide,
            DOCUMENT_SCHEMA if decl.alias in sitewide else _SCHEMAS[decl.relation],
        )
        for decl in query.tables
    )
    schemas = [spec[2] for spec in scan_specs]
    filter_plan = tuple(tuple(level) for level in _plan_filters(query, alias_order))
    filters = [
        tuple(_compile_expr(conjunct, positions, schemas) for conjunct in level)
        for level in filter_plan
    ]
    columnar, levels = build_columnar_runner(
        query.select,
        filter_plan,
        filters,
        positions,
        schemas,
        query.header,
        compile_expr=lambda expr: _compile_expr(expr, positions, schemas),
    )
    return CompiledPlan(query, scan_specs, columnar, filter_plan[0], levels)


# -- expression lowering -------------------------------------------------------


def _compile_attr(
    attr: Attr, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    depth = positions[attr.alias]
    schema = schemas[depth]
    if attr.name not in schema:
        # Mirror the interpreter's *lazy* failure: predicate evaluation
        # raises EvaluationError only if this attribute is actually reached.
        def missing_attr(env, _alias=attr.alias, _name=attr.name):
            raise EvaluationError(f"table {_alias!r} has no attribute {_name!r}")

        return missing_attr
    column = schema.position(attr.name)

    def fetch(env, _d=depth, _c=column):
        return env[_d][_c]

    return fetch


def _compile_expr(
    expr: Expr, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    if isinstance(expr, Literal):
        value = expr.value

        def constant(env, _v=value):
            return _v

        return constant
    if isinstance(expr, Attr):
        return _compile_attr(expr, positions, schemas)
    if isinstance(expr, Compare):
        return _compile_compare(expr, positions, schemas)
    if isinstance(expr, Contains):
        return _compile_contains(expr, positions, schemas)
    if isinstance(expr, And):
        left = _compile_expr(expr.left, positions, schemas)
        right = _compile_expr(expr.right, positions, schemas)

        def conjunction(env, _l=left, _r=right):
            return bool(_l(env)) and bool(_r(env))

        return conjunction
    if isinstance(expr, Or):
        left = _compile_expr(expr.left, positions, schemas)
        right = _compile_expr(expr.right, positions, schemas)

        def disjunction(env, _l=left, _r=right):
            return bool(_l(env)) or bool(_r(env))

        return disjunction
    if isinstance(expr, Not):
        operand = _compile_expr(expr.operand, positions, schemas)

        def negation(env, _o=operand):
            return not _o(env)

        return negation
    raise EvaluationError(f"unknown expression node {expr!r}")


def _compile_compare(
    expr: Compare, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    left = _compile_expr(expr.left, positions, schemas)
    right = _compile_expr(expr.right, positions, schemas)
    comparator = _COMPARATORS[expr.op]
    op = expr.op

    def compare(env, _l=left, _r=right, _op=op, _cmp=comparator):
        lv, rv = _coerce_pair(_op, _l(env), _r(env))
        try:
            return _cmp(lv, rv)
        except TypeError:
            raise EvaluationError(
                f"cannot compare {type(lv).__name__} {_op} {type(rv).__name__}"
            ) from None

    return compare


def _compile_contains(
    expr: Contains, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    haystack = _compile_expr(expr.haystack, positions, schemas)
    needle = _compile_expr(expr.needle, positions, schemas)
    max_edits = expr.max_edits

    if max_edits:
        from .fuzzy import fuzzy_contains

        def fuzzy(env, _h=haystack, _n=needle, _k=max_edits):
            hv = _h(env)
            nv = _n(env)
            if not isinstance(hv, str) or not isinstance(nv, str):
                raise EvaluationError("contains requires string operands")
            return fuzzy_contains(hv, nv, _k)

        return fuzzy

    # Constant needle (the overwhelmingly common shape): lowercase it once.
    if isinstance(expr.needle, Literal) and isinstance(expr.needle.value, str):
        lowered = expr.needle.value.lower()

        def contains_const(env, _h=haystack, _n=lowered):
            hv = _h(env)
            if not isinstance(hv, str):
                raise EvaluationError("contains requires string operands")
            return _n in hv.lower()

        return contains_const

    def contains(env, _h=haystack, _n=needle):
        hv = _h(env)
        nv = _n(env)
        if not isinstance(hv, str) or not isinstance(nv, str):
            raise EvaluationError("contains requires string operands")
        return nv.lower() in hv.lower()

    return contains
