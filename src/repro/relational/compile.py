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
* every WHERE conjunct becomes a Python closure over *row positions* —
  column indices are resolved against the static virtual-relation schemas
  at compile time, so per-row evaluation reads a cell straight out of the
  table's columns instead of building a row, a dict and a recursive AST
  dispatch;
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

It is also independent of the literals' values.  A lowering is built for
the query's *shape* — each string or number literal a slot that knows only
its type (``str``, ``int``, ...) — and a
:class:`CompiledPlan` is that lowering *bound* to one query's literals,
which every closure and kernel reads per execution.  Given a server's
mapping of lowerings (:class:`~repro.core.plancache.PlanCache` is one),
:func:`compile_node_query` lowers a shape once and binds every later query
of it, on every lookup: a server sees the same node-query with a different
literal far more often than a new structure, and a bind is cheap next to
keeping a plan per literal.  ``CompiledPlan.query`` is the bound query, so
a replay interprets the right literals.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from ..errors import DisqlSemanticsError, EvaluationError, SchemaError
from ..model.relations import ANCHOR_SCHEMA, DOCUMENT_SCHEMA, RELINFON_SCHEMA
from .columnar import LevelPlan, Param, build_columnar_runner
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
    from collections import OrderedDict

    from ..model.database import NodeDatabase

__all__ = ["CompiledPlan", "compile_node_query", "structural_key"]

_SCHEMAS = {
    "document": DOCUMENT_SCHEMA,
    "anchor": ANCHOR_SCHEMA,
    "relinfon": RELINFON_SCHEMA,
}

#: A compiled expression: evaluates against the positional environment
#: (``env[depth]`` is the position of the row currently bound at loop depth,
#: ``env[n + depth]`` that table's columns over ``n`` tables; the bound
#: constants follow).
_Compiled = Callable[[list], object]


class _Lowering(NamedTuple):
    """What every node-query of one shape shares: the batch runner, built
    over :class:`~repro.relational.columnar.Param` constants, and where it
    runs each conjunct."""

    header: tuple[str, ...]
    cost_weight: int
    scan_specs: tuple[tuple[str, bool, Schema], ...]
    columnar: Callable[[list, list, list], None]
    levels: tuple[LevelPlan, ...]


class CompiledPlan:
    """One node-query, lowered and ready to execute against any database.

    :meth:`execute_columnar` — the batch pipeline — is the compiled
    executor.  :meth:`execute` is the reference entry: the tree
    interpreter on this plan's query, which is also what the pipeline
    replays through whenever a batch run raises.  ``query`` is the query
    this plan was bound for; its lowering may be shared with every other
    query of the same shape (see :func:`compile_node_query`).
    """

    __slots__ = ("query", "header", "cost_weight", "_lowering", "_env")

    def __init__(self, query: NodeQuery, lowering: _Lowering, constants: tuple) -> None:
        self.query = query
        self.header = lowering.header
        #: Precomputed evaluation-cost weight (the simulator's CPU model).
        self.cost_weight = lowering.cost_weight
        self._lowering = lowering
        #: ``env`` before an execution binds rows: two slots per table (the
        #: bound row's position, the table's columns), then this query's
        #: constants.
        self._env = [None] * (2 * len(lowering.scan_specs)) + list(constants)

    def describe(self) -> str:
        """What the batch pipeline does with each conjunct, level by level.

        One block per table in join order — the table, then whichever of
        *selection* (evaluated over the whole table, once per execution)
        and *residual* (per outer binding, over the survivors) the level
        has, each in evaluation order.  A provably total selection that
        runs after a deeper level's non-total one prints as *selection
        (after non-total)*.  Constant conjuncts gate the whole run first.
        Conjuncts print as this plan's query spells them, with its own
        literals.  See :mod:`repro.relational.columnar` for the rules that
        decide which conjunct goes where, and which selection runs first.
        """
        tables = self.query.tables
        plan = _plan_filters(self.query.where, [decl.alias for decl in tables])
        lines = []
        if plan[0]:
            lines.append("gate: " + " and ".join(str(gate) for gate in plan[0]))
        for decl, level, conjuncts in zip(tables, self._lowering.levels, plan[1:]):
            lines.append(f"bind {decl.relation} {decl.alias}")
            for label, group in (
                (
                    "selection (after non-total)" if level.deferred else "selection",
                    level.selection,
                ),
                ("residual", level.residual),
            ):
                lines.extend(f"  {label}: {conjuncts[position]}" for position in group)
        return "\n".join(lines)

    def _bind_tables(
        self, database: "NodeDatabase", site_documents: Table | None
    ) -> list[Table]:
        """The table scanned at each plan level, checked against the
        compiled schemas."""
        tables: list[Table] = []
        for relation, sitewide, schema in self._lowering.scan_specs:
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
        tables = self._bind_tables(database, site_documents)
        results: list[ResultRow] = []
        try:
            self._lowering.columnar(self._env.copy(), tables, results)
        except Exception:
            stats = tables[0].stats
            if stats is not None:
                stats.plan_replays += 1
            return self.execute(database, site_documents)
        return results


def structural_key(query: NodeQuery) -> str:
    """The qid-independent identity of a node-query's *structure*.

    Two node-queries with equal keys compute the same function of a node
    database — same select list, same table declarations, same predicate,
    same sitewide aliases — so memoized results are interchangeable
    between them even when they belong to different web-queries.  The
    ``label`` is deliberately excluded: it names the step for traces and
    result grouping but never affects evaluation.  Built from the dataclass
    reprs (complete by construction) rather than the prettified
    ``str(query)``, so no two distinct structures can collide on rendering.
    The result memo keys its rows (and a state's visit key) by it directly,
    so it is computed once per object and kept on the node-query itself
    (outside its value): the memo asks on every node visit.  The plan cache
    keys by the query's shape instead (:func:`compile_node_query`).
    """
    key = query._structure
    if key is None:
        key = repr((query.select, query.tables, query.where, query.sitewide_aliases))
        object.__setattr__(query, "_structure", key)
    return key


def compile_node_query(
    query: NodeQuery, lowerings: "OrderedDict | None" = None
) -> CompiledPlan:
    """Lower ``query`` into a :class:`CompiledPlan` (database-independent).

    ``lowerings`` maps query *shapes* — the structure with each string or
    number literal replaced by a slot and its type (see
    :func:`_parameterized`) — to lowerings, most recently used last; the caller
    bounds it.  A query whose shape is there is *bound*: a plan over the
    shared lowering with this query's literals as per-execution constants.
    Otherwise it is lowered, and the lowering kept.
    """
    shape, constants, where = _shape(query)
    lowering = None if lowerings is None else lowerings.get(shape)
    if lowering is None:
        lowering = _lower(query, where)
        if lowerings is not None:
            lowerings[shape] = lowering
    else:
        lowerings.move_to_end(shape)
    return CompiledPlan(query, lowering, constants)


def _shape(query: NodeQuery) -> tuple[tuple, tuple, Expr]:
    """``(shape key, constants, where with Param constants)`` of ``query``
    (see :func:`_parameterized`), computed once per object and kept on it,
    like :func:`structural_key`: one node-query object is compiled at every site
    its clones reach."""
    shape = query._shape
    if shape is None:
        constants: list = []
        key, where = _parameterized(query.where, constants, 2 * len(query.tables))
        shape = (
            (
                tuple((attr.alias, attr.name) for attr in query.select),
                tuple((decl.relation, decl.alias) for decl in query.tables),
                query.sitewide_aliases,
                key,
            ),
            tuple(constants),
            where,
        )
        object.__setattr__(query, "_shape", shape)
    return shape


def _lower(query: NodeQuery, where: Expr) -> _Lowering:
    """The lowering of ``query``'s shape, whose ``where`` is given with
    :class:`~repro.relational.columnar.Param` constants."""
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
    filter_plan = tuple(tuple(level) for level in _plan_filters(where, alias_order))
    filters = [
        tuple(_compile_expr(conjunct, positions, schemas) for conjunct in level)
        for level in filter_plan
    ]
    header = query.header
    columnar, levels = build_columnar_runner(
        query.select,
        filter_plan,
        filters,
        positions,
        schemas,
        header,
    )
    return _Lowering(header, query.cost_weight(), scan_specs, columnar, levels)


# -- query shapes ------------------------------------------------------------


def _parameterized(expr: Expr, constants: list, base: int) -> tuple[object, Expr]:
    """``expr`` with each string or number literal replaced by a
    :class:`~repro.relational.columnar.Param` — numbered from ``base``, past
    the two per-table slots of ``env`` — whose value is appended to
    ``constants`` (a string's lowercased copy right after it); and the same
    tree as a key of nested tuples (of strings, so hashing it runs no
    Python code per node).

    A Param keeps its literal's type, which the lowering may depend on
    (:func:`_specialize <repro.relational.columnar._specialize>` batches a
    ``contains`` only over a string needle), and not its value.
    Booleans stay literal: :func:`conjuncts` drops a literal ``True``, so
    their value decides the plan.
    """
    if isinstance(expr, Literal) and not isinstance(expr.value, bool):
        value = expr.value
        index = base + len(constants)
        if isinstance(value, str):
            constants += (value, value.lower())
        else:
            constants.append(value)
        param = Param(index, type(value))
        return (Param, index, param.kind), param
    if isinstance(expr, Compare):
        (left_key, left), (right_key, right) = (
            _parameterized(expr.left, constants, base),
            _parameterized(expr.right, constants, base),
        )
        return (Compare, expr.op, left_key, right_key), Compare(expr.op, left, right)
    if isinstance(expr, Contains):
        (haystack_key, haystack), (needle_key, needle) = (
            _parameterized(expr.haystack, constants, base),
            _parameterized(expr.needle, constants, base),
        )
        return (
            (Contains, haystack_key, needle_key, expr.max_edits),
            Contains(haystack, needle, expr.max_edits),
        )
    if isinstance(expr, (And, Or)):
        (left_key, left), (right_key, right) = (
            _parameterized(expr.left, constants, base),
            _parameterized(expr.right, constants, base),
        )
        return (type(expr), left_key, right_key), type(expr)(left, right)
    if isinstance(expr, Not):
        operand_key, operand = _parameterized(expr.operand, constants, base)
        return (Not, operand_key), Not(operand)
    if isinstance(expr, Attr):
        return (expr.alias, expr.name), expr
    if isinstance(expr, Literal):
        return (Literal, expr.value), expr
    raise EvaluationError(f"unknown expression node {expr!r}")


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

    def fetch(env, _d=depth, _s=len(schemas) + depth, _c=column):
        return env[_s][_c][env[_d]]

    return fetch


def _compile_expr(
    expr: Expr, positions: dict[str, int], schemas: Sequence[Schema]
) -> _Compiled:
    if isinstance(expr, Param):

        def constant(env, _i=expr.index):
            return env[_i]

        return constant
    if isinstance(expr, Literal):
        value = expr.value

        def literal(env, _v=value):
            return _v

        return literal
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

    # Constant needle (the overwhelmingly common shape): its lowercased copy
    # is bound with the query.
    if isinstance(expr.needle, Param) and expr.needle.is_str:

        def contains_const(env, _h=haystack, _n=expr.needle.index + 1):
            hv = _h(env)
            if not isinstance(hv, str):
                raise EvaluationError("contains requires string operands")
            return env[_n] in hv.lower()

        return contains_const

    def contains(env, _h=haystack, _n=needle):
        hv = _h(env)
        nv = _n(env)
        if not isinstance(hv, str) or not isinstance(nv, str):
            raise EvaluationError("contains requires string operands")
        return nv.lower() in hv.lower()

    return contains
