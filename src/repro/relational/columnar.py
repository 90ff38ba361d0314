"""Batch (columnar) execution of compiled node-query plans.

:class:`~repro.relational.compile.CompiledPlan` resolves pushdown placement
and column positions at compile time; this module lowers the *whole*
nested-loop join into one batch stage per table, over the tables' columnar
views (:meth:`Table.columns`).  The stages carry a **batch of candidate
bindings** — one position tuple per partial binding — through the join
order, and every stage has the same shape, **seed → kernels → emit**:

* **seed** — the table's *selection*: the conjuncts of the stage's plan
  level that reference only the table being bound, run as selection-vector
  kernels over the whole table **once per execution**, the first time the
  stage is reached with a non-empty batch.  That is what "below the join"
  means: ``r.text contains "x"`` costs one pass over RELINFON per
  execution, not one per outer binding.  Nothing is kept across executions
  — databases are shared by every query that visits their node (the
  document store), and the selection belongs to one query's literals;
* **kernels** — per outer binding, only what depends on the binding: the
  *residual* conjuncts, in statement order, each a selection-vector kernel
  over the survivors.  An equality that joins the table to already-bound
  aliases is a residual like any other: a node-query's tables are one
  document's relations (paper §2.4), tens of rows, too few for a hash
  index to repay its build;
* **emit** — an outer stage appends ``binding + (i,)`` per survivor, the
  leaf projects; tuples materialize only at projection.  Projecting outer
  values followed by one leaf column (``d.url, a.href, r.text``) builds the
  outer prefix once per binding.

No stage builds a row: a binding is its tables' row positions, and every
closure reads the cells it needs out of the columns by position (the
``env`` layout of :func:`build_columnar_runner`).

**Selections before expansion.**  Every level before the first one with a
residual — level *k*, or the leaf if none has — binds by its selection
alone (level 0 always does), so level *k* is reached with a non-empty
batch exactly when every selection before it is non-empty.  The runner
therefore evaluates the selections of levels 0 to *k* first, returns at
the first empty one, and only then builds the batch — as the cross product
of the selections before *k*.  It evaluates them in two passes:
first each selection with a conjunct that is not provably total (see the
hoisting rule), then the total ones, each pass in level order; a total
selection that runs after a deeper non-total one is ``deferred`` in its
:class:`LevelPlan`.  A total selection skipped behind an empty non-total one
could not have raised.  A non-total one run ahead of a total one that would
have emptied the batch may raise where the interpreter never looks — into
the replay below.  With an empty table among levels 0 to *k* the runner
keeps level order: the interpreter evaluates no level behind an empty
table.  Levels after *k* seed when their stage is reached, as above.

**Case folds.**  ``contains`` kernels read a column case-folded once per
table (:meth:`Table.folded <repro.relational.table.Table.folded>`), not
lowered per execution: a literal needle absent from the folded column's
joined text selects nothing in one C call, and a present one filters the
folded cells.  A non-``str`` cell folds to ``None``, whose ``in`` raises
into the replay exactly when the cell is read.

**A batched cross-level ``contains``.**  When a level's first residual is
``outer.x contains own.y`` (or ``own.y contains outer.x``, no ``~k``), the
stage reads both columns folded and, per distinct selected own value, makes
one pass over the outer rows the batch holds, so each binding costs one
dict lookup and a binding without a match is dropped before it is written
into ``env``.  A cross-level ``contains`` anywhere else is a generic
kernel.

**The hoisting rule.**  A table-local conjunct joins the selection only if
every conjunct before it at its level is itself in the selection or
*provably total* (present attributes, literals, ``=``/``!=`` and boolean
combinators over them — checked at lowering time).  Lazy error semantics
are therefore preserved *exactly*, not approximately: every evaluation the
interpreter performs and a clean batch run skips is either a duplicate of
one the batch did perform (the same pure conjunct on the same row, under
another outer binding) or provably total.  Batch evaluation also *adds*
evaluations the short-circuiting interpreter never reaches (conjunct-major,
selection first), so it can hit an error the interpreter would not, or
reach one late.  The runner built here therefore just raises;
:meth:`CompiledPlan.execute_columnar` owns the rollback — it discards the
run's rows and returns the tree interpreter's outcome instead, including
which binding's which conjunct raises, or that nothing raises at all.  An
empty table or an empty outer batch evaluates nothing of its level, exactly
like the interpreter.

**Constants are parameters.**  A runner is built for a query *shape*: every
string or number constant of the ``where`` clause is a :class:`Param`, whose
value the kernels and closures read from ``env`` at run time (a string's
lowercased copy sits in the next slot, so a ``contains`` needle is lowered
once per bound query, not per row).  What a lowering may know of a constant
is its kind (:attr:`Param.kind`) — the one property the kernel choice below
depends on (``=``/``!=`` are plain ``==``/``!=`` only for *non-numeric*
strings) — so one runner serves every query that differs from it only in
constant values of the same kinds.

Equivalence with the interpreter is property-tested in
``tests/test_columnar_executor.py`` (including hostile expressions whose
only output *is* the error, a poisoned cell at every plan level, and
literal-varied queries bound to one shared lowering).  Replays are counted
in ``TrafficStats.plan_replays`` through the tables' stats mirror, so a plan
that falls back on every call is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .expr import (
    And,
    Attr,
    Compare,
    Contains,
    Expr,
    Literal,
    Not,
    Or,
    attrs_referenced,
)
from .query import ResultRow
from .schema import Schema

__all__ = ["LevelPlan", "Param", "STR", "NUMERIC_STR", "build_columnar_runner"]

#: :attr:`Param.kind` of a string constant that does not parse as a number.
STR = "str"
#: :attr:`Param.kind` of a string constant that does (``"12"``, ``"1e3"``):
#: ``_coerce_pair`` may convert it, so ``=``/``!=`` must not be plain.
NUMERIC_STR = "numeric str"


@dataclass(frozen=True, slots=True)
class Param:
    """A constant of a shared lowering, bound per query.

    Its value is ``env[index]``; a string's lowercased copy is
    ``env[index + 1]``.  ``kind`` is :data:`STR`, :data:`NUMERIC_STR` or the
    type of a non-string value — never the value itself.
    """

    index: int
    kind: object

    @property
    def is_str(self) -> bool:
        return self.kind == STR or self.kind == NUMERIC_STR


#: A scalar compiled expression (see :mod:`repro.relational.compile`).
_Scalar = Callable[[list], object]

#: A batch kernel: ``(env, cols, sel, table) -> sel`` — selection vector
#: in, selection vector out, over the columns of the table being bound.
#: ``table`` is the table object, for kernels that need what it caches per
#: column (:meth:`Table.profile`, :meth:`Table.folded`).
_Kernel = Callable[[list, tuple, "Sequence[int]", object], "list[int]"]


class LevelPlan(NamedTuple):
    """Where the conjuncts of one plan level run, as positions in the
    level's conjunct list — so one plan serves every query of its shape.

    Each group is in evaluation order; ``deferred`` says the selection is
    provably total and runs after a deeper level's non-total one (module
    doc, "Selections before expansion").  :meth:`CompiledPlan.describe`
    prints it.
    """

    selection: tuple[int, ...]
    residual: tuple[int, ...]
    deferred: bool = False


def build_columnar_runner(
    select: Sequence[Attr],
    filter_plan: Sequence[Sequence[Expr]],
    scalar_filters: Sequence[tuple[_Scalar, ...]],
    positions: dict[str, int],
    schemas: Sequence[Schema],
    header: tuple[str, ...],
) -> tuple[Callable[[list, list, list], None], tuple[LevelPlan, ...]]:
    """Build the batch runner for one compiled plan, and its level plans.

    The runner signature is ``runner(env, tables, out)``: ``tables`` are
    the scanned tables, one per depth, and ``env`` has one slot per table
    (the *position* of the row bound at that depth), then one per table for
    its columns (the runner fills them), then the bound constants (see
    :class:`Param`) — so a compiled attribute reads its cell as
    ``env[n + depth][column][env[depth]]`` over ``n`` tables, and no row is
    ever built.  It appends result rows to ``out`` and lets any evaluation
    error propagate — the caller discards ``out`` and replays through the
    interpreter.
    """
    leaf = len(schemas) - 1
    seeds = []
    stages = []
    levels = []
    for alias, depth in sorted(positions.items(), key=lambda item: item[1]):
        level, selection, residual = _lower_level(
            filter_plan[depth + 1], scalar_filters[depth + 1],
            depth, alias, positions, schemas,
        )
        emit = _expand if depth < leaf else _build_projector(
            select, positions, schemas, leaf, header
        )
        levels.append(level)
        seeds.append(_build_seed(depth, selection))
        stages.append(_build_stage(depth, seeds[-1], residual, emit))
    # Constant predicates (plan[0]): one evaluation each gates the whole
    # run, exactly like the interpreter's outermost level.
    gates = tuple(scalar_filters[0])
    # Level k: the first with per-binding work; the selections up to it run
    # ahead of any expansion, those that can raise first (module doc,
    # "Selections before expansion").
    ahead = next((depth for depth, level in enumerate(levels) if level.residual), leaf)
    total = [
        all(
            _provably_total(filter_plan[depth + 1][position], positions, schemas)
            for position in levels[depth].selection
        )
        for depth in range(ahead + 1)
    ]
    order = sorted(range(ahead + 1), key=total.__getitem__)  # stable: non-total first
    for depth in range(ahead + 1):
        if total[depth] and levels[depth].selection and not all(total[depth:]):
            levels[depth] = levels[depth]._replace(deferred=True)

    def runner(
        env, tables, out,
        _gates=gates, _ahead=ahead + 1, _slots=slice(leaf + 1, 2 * leaf + 2),
        _in_order=tuple(enumerate(seeds[: ahead + 1])),
        _reordered=tuple((depth, seeds[depth]) for depth in order),
        _stages=tuple(stages[ahead:-1]), _leaf_stage=stages[-1],
    ):
        env[_slots] = [table.columns() for table in tables]
        for gate in _gates:
            if not gate(env):
                return
        selections = [None] * _ahead
        # An empty table ahead: the interpreter evaluates no level behind it,
        # so neither may a reordered selection.
        for depth, seed in _reordered if all(tables[:_ahead]) else _in_order:
            selected = seed(env, tables)
            if not selected:
                return
            selections[depth] = selected
        selected = selections.pop()
        batch: list[tuple[int, ...]] = [()]
        for outer in selections:
            batch = [binding + (i,) for binding in batch for i in outer]
        for stage in _stages:
            expanded: list[tuple[int, ...]] = []
            stage(env, tables, batch, expanded, selected)
            if not expanded:
                return
            batch = expanded
            selected = None
        _leaf_stage(env, tables, batch, out, selected)

    return runner, tuple(levels)


# -- lowering one plan level ----------------------------------------------------


def _provably_total(expr: Expr, positions: dict[str, int], schemas: Sequence[Schema]) -> bool:
    """True when evaluating ``expr`` (on any bound env) can never raise.

    Present attributes and literals are total; ``=``/``!=`` never raise
    (:func:`~repro.relational.expr._coerce_pair` is total and equality is
    defined across the system's value types); ``and``/``or``/``not`` of
    total operands are total.  Ordered comparisons and ``contains`` can
    raise on type mismatches, so they are never claimed total.
    """
    if isinstance(expr, (Literal, Param)):
        return True
    if isinstance(expr, Attr):
        return expr.name in schemas[positions[expr.alias]]
    if isinstance(expr, Compare):
        return (
            expr.op in ("=", "!=")
            and _provably_total(expr.left, positions, schemas)
            and _provably_total(expr.right, positions, schemas)
        )
    if isinstance(expr, (And, Or)):
        return (
            _provably_total(expr.left, positions, schemas)
            and _provably_total(expr.right, positions, schemas)
        )
    if isinstance(expr, Not):
        return _provably_total(expr.operand, positions, schemas)
    return False


def _lower_level(
    conjuncts: Sequence[Expr],
    scalars: Sequence[_Scalar],
    depth: int,
    alias: str,
    positions: dict[str, int],
    schemas: Sequence[Schema],
) -> tuple[LevelPlan, tuple[_Kernel, ...], "tuple[_Kernel | _CrossContains, ...]"]:
    """Split the conjuncts evaluated right after binding ``alias`` into the
    table's selection and the per-binding residual.

    A conjunct may leave statement order — into the selection, because it
    references only ``alias`` — only while every conjunct before it at this
    level is in the selection or provably total: the batch then skips
    evaluations the interpreter performs on deselected rows, which must not
    be able to suppress an error the interpreter would raise.  From the
    first conjunct that is neither, everything stays residual, in order.  A
    cross-level ``contains`` that is the level's first residual is a
    :class:`_CrossContains`, which the stage runs before writing ``env``.
    """
    schema = schemas[depth]
    selection: list[tuple[int, _Kernel]] = []
    residual: list[tuple[int, "_Kernel | _CrossContains"]] = []
    covered = True
    for position, (conjunct, scalar) in enumerate(zip(conjuncts, scalars)):
        kernel = _specialize(conjunct, scalar, depth, alias, schema)
        if kernel is None:
            kernel = _generic_kernel(scalar, depth)
        if covered and all(attr.alias == alias for attr in attrs_referenced(conjunct)):
            selection.append((position, kernel))
            continue
        cross = None
        if not residual:
            cross = _cross_contains(conjunct, depth, alias, positions, schemas)
        residual.append((position, kernel if cross is None else cross))
        covered = covered and _provably_total(conjunct, positions, schemas)
    level = LevelPlan(tuple(p for p, __ in selection), tuple(p for p, __ in residual))
    return level, tuple(k for __, k in selection), tuple(k for __, k in residual)


# -- the stage -------------------------------------------------------------------


def _build_seed(depth: int, selection: tuple[_Kernel, ...]) -> Callable:
    """The seed of stage ``depth``: its table's selection, as a selection
    vector — empty when the table is or the selection leaves nothing."""

    def seed(env, tables, _d=depth, _sel=selection):
        table = tables[_d]
        cols = table.columns()
        size = len(cols[0])
        if not size:
            # The interpreter evaluates no conjunct of this level when the
            # table is empty; neither may we.
            return ()
        selected = range(size)
        for kernel in _sel:
            selected = kernel(env, cols, selected, table)
            if not selected:
                break
        return selected

    return seed


def _build_stage(
    depth: int,
    seed: Callable,
    residual: "tuple[_Kernel | _CrossContains, ...]",
    emit: Callable,
) -> Callable:
    """Stage ``depth``: bind the table at ``depth`` to every binding of the
    batch — seed (the table's selection, once; passed in when the runner ran
    it ahead), kernels (the residual, per binding), emit."""
    # A cross-level contains is only ever first in line (see _lower_level):
    # it filters the batch before any binding is written into env.
    cross = None
    if residual and isinstance(residual[0], _CrossContains):
        cross, residual = residual[0], residual[1:]

    def stage(
        env, tables, batch, out, selected,
        _d=depth, _seed=seed, _cross=cross, _res=residual, _emit=emit,
    ):
        if selected is None:
            selected = _seed(env, tables)
            if not selected:
                return
        table = tables[_d]
        cols = table.columns()
        found = None
        if _cross is not None:
            at = _cross.outer_depth
            found = _cross.matches(table, tables[at], selected, batch)
            if not found:
                return
        for binding in batch:
            sel = selected
            if found is not None:
                sel = found.get(binding[at])
                if sel is None:
                    continue
            # The outer rows' positions; their cells stay in the columns.
            env[:_d] = binding
            for kernel in _res:
                sel = kernel(env, cols, sel, table)
                if not sel:
                    break
            else:
                _emit(env, cols, sel, binding, out)

    return stage


def _expand(env, cols, sel, binding, out) -> None:
    """Emit of an outer stage: the next batch's bindings."""
    out.extend([binding + (i,) for i in sel])


class _CrossContains(NamedTuple):
    """The first residual of a level, when it is ``outer.x contains own.y``
    (``own_is_needle``) or ``own.y contains outer.x``, without ``~k``, over
    present attributes: both columns read folded (:meth:`Table.folded`), not
    lowered per (binding, row)."""

    outer_depth: int
    outer_column: int
    own_column: int
    own_is_needle: bool

    def matches(
        self, own: object, outer: object, selected: "Sequence[int]", batch: list
    ) -> "dict[int, list[int]]":
        """The positions of ``selected`` (rows of the ``own`` table) that
        satisfy the conjunct, by the ``outer`` row a binding of ``batch``
        holds; an outer row that no position satisfies is absent.

        Both operands must be ``str`` (subclasses included), as in the
        interpreter; any other value is ``None`` in its folded column, the
        ``in`` raises, and the run replays.
        """
        column = own.folded(self.own_column).column
        values = outer.folded(self.outer_column).column
        at = self.outer_depth
        # One pass over the batch's outer rows per distinct own value;
        # selection vectors ascend, so a merge is a sort.
        groups: dict = {}
        for j in selected:
            groups.setdefault(column[j], []).append(j)
        outer_rows = {binding[at] for binding in batch}
        found: dict[int, list[int]] = {}
        for value, kept in groups.items():
            if self.own_is_needle:
                hits = [i for i in outer_rows if value in values[i]]
            else:
                hits = [i for i in outer_rows if values[i] in value]
            for i in hits:
                earlier = found.get(i)
                found[i] = kept if earlier is None else sorted(earlier + kept)
        return found


def _cross_contains(
    conjunct: Expr,
    depth: int,
    alias: str,
    positions: dict[str, int],
    schemas: Sequence[Schema],
) -> _CrossContains | None:
    """``conjunct`` as a :class:`_CrossContains` over the table bound as
    ``alias`` at ``depth``, or ``None``."""
    if not isinstance(conjunct, Contains) or conjunct.max_edits:
        return None
    for own, outer, own_is_needle in (
        (conjunct.needle, conjunct.haystack, True),
        (conjunct.haystack, conjunct.needle, False),
    ):
        own_column = _own_column(own, alias, schemas[depth])
        if own_column is None or not isinstance(outer, Attr):
            continue
        outer_depth = positions[outer.alias]
        outer_schema = schemas[outer_depth]
        if outer_depth < depth and outer.name in outer_schema:
            return _CrossContains(
                outer_depth, outer_schema.position(outer.name), own_column, own_is_needle
            )
    return None


# -- filter kernels --------------------------------------------------------------


def _generic_kernel(scalar: _Scalar, depth: int) -> _Kernel:
    """Per-row evaluation through the scalar closure — correct for every
    conjunct shape; no batch win beyond skipping the level dispatch."""

    def generic_kernel(env, cols, sel, table, _d=depth, _f=scalar):
        kept = []
        append = kept.append
        for index in sel:
            env[_d] = index
            if _f(env):
                append(index)
        return kept

    return generic_kernel


def _own_column(expr: Expr, alias: str, schema: Schema) -> int | None:
    """Column index if ``expr`` is a present attribute of ``alias``."""
    if isinstance(expr, Attr) and expr.alias == alias and expr.name in schema:
        return schema.position(expr.name)
    return None


def _specialize(
    conjunct: Expr, scalar: _Scalar, depth: int, alias: str, schema: Schema
) -> _Kernel | None:
    """Vectorized kernels for the hot predicate shapes over the table bound
    as ``alias``, or ``None``.

    Only shapes that are provably value-exact are specialized; anything
    else (cross-level joins, numeric comparisons, boolean combinators,
    fuzzy match) goes through the generic kernel — still correct, just not
    batched.
    """
    if isinstance(conjunct, Contains) and not conjunct.max_edits:
        column = _own_column(conjunct.haystack, alias, schema)
        needle = conjunct.needle
        if column is not None and isinstance(needle, Param) and needle.is_str:
            # Over the table's folded column (Table.folded): a needle absent
            # from the joined text is in no cell, one C call; otherwise the
            # filter lowers nothing.  A non-str cell is None there and raises
            # out of the comprehension when selected, which routes the run to
            # the interpreter replay and its EvaluationError.

            def contains_kernel(env, cols, sel, table, _c=column, _n=needle.index + 1):
                lowered = env[_n]
                folded, text = table.folded(_c)
                if text is not None and lowered not in text:
                    return []
                return [i for i in sel if lowered in folded[i]]

            return contains_kernel

    if isinstance(conjunct, Compare) and conjunct.op in ("=", "!="):
        column = constant = None
        if isinstance(conjunct.right, Param):
            column = _own_column(conjunct.left, alias, schema)
            constant = conjunct.right
        elif isinstance(conjunct.left, Param):
            column = _own_column(conjunct.right, alias, schema)
            constant = conjunct.left
        if column is not None:
            # Plain ==/!= is exact only for non-numeric string constants:
            # _coerce_pair never converts for those (conversion requires the
            # *string* side to parse as a number), and =/!= never raise.
            if constant.kind != STR:
                return None
            if conjunct.op == "=":

                def eq_kernel(env, cols, sel, table, _c=column, _i=constant.index):
                    value = env[_i]
                    col = cols[_c]
                    return [i for i in sel if col[i] == value]

                return eq_kernel

            def ne_kernel(env, cols, sel, table, _c=column, _i=constant.index):
                value = env[_i]
                col = cols[_c]
                return [i for i in sel if col[i] != value]

            return ne_kernel

        # Column-vs-column =/!= on one table (the generic-conjunct hot
        # shape, e.g. ``a.base != a.href``): plain ==/!= is exact unless
        # numeric coercion could apply between the two columns' values,
        # which the runtime column profiles rule out per database.  The
        # profiles themselves are only trustworthy over the system value
        # types (plain_exact); anything else scans through the scalar.
        left_col = _own_column(conjunct.left, alias, schema)
        right_col = _own_column(conjunct.right, alias, schema)
        if left_col is not None and right_col is not None:
            return _pair_kernel(conjunct.op, left_col, right_col, scalar, depth)

    return None


def _pair_kernel(
    op: str, left_col: int, right_col: int, scalar: _Scalar, depth: int
) -> _Kernel:
    generic = _generic_kernel(scalar, depth)
    equality = op == "="

    def pair_kernel(
        env, cols, sel, table,
        _c1=left_col, _c2=right_col, _eq=equality, _g=generic,
    ):
        # One profile per column per call — and in the selection a call is
        # one execution; the profiles are cached on the table.
        left_exact, left_number, left_numeric_str = table.profile(_c1)
        right_exact, right_number, right_numeric_str = table.profile(_c2)
        if (
            not (left_exact and right_exact)
            or (left_number and right_numeric_str)
            or (right_number and left_numeric_str)
        ):
            return _g(env, cols, sel, table)
        a = cols[_c1]
        b = cols[_c2]
        if _eq:
            return [i for i in sel if a[i] == b[i]]
        return [i for i in sel if a[i] != b[i]]

    return pair_kernel


# -- batch projection ---------------------------------------------------------


def _build_projector(
    select: Sequence[Attr],
    positions: dict[str, int],
    schemas: Sequence[Schema],
    leaf: int,
    header: tuple[str, ...],
) -> Callable:
    """Emit of the leaf stage: one result row per surviving leaf position.

    An outer-alias attribute is the cell ``env[n + depth][column][env[depth]]``
    (see :func:`build_columnar_runner`), read once per binding."""
    n = leaf + 1
    specs: list[tuple[str, object, object]] = []
    for attr in select:
        depth = positions[attr.alias]
        schema = schemas[depth]
        if attr.name not in schema:
            specs.append(("missing", attr.name, None))
        elif depth == leaf:
            specs.append(("col", None, schema.position(attr.name)))
        else:
            specs.append(("env", depth, schema.position(attr.name)))
    kinds = tuple(kind for kind, __, __ in specs)

    if kinds == ("col",):

        def project_one(env, cols, sel, binding, out, _c=specs[0][2], _h=header):
            col = cols[_c]
            append = out.append
            for index in sel:
                append(ResultRow(_h, (col[index],)))

        return project_one

    if kinds == ("col", "col"):

        def project_two(
            env, cols, sel, binding, out, _c0=specs[0][2], _c1=specs[1][2], _h=header
        ):
            col0 = cols[_c0]
            col1 = cols[_c1]
            append = out.append
            for index in sel:
                append(ResultRow(_h, (col0[index], col1[index])))

        return project_two

    if kinds[-1:] == ("col",) and set(kinds[:-1]) == {"env"}:
        # Outer values, then one leaf column (``d.url, r.text``,
        # ``d.url, a.href, r.text``): the outer prefix is one tuple per
        # surviving binding, the column is indexed directly.
        outer = tuple((depth, column) for __, depth, column in specs[:-1])

        def project_outer_col(
            env, cols, sel, binding, out, _o=outer, _c=specs[-1][2], _h=header, _n=n
        ):
            prefix = tuple([env[_n + depth][column][env[depth]] for depth, column in _o])
            col = cols[_c]
            append = out.append
            for index in sel:
                append(ResultRow(_h, prefix + (col[index],)))

        return project_outer_col

    # Any other mix: the outer cells once per binding into a template row,
    # the leaf cells per position.  An absent attribute raises the
    # interpreter's lazy ``KeyError(name)`` only if a row projects.
    outer = tuple(
        (slot, depth, column)
        for slot, (kind, depth, column) in enumerate(specs)
        if kind == "env"
    )
    own = tuple((slot, column) for slot, (kind, __, column) in enumerate(specs) if kind == "col")
    missing = next((name for kind, name, __ in specs if kind == "missing"), None)

    def project(
        env, cols, sel, binding, out,
        _o=outer, _own=own, _m=missing, _w=len(specs), _h=header, _n=n,
    ):
        if _m is not None and sel:
            raise KeyError(_m)
        values = [None] * _w
        for slot, depth, column in _o:
            values[slot] = env[_n + depth][column][env[depth]]
        leaf_cols = [(slot, cols[column]) for slot, column in _own]
        append = out.append
        for index in sel:
            for slot, col in leaf_cols:
                values[slot] = col[index]
            append(ResultRow(_h, tuple(values)))

    return project
