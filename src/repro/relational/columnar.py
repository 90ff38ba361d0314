"""Batch (columnar) execution of compiled node-query plans.

:class:`~repro.relational.compile.CompiledPlan` resolves pushdown placement
and column positions at compile time; this module lowers the *whole*
nested-loop join into one batch stage per table, over the tables' columnar
views (:meth:`Table.columns`) and join-key hash indexes
(:meth:`Table.index`).  The stages carry a **batch of candidate bindings**
— one index tuple per partial binding — through the join order, and every
stage has the same shape, **seed → kernels → emit**:

* **seed** — the table's *selection*: the conjuncts of the stage's plan
  level that reference only the table being bound, run as selection-vector
  kernels over the whole table **once per execution**, the first time the
  stage is reached with a non-empty batch.  That is what "below the join"
  means: ``r.text contains "x"`` costs one pass over RELINFON per
  execution, not one per outer binding.  Nothing is kept across executions
  — databases are shared by every query that visits their node (the
  document store), and the selection belongs to one query's literals;
* **kernels** — per outer binding, only what depends on the binding: a
  hash-index probe when an equality conjunct joins the table to
  already-bound aliases (bucket lists are insertion-ordered, so a probe
  keeps the scan order; unselected positions are dropped from it), then
  the remaining *residual* conjuncts, each a selection-vector kernel over
  the survivors;
* **emit** — an outer stage appends ``binding + (i,)`` per survivor, the
  leaf projects; tuples materialize only at projection.

**The hoisting rule.**  A table-local conjunct joins the selection only if
every conjunct before it at its level is itself in the selection or
*provably total* (present attributes, literals, ``=``/``!=`` and boolean
combinators over them — checked at lowering time); the probe conjunct is
chosen under the same rule, so statement order never decides whether a
join is hashed.  Lazy error semantics are therefore preserved *exactly*,
not approximately: every evaluation the interpreter performs and a clean
batch run skips is either a duplicate of one the batch did perform (the
same pure conjunct on the same row, under another outer binding) or
provably total, and a hash probe substitutes for an equality conjunct only
when :meth:`ColumnIndex.probe` proves dict equality coincides with the
interpreter's coerced equality for that probe value (otherwise the
conjunct's own scalar closure scans the selection).  Batch evaluation also
*adds* evaluations the short-circuiting interpreter never reaches
(conjunct-major, selection-before-probe), so it can hit an error the
interpreter would not, or reach one late.  The runner built here therefore
just raises; :meth:`CompiledPlan.execute_columnar` owns the rollback — it
discards the run's rows and returns the tree interpreter's outcome
instead, including which binding's which conjunct raises, or that nothing
raises at all.  An empty table or an empty outer batch evaluates nothing
of its level, exactly like the interpreter.

Equivalence with the interpreter is property-tested in
``tests/test_columnar_executor.py`` (including hostile expressions whose
only output *is* the error, and a poisoned cell at every plan level).
Replays are counted in ``TrafficStats.plan_replays`` through the tables'
stats mirror, so a plan that falls back on every call is visible.
"""

from __future__ import annotations

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
    _to_number,
)
from .query import ResultRow
from .schema import Schema

__all__ = ["LevelPlan", "build_columnar_runner"]

#: A scalar compiled expression (see :mod:`repro.relational.compile`).
_Scalar = Callable[[list], object]

#: A batch kernel: ``(env, cols, rows, sel, table) -> sel`` — selection
#: vector in, selection vector out, over the table being bound.  ``table``
#: is the table object, for kernels that need its runtime column profiles
#: (:meth:`Table.index`).
_Kernel = Callable[[list, tuple, list, "Sequence[int]", object], "list[int]"]

#: A hash-join choice: (build-side column on the table being bound,
#: probe-side scalar, the full conjunct as a scan kernel for probe values
#: the index refuses).
_Join = "tuple[int, _Scalar, _Kernel] | None"


class LevelPlan(NamedTuple):
    """Where the conjuncts of one plan level run.

    Each group is in evaluation order; :meth:`CompiledPlan.describe` prints it.
    """

    selection: tuple[Expr, ...]
    probe: Expr | None
    residual: tuple[Expr, ...]


def build_columnar_runner(
    select: Sequence[Attr],
    filter_plan: Sequence[Sequence[Expr]],
    scalar_filters: Sequence[tuple[_Scalar, ...]],
    positions: dict[str, int],
    schemas: Sequence[Schema],
    header: tuple[str, ...],
    compile_expr: Callable[[Expr], _Scalar],
) -> tuple[Callable[[list, list, list, list], None], tuple[LevelPlan, ...]]:
    """Build the batch runner for one compiled plan, and its level plans.

    The runner signature is ``runner(env, tables, table_objs, out)``:
    ``tables`` are the scanned row lists, ``table_objs`` the table objects
    behind them (for ``columns()`` / ``index()``).  It appends result rows
    to ``out`` and lets any evaluation error propagate — the caller
    discards ``out`` and replays through the interpreter.
    """
    leaf = len(schemas) - 1
    stages = []
    levels = []
    for alias, depth in sorted(positions.items(), key=lambda item: item[1]):
        level, selection, join, residual = _lower_level(
            filter_plan[depth + 1], scalar_filters[depth + 1],
            depth, alias, positions, schemas, compile_expr,
        )
        emit = _expand if depth < leaf else _build_projector(
            select, positions, schemas, leaf, header
        )
        levels.append(level)
        stages.append(_build_stage(depth, selection, join, residual, emit))
    # Constant predicates (plan[0]): one evaluation each gates the whole
    # run, exactly like the interpreter's outermost level.
    gates = tuple(scalar_filters[0])
    outer_stages = tuple(stages[:-1])

    def runner(
        env, tables, table_objs, out,
        _gates=gates, _stages=outer_stages, _leaf_stage=stages[-1],
    ):
        for gate in _gates:
            if not gate(env):
                return
        batch: list[tuple[int, ...]] = [()]
        for stage in _stages:
            expanded: list[tuple[int, ...]] = []
            stage(env, tables, table_objs, batch, expanded)
            if not expanded:
                return
            batch = expanded
        _leaf_stage(env, tables, table_objs, batch, out)

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
    if isinstance(expr, Literal):
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
    compile_expr: Callable[[Expr], _Scalar],
) -> tuple[LevelPlan, tuple[_Kernel, ...], _Join, tuple[_Kernel, ...]]:
    """Split the conjuncts evaluated right after binding ``alias`` into the
    table's selection, at most one hash probe, and the per-binding residual.

    A conjunct may leave statement order — into the selection (it references
    only ``alias``) or into the probe (see :func:`_join_sides`) — only while
    every conjunct before it at this level is in the selection or provably
    total: the batch then skips evaluations the interpreter performs on
    deselected / unprobed rows, which must not be able to suppress an error
    the interpreter would raise.  From the first conjunct that is neither,
    everything stays residual, in order.
    """
    schema = schemas[depth]
    selection: list[tuple[Expr, _Kernel]] = []
    residual: list[tuple[Expr, _Kernel]] = []
    probe: Expr | None = None
    join: _Join = None
    covered = True
    for conjunct, scalar in zip(conjuncts, scalars):
        kernel = _specialize(conjunct, scalar, depth, alias, schema)
        if kernel is None:
            kernel = _generic_kernel(scalar, depth)
        if covered and all(attr.alias == alias for attr in attrs_referenced(conjunct)):
            selection.append((conjunct, kernel))
            continue
        sides = None
        if covered and join is None:
            sides = _join_sides(conjunct, depth, positions, schema)
        if sides is not None:
            probe = conjunct
            join = (schema.position(sides[0].name), compile_expr(sides[1]), kernel)
        else:
            residual.append((conjunct, kernel))
        covered = covered and _provably_total(conjunct, positions, schemas)
    level = LevelPlan(
        tuple(c for c, __ in selection), probe, tuple(c for c, __ in residual)
    )
    return level, tuple(k for __, k in selection), join, tuple(k for __, k in residual)


def _join_sides(
    conjunct: Expr, depth: int, positions: dict[str, int], schema: Schema
) -> tuple[Attr, Expr] | None:
    """``(build attribute, probe expression)`` if ``conjunct`` can bind the
    table at ``depth`` through a hash probe: an ``=`` whose one side is a
    present attribute of the alias being bound and whose other side
    references only already-bound aliases."""
    if isinstance(conjunct, Compare) and conjunct.op == "=":
        for build, probe in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(build, Attr)
                and positions[build.alias] == depth
                and build.name in schema
                and all(positions[attr.alias] < depth for attr in attrs_referenced(probe))
            ):
                return build, probe
    return None


# -- the stage -------------------------------------------------------------------


def _build_stage(
    depth: int,
    selection: tuple[_Kernel, ...],
    join: _Join,
    residual: tuple[_Kernel, ...],
    emit: Callable,
) -> Callable:
    """Stage ``depth``: bind the table at ``depth`` to every binding of the
    batch — seed (the table's selection, once), kernels (probe and residual,
    per binding), emit."""
    build_col, probe, scan = join if join is not None else (None, None, None)

    def stage(
        env, tables, table_objs, batch, out,
        _d=depth, _sel=selection, _c=build_col, _p=probe, _scan=scan,
        _res=residual, _emit=emit,
    ):
        rows = tables[_d]
        if not rows:
            # The interpreter evaluates nothing of this level (conjuncts or
            # probe side) when the table is empty; neither may we.
            return
        table = table_objs[_d]
        cols = table.columns()
        selected = range(len(rows))
        for kernel in _sel:
            selected = kernel(env, cols, rows, selected, table)
            if not selected:
                return
        index = members = None
        if _p is not None:
            index = table.index(_c)
        narrowed = len(selected) < len(rows)
        for binding in batch:
            for outer in range(_d):
                env[outer] = tables[outer][binding[outer]]
            sel = selected
            if index is not None:
                sel = index.probe(_p(env))
                if sel is None:
                    # Not provably hash-exact for this probe value: scan the
                    # selection with the conjunct's own scalar closure.
                    sel = _scan(env, cols, rows, selected, table)
                elif len(sel) == len(rows):
                    sel = selected  # the bucket is the whole table
                elif narrowed:
                    if members is None:
                        members = set(selected)
                    sel = [i for i in sel if i in members]
                if not sel:
                    continue
            for kernel in _res:
                sel = kernel(env, cols, rows, sel, table)
                if not sel:
                    break
            else:
                _emit(env, cols, sel, binding, out)

    return stage


def _expand(env, cols, sel, binding, out) -> None:
    """Emit of an outer stage: the next batch's bindings."""
    out.extend([binding + (i,) for i in sel])


# -- filter kernels --------------------------------------------------------------


def _generic_kernel(scalar: _Scalar, depth: int) -> _Kernel:
    """Per-row evaluation through the scalar closure — correct for every
    conjunct shape; no batch win beyond skipping the level dispatch."""

    def generic_kernel(env, cols, rows, sel, table, _d=depth, _f=scalar):
        kept = []
        append = kept.append
        for index in sel:
            env[_d] = rows[index]
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
        if (
            column is not None
            and isinstance(needle, Literal)
            and isinstance(needle.value, str)
        ):
            # Non-string haystacks raise out of the comprehension (ints have
            # no .lower(); bytes fail the `in`), which routes the run to the
            # interpreter replay and its EvaluationError — never a silent
            # wrong answer for any type the virtual relations can hold.
            lowered = needle.value.lower()

            def contains_kernel(env, cols, rows, sel, table, _c=column, _n=lowered):
                col = cols[_c]
                return [i for i in sel if _n in col[i].lower()]

            return contains_kernel

    if isinstance(conjunct, Compare) and conjunct.op in ("=", "!="):
        column = None
        constant: object = None
        if isinstance(conjunct.right, Literal):
            column = _own_column(conjunct.left, alias, schema)
            constant = conjunct.right.value
        elif isinstance(conjunct.left, Literal):
            column = _own_column(conjunct.right, alias, schema)
            constant = conjunct.left.value
        if column is not None:
            # Plain ==/!= is exact only for non-numeric string constants:
            # _coerce_pair never converts for those (conversion requires the
            # *string* side to parse as a number), and =/!= never raise.
            plain = isinstance(constant, str) and _to_number(constant) is None
            if conjunct.op == "=":

                def eq_kernel(env, cols, rows, sel, table, _c=column, _v=constant):
                    col = cols[_c]
                    return [i for i in sel if col[i] == _v]

                scan = eq_kernel if plain else _generic_kernel(scalar, depth)
                return _indexed_eq_kernel(column, constant, scan)
            if plain:

                def ne_kernel(env, cols, rows, sel, table, _c=column, _v=constant):
                    col = cols[_c]
                    return [i for i in sel if col[i] != _v]

                return ne_kernel

        # Column-vs-column =/!= on one table (the generic-conjunct hot
        # shape, e.g. ``a.base != a.href``): plain ==/!= is exact unless
        # numeric coercion could apply between the two columns' values,
        # which the runtime column profiles rule out per database.  The
        # profiles themselves are only trustworthy over the system value
        # types (hash_exact); anything else scans through the scalar.
        left_col = _own_column(conjunct.left, alias, schema)
        right_col = _own_column(conjunct.right, alias, schema)
        if left_col is not None and right_col is not None:
            return _pair_kernel(conjunct.op, left_col, right_col, scalar, depth)

    return None


def _indexed_eq_kernel(column: int, constant: object, scan: _Kernel) -> _Kernel:
    """``column = constant``: while nothing has been deselected the table's
    cached hash index answers with its bucket (row order, so scan order);
    a narrowed vector, or a constant the index refuses (possible numeric
    coercion), goes through ``scan``."""

    def indexed_eq_kernel(env, cols, rows, sel, table, _c=column, _v=constant, _scan=scan):
        if len(sel) == len(rows):
            bucket = table.index(_c).probe(_v)
            if bucket is not None:
                return bucket
        return _scan(env, cols, rows, sel, table)

    return indexed_eq_kernel


def _pair_kernel(
    op: str, left_col: int, right_col: int, scalar: _Scalar, depth: int
) -> _Kernel:
    generic = _generic_kernel(scalar, depth)
    equality = op == "="

    def pair_kernel(
        env, cols, rows, sel, table,
        _c1=left_col, _c2=right_col, _eq=equality, _g=generic,
    ):
        # One profile per column per call — and in the selection a call is
        # one execution; the indexes are cached on the table.
        left = table.index(_c1)
        right = table.index(_c2)
        if (
            not (left.hash_exact and right.hash_exact)
            or (left.has_number and right.has_numeric_str)
            or (right.has_number and left.has_numeric_str)
        ):
            return _g(env, cols, rows, sel, table)
        a = cols[_c1]
        b = cols[_c2]
        if _eq:
            return [i for i in sel if a[i] == b[i]]
        return [i for i in sel if a[i] != b[i]]

    return pair_kernel


# -- batch projection ---------------------------------------------------------


class _ConstSource:
    """Projection source for an outer-alias attribute: one value per batch."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __getitem__(self, index: int) -> object:
        return self.value


class _MissingSource:
    """Projection source for an absent attribute — the interpreter's lazy
    ``KeyError(name)``, raised only if a row actually projects."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __getitem__(self, index: int) -> object:
        raise KeyError(self.name)


def _build_projector(
    select: Sequence[Attr],
    positions: dict[str, int],
    schemas: Sequence[Schema],
    leaf: int,
    header: tuple[str, ...],
) -> Callable:
    """Emit of the leaf stage: one result row per surviving leaf position."""
    specs: list[tuple[str, object, object]] = []
    all_leaf = True
    for attr in select:
        depth = positions[attr.alias]
        schema = schemas[depth]
        if attr.name not in schema:
            specs.append(("missing", attr.name, None))
            all_leaf = False
        elif depth == leaf:
            specs.append(("col", None, schema.position(attr.name)))
        else:
            specs.append(("env", depth, schema.position(attr.name)))
            all_leaf = False

    if all_leaf and len(specs) == 1:
        column = specs[0][2]

        def project_one(env, cols, sel, binding, out, _c=column, _h=header):
            col = cols[_c]
            append = out.append
            for index in sel:
                append(ResultRow(_h, (col[index],)))

        return project_one

    if all_leaf and len(specs) == 2:
        first, second = specs[0][2], specs[1][2]

        def project_two(env, cols, sel, binding, out, _c0=first, _c1=second, _h=header):
            col0 = cols[_c0]
            col1 = cols[_c1]
            append = out.append
            for index in sel:
                append(ResultRow(_h, (col0[index], col1[index])))

        return project_two

    kinds = tuple(spec[0] for spec in specs)
    if "missing" not in kinds and len(specs) == 1:
        # Single outer-alias attribute: one value per surviving binding.
        __, depth, column = specs[0]

        def project_const(env, cols, sel, binding, out, _d=depth, _c=column, _h=header):
            value = env[_d][_c]
            append = out.append
            for __ in sel:
                append(ResultRow(_h, (value,)))

        return project_const

    if "missing" not in kinds and len(specs) == 2:
        # The sitewide-scan hot shape (outer const + leaf column) and its
        # mirror: resolve the constant once per binding, index the column
        # directly — no per-row source dispatch.
        (kind0, depth0, col0), (kind1, depth1, col1) = specs
        if kind0 == "env" and kind1 == "col":

            def project_env_col(
                env, cols, sel, binding, out, _d=depth0, _c0=col0, _c1=col1, _h=header
            ):
                value = env[_d][_c0]
                col = cols[_c1]
                append = out.append
                for index in sel:
                    append(ResultRow(_h, (value, col[index])))

            return project_env_col

        if kind0 == "col" and kind1 == "env":

            def project_col_env(
                env, cols, sel, binding, out, _c0=col0, _d=depth1, _c1=col1, _h=header
            ):
                col = cols[_c0]
                value = env[_d][_c1]
                append = out.append
                for index in sel:
                    append(ResultRow(_h, (col[index], value)))

            return project_col_env

        def project_env_env(
            env, cols, sel, binding, out,
            _d0=depth0, _c0=col0, _d1=depth1, _c1=col1, _h=header,
        ):
            values = (env[_d0][_c0], env[_d1][_c1])
            append = out.append
            for __ in sel:
                append(ResultRow(_h, values))

        return project_env_env

    frozen = tuple(specs)

    def project(env, cols, sel, binding, out, _specs=frozen, _h=header):
        sources: list = []
        for kind, first, second in _specs:
            if kind == "col":
                sources.append(cols[second])
            elif kind == "env":
                sources.append(_ConstSource(env[first][second]))
            else:
                sources.append(_MissingSource(first))
        append = out.append
        if len(sources) == 1:
            source = sources[0]
            for index in sel:
                append(ResultRow(_h, (source[index],)))
        else:
            for index in sel:
                append(ResultRow(_h, tuple(s[index] for s in sources)))

    return project
