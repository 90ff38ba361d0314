"""Batch (columnar) execution of compiled node-query plans.

:class:`~repro.relational.compile.CompiledPlan` resolves pushdown placement
and column positions at compile time; this module lowers the *whole*
nested-loop join into a pipeline of batch operators over the tables'
columnar views (:meth:`Table.columns`) and join-key hash indexes
(:meth:`Table.index`).  The pipeline carries a **batch of candidate
bindings** — one index tuple per partial binding, the multi-level
generalization of a selection vector — through the join order:

* each level's pushdown conjuncts become **batch filters** mapping a
  binding batch to a smaller one (specialized comprehensions for the hot
  constant shapes, the scalar closure per binding otherwise);
* binding the next table becomes an **expansion**: a hash-index probe per
  binding when an equality conjunct joins the new table to already-bound
  aliases (or to a constant), the cross product otherwise — bucket lists
  are insertion-ordered, so probing reproduces the scan order exactly;
* the leaf level runs selection-vector kernels (seeded by the leaf join's
  probe result) and batch projectors; tuples materialize only at
  projection.

Lazy error semantics are preserved *exactly*, not approximately.  Batch
evaluation reorders work (conjunct-major, probe-before-filter), so the
pipeline can hit an error the interpreter would never reach, or reach one
late.  The runner built here therefore just raises;
:meth:`CompiledPlan.execute_columnar` owns the rollback — it discards the
run's rows and returns the tree interpreter's outcome instead, including
which binding's which conjunct raises, or that nothing raises at all.  A
batch that completes *cleanly* is row-identical by construction: every
evaluation the interpreter performs and the batch skips is **provably
total** (present attributes, literals, ``=``/``!=`` and boolean
combinators over them — checked at lowering time), and a hash probe
substitutes for an equality conjunct only when :meth:`ColumnIndex.probe`
proves dict equality coincides with the interpreter's coerced equality
for that probe value (no numeric number-vs-numeric-string coercion
possible, hash-exact value profile).  Any non-provable case — and any
empty-probe ambiguity — degrades to a scan through the conjunct's own
scalar closure, or to the interpreter wholesale.

Equivalence with the interpreter is property-tested in
``tests/test_columnar_executor.py`` (including hostile expressions whose
only output *is* the error, and a poisoned cell at every plan level).
Replays are counted in ``TrafficStats.plan_replays`` through the tables'
stats mirror, so a plan that falls back on every call is visible.
"""

from __future__ import annotations

from typing import Callable, Sequence

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

__all__ = ["build_columnar_runner"]

#: A scalar compiled expression (see :mod:`repro.relational.compile`).
_Scalar = Callable[[list], object]

#: A leaf batch kernel: selection vector in, selection vector out.  The
#: trailing argument is the leaf table object, for kernels that need its
#: runtime column profiles (:meth:`Table.index`).
_Kernel = Callable[[list, tuple, list, "Sequence[int] | None", object], "list[int]"]

#: A hash-join choice: (conjunct position in its level, build-side column
#: on the table being bound, probe-side scalar, full-conjunct scalar for
#: non-provable probe values).
_Join = "tuple[int, int, _Scalar, _Scalar] | None"


def build_columnar_runner(
    select: Sequence[Attr],
    filter_plan: Sequence[Sequence[Expr]],
    scalar_filters: Sequence[tuple[_Scalar, ...]],
    positions: dict[str, int],
    schemas: Sequence[Schema],
    header: tuple[str, ...],
    compile_expr: Callable[[Expr], _Scalar],
) -> Callable[[list, list, list, list], None]:
    """Build the batch runner for one compiled plan.

    The runner signature is ``runner(env, tables, table_objs, out)``:
    ``tables`` are the scanned row lists, ``table_objs`` the table objects
    behind them (for ``columns()`` / ``index()``).  It appends result rows
    to ``out`` and lets any evaluation error propagate — the caller
    discards ``out`` and replays through the interpreter.
    """
    count = len(schemas)
    leaf = count - 1
    leaf_alias = next(alias for alias, depth in positions.items() if depth == leaf)

    # joins[d]: the equality conjunct (from plan level d+1) used to expand
    # the table at depth d via a hash probe, when one is provably usable.
    joins: list[_Join] = [
        _choose_join(
            filter_plan[depth + 1], scalar_filters[depth + 1],
            depth, positions, schemas, compile_expr,
        )
        for depth in range(count)
    ]

    stages: list[Callable] = []
    for depth in range(leaf):
        entry = _entry_filters(depth, filter_plan, scalar_filters, joins, positions, schemas)
        stages.append(_build_expand_stage(depth, entry, joins[depth]))

    leaf_entry = _entry_filters(leaf, filter_plan, scalar_filters, joins, positions, schemas)
    leaf_join = joins[leaf]
    skip = leaf_join[0] if leaf_join is not None else -1
    kernels = tuple(
        _build_kernel(conjunct, scalar, leaf, leaf_alias, schemas[leaf])
        for position, (conjunct, scalar) in enumerate(
            zip(filter_plan[count], scalar_filters[count])
        )
        if position != skip
    )
    projector = _build_projector(select, positions, schemas, leaf, header)
    leaf_stage = _build_leaf_stage(leaf, leaf_entry, leaf_join, kernels, projector)
    stage_list = tuple(stages)

    def runner(env, tables, table_objs, out, _stages=stage_list, _leaf_stage=leaf_stage):
        batch: list[tuple[int, ...]] = [()]
        for stage in _stages:
            batch = stage(env, tables, table_objs, batch)
            if not batch:
                return
        _leaf_stage(env, tables, table_objs, batch, out)

    return runner


# -- join-conjunct selection ---------------------------------------------------


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


def _choose_join(
    conjuncts: Sequence[Expr],
    scalars: Sequence[_Scalar],
    depth: int,
    positions: dict[str, int],
    schemas: Sequence[Schema],
    compile_expr: Callable[[Expr], _Scalar],
) -> _Join:
    """Pick the hash-probe conjunct for binding the table at ``depth``.

    Eligible: an ``=`` whose one side is a present attribute of the alias
    being bound and whose other side references only already-bound aliases
    (or is constant).  A conjunct is only usable if every conjunct *before*
    it at this level is provably total — the probe skips their evaluation
    on pruned rows, which must not be able to suppress an error the
    interpreter would raise.  The search stops at the first non-total
    conjunct.
    """
    schema = schemas[depth]
    for position, conjunct in enumerate(conjuncts):
        if isinstance(conjunct, Compare) and conjunct.op == "=":
            for build_expr, probe_expr in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not (
                    isinstance(build_expr, Attr)
                    and positions[build_expr.alias] == depth
                    and build_expr.name in schema
                ):
                    continue
                if any(
                    positions[attr.alias] >= depth
                    for attr in attrs_referenced(probe_expr)
                ):
                    continue
                return (
                    position,
                    schema.position(build_expr.name),
                    compile_expr(probe_expr),
                    scalars[position],
                )
        if not _provably_total(conjunct, positions, schemas):
            return None
    return None


# -- batch filters (outer-level pushdown conjuncts) ---------------------------


def _entry_filters(
    depth: int,
    filter_plan: Sequence[Sequence[Expr]],
    scalar_filters: Sequence[tuple[_Scalar, ...]],
    joins: Sequence[_Join],
    positions: dict[str, int],
    schemas: Sequence[Schema],
) -> tuple[Callable, ...]:
    """Batch filters for plan level ``depth`` (evaluated on width-``depth``
    batches), minus the conjunct the previous expansion's probe applied."""
    skip = -1
    if depth >= 1 and joins[depth - 1] is not None:
        skip = joins[depth - 1][0]
    return tuple(
        _build_batch_filter(conjunct, scalar, depth, positions, schemas)
        for position, (conjunct, scalar) in enumerate(
            zip(filter_plan[depth], scalar_filters[depth])
        )
        if position != skip
    )


def _bound_column(
    expr: Expr, width: int, positions: dict[str, int], schemas: Sequence[Schema]
) -> tuple[int, int] | None:
    """(depth, column) if ``expr`` is a present attribute of a bound alias."""
    if isinstance(expr, Attr):
        depth = positions[expr.alias]
        if depth < width and expr.name in schemas[depth]:
            return depth, schemas[depth].position(expr.name)
    return None


def _specialize_batch(
    conjunct: Expr, width: int, positions: dict[str, int], schemas: Sequence[Schema]
) -> Callable | None:
    """Vectorized batch filters for the hot constant shapes, or ``None``.

    The same value-exactness arguments as the leaf kernels
    (:func:`_specialize`) apply: constant-needle ``contains`` raises out of
    the comprehension (into the pipeline rollback) for non-string cells,
    and ``=``/``!=`` against a non-numeric string constant can never
    trigger numeric coercion.
    """
    if isinstance(conjunct, Contains) and not conjunct.max_edits:
        where = _bound_column(conjunct.haystack, width, positions, schemas)
        needle = conjunct.needle
        if (
            where is not None
            and isinstance(needle, Literal)
            and isinstance(needle.value, str)
        ):
            depth, column = where
            lowered = needle.value.lower()

            def contains_filter(
                env, tables, table_objs, batch, _j=depth, _c=column, _n=lowered
            ):
                values = table_objs[_j].columns()[_c]
                return [b for b in batch if _n in values[b[_j]].lower()]

            return contains_filter

    if isinstance(conjunct, Compare) and conjunct.op in ("=", "!="):
        where = None
        constant: object = None
        if isinstance(conjunct.right, Literal):
            where = _bound_column(conjunct.left, width, positions, schemas)
            constant = conjunct.right.value
        elif isinstance(conjunct.left, Literal):
            where = _bound_column(conjunct.right, width, positions, schemas)
            constant = conjunct.left.value
        if (
            where is not None
            and isinstance(constant, str)
            and _to_number(constant) is None
        ):
            depth, column = where
            if conjunct.op == "=":

                def eq_filter(
                    env, tables, table_objs, batch, _j=depth, _c=column, _v=constant
                ):
                    values = table_objs[_j].columns()[_c]
                    return [b for b in batch if values[b[_j]] == _v]

                return eq_filter

            def ne_filter(
                env, tables, table_objs, batch, _j=depth, _c=column, _v=constant
            ):
                values = table_objs[_j].columns()[_c]
                return [b for b in batch if values[b[_j]] != _v]

            return ne_filter

    return None


def _build_batch_filter(
    conjunct: Expr,
    scalar: _Scalar,
    width: int,
    positions: dict[str, int],
    schemas: Sequence[Schema],
) -> Callable:
    specialized = _specialize_batch(conjunct, width, positions, schemas)
    if specialized is not None:
        return specialized
    if width == 0:
        # Constant predicate (plan[0]): one evaluation gates the whole run,
        # exactly like the interpreter's outermost level.
        def constant_filter(env, tables, table_objs, batch, _f=scalar):
            return batch if _f(env) else []

        return constant_filter

    def batch_filter(env, tables, table_objs, batch, _f=scalar, _w=width):
        kept = []
        append = kept.append
        for binding in batch:
            for depth in range(_w):
                env[depth] = tables[depth][binding[depth]]
            if _f(env):
                append(binding)
        return kept

    return batch_filter


# -- expansion (binding the next table) ---------------------------------------


def _build_expand_stage(
    depth: int, entry_filters: tuple[Callable, ...], join: _Join
) -> Callable:
    """Stage ``depth`` of the pipeline: apply the level's batch filters,
    then bind the table at ``depth`` — hash probe per binding when a join
    conjunct was chosen, cross product otherwise."""
    if join is None:

        def expand(env, tables, table_objs, batch, _d=depth, _fs=entry_filters):
            for batch_filter in _fs:
                batch = batch_filter(env, tables, table_objs, batch)
                if not batch:
                    return batch
            rows = tables[_d]
            if not rows:
                return []
            indices = range(len(rows))
            return [binding + (i,) for binding in batch for i in indices]

        return expand

    __, build_col, probe, conjunct_scalar = join

    def expand_join(
        env, tables, table_objs, batch,
        _d=depth, _fs=entry_filters, _c=build_col, _p=probe, _f=conjunct_scalar,
    ):
        for batch_filter in _fs:
            batch = batch_filter(env, tables, table_objs, batch)
            if not batch:
                return batch
        rows = tables[_d]
        if not rows:
            # The interpreter never evaluates this level's join conjunct (or
            # its probe side) when the table is empty; neither may we.
            return []
        index = table_objs[_d].index(_c)
        expanded = []
        append = expanded.append
        for binding in batch:
            for outer in range(_d):
                env[outer] = tables[outer][binding[outer]]
            bucket = index.probe(_p(env))
            if bucket is None:
                # Not provably hash-exact for this probe value: scan with
                # the conjunct's own scalar closure instead.
                for i, row in enumerate(rows):
                    env[_d] = row
                    if _f(env):
                        append(binding + (i,))
            else:
                for i in bucket:
                    append(binding + (i,))
        return expanded

    return expand_join


def _build_leaf_stage(
    leaf: int,
    entry_filters: tuple[Callable, ...],
    join: _Join,
    kernels: tuple[_Kernel, ...],
    projector: Callable,
) -> Callable:
    """The final stage: per surviving binding, seed the leaf selection
    vector (hash probe when a leaf join was chosen), run the conjunct
    kernels and batch-project the survivors."""
    if join is None:

        def leaf_stage(
            env, tables, table_objs, batch, out,
            _d=leaf, _fs=entry_filters, _ks=kernels, _pj=projector,
        ):
            for batch_filter in _fs:
                batch = batch_filter(env, tables, table_objs, batch)
                if not batch:
                    return
            rows = tables[_d]
            leaf_obj = table_objs[_d]
            cols = leaf_obj.columns()
            for binding in batch:
                for outer in range(_d):
                    env[outer] = tables[outer][binding[outer]]
                sel = None
                for kernel in _ks:
                    sel = kernel(env, cols, rows, sel, leaf_obj)
                    if not sel:
                        break
                else:
                    _pj(env, cols, rows, sel, out)

        return leaf_stage

    __, build_col, probe, conjunct_scalar = join

    def leaf_stage_join(
        env, tables, table_objs, batch, out,
        _d=leaf, _fs=entry_filters, _c=build_col, _p=probe, _f=conjunct_scalar,
        _ks=kernels, _pj=projector,
    ):
        for batch_filter in _fs:
            batch = batch_filter(env, tables, table_objs, batch)
            if not batch:
                return
        rows = tables[_d]
        if not rows:
            return
        leaf_obj = table_objs[_d]
        cols = leaf_obj.columns()
        index = leaf_obj.index(_c)
        for binding in batch:
            for outer in range(_d):
                env[outer] = tables[outer][binding[outer]]
            sel = index.probe(_p(env))
            if sel is None:
                kept = []
                append = kept.append
                for i, row in enumerate(rows):
                    env[_d] = row
                    if _f(env):
                        append(i)
                sel = kept
            if not sel:
                continue
            for kernel in _ks:
                sel = kernel(env, cols, rows, sel, leaf_obj)
                if not sel:
                    break
            else:
                _pj(env, cols, rows, sel, out)

    return leaf_stage_join


# -- leaf filter kernels -------------------------------------------------------


def _build_kernel(
    conjunct: Expr,
    scalar: _Scalar,
    leaf: int,
    leaf_alias: str,
    leaf_schema: Schema,
) -> _Kernel:
    kernel = _specialize(conjunct, scalar, leaf, leaf_alias, leaf_schema)
    if kernel is not None:
        return kernel
    return _generic_kernel(scalar, leaf)


def _generic_kernel(scalar: _Scalar, leaf: int) -> _Kernel:
    """Per-row evaluation through the scalar closure — correct for every
    conjunct shape; no batch win beyond skipping the level dispatch."""

    def kernel(env, cols, rows, sel, leaf_obj, _d=leaf, _f=scalar):
        kept = []
        append = kept.append
        if sel is None:
            for index, row in enumerate(rows):
                env[_d] = row
                if _f(env):
                    append(index)
        else:
            for index in sel:
                env[_d] = rows[index]
                if _f(env):
                    append(index)
        return kept

    return kernel


def _leaf_column(expr: Expr, leaf_alias: str, leaf_schema: Schema) -> int | None:
    """Column index if ``expr`` is a present attribute of the leaf alias."""
    if isinstance(expr, Attr) and expr.alias == leaf_alias and expr.name in leaf_schema:
        return leaf_schema.position(expr.name)
    return None


def _specialize(
    conjunct: Expr,
    scalar: _Scalar,
    leaf: int,
    leaf_alias: str,
    leaf_schema: Schema,
) -> _Kernel | None:
    """Vectorized kernels for the hot predicate shapes, or ``None``.

    Only shapes that are provably value-exact are specialized; anything
    else (cross-level joins, numeric comparisons, boolean combinators,
    fuzzy match) goes through the generic kernel — still correct, just not
    batched.
    """
    if isinstance(conjunct, Contains) and not conjunct.max_edits:
        column = _leaf_column(conjunct.haystack, leaf_alias, leaf_schema)
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

            def contains_kernel(env, cols, rows, sel, leaf_obj, _c=column, _n=lowered):
                col = cols[_c]
                if sel is None:
                    return [i for i, v in enumerate(col) if _n in v.lower()]
                return [i for i in sel if _n in col[i].lower()]

            return contains_kernel

    if isinstance(conjunct, Compare) and conjunct.op in ("=", "!="):
        column = None
        constant: object = None
        if isinstance(conjunct.right, Literal):
            column = _leaf_column(conjunct.left, leaf_alias, leaf_schema)
            constant = conjunct.right.value
        elif isinstance(conjunct.left, Literal):
            column = _leaf_column(conjunct.right, leaf_alias, leaf_schema)
            constant = conjunct.left.value
        # Safe only for non-numeric string constants: _coerce_pair never
        # converts for those (conversion requires the *string* side to parse
        # as a number), and =/!= never raise — so plain ==/!= is exact.
        if (
            column is not None
            and isinstance(constant, str)
            and _to_number(constant) is None
        ):
            if conjunct.op == "=":

                def eq_kernel(env, cols, rows, sel, leaf_obj, _c=column, _v=constant):
                    col = cols[_c]
                    if sel is None:
                        return [i for i, v in enumerate(col) if v == _v]
                    return [i for i in sel if col[i] == _v]

                return eq_kernel

            def ne_kernel(env, cols, rows, sel, leaf_obj, _c=column, _v=constant):
                col = cols[_c]
                if sel is None:
                    return [i for i, v in enumerate(col) if v != _v]
                return [i for i in sel if col[i] != _v]

            return ne_kernel

        # Column-vs-column =/!= on the leaf (the generic-conjunct hot
        # shape, e.g. ``a.base != a.href``): plain ==/!= is exact unless
        # numeric coercion could apply between the two columns' values,
        # which the runtime column profiles rule out per database.  The
        # profiles themselves are only trustworthy over the system value
        # types (hash_exact); anything else scans through the scalar.
        left_col = _leaf_column(conjunct.left, leaf_alias, leaf_schema)
        right_col = _leaf_column(conjunct.right, leaf_alias, leaf_schema)
        if left_col is not None and right_col is not None:
            return _pair_kernel(conjunct.op, left_col, right_col, scalar, leaf)

    return None


def _pair_kernel(
    op: str, left_col: int, right_col: int, scalar: _Scalar, leaf: int
) -> _Kernel:
    generic = _generic_kernel(scalar, leaf)
    equality = op == "="

    def kernel(
        env, cols, rows, sel, leaf_obj,
        _c1=left_col, _c2=right_col, _eq=equality, _g=generic,
    ):
        left = leaf_obj.index(_c1)
        right = leaf_obj.index(_c2)
        if (
            not (left.hash_exact and right.hash_exact)
            or (left.has_number and right.has_numeric_str)
            or (right.has_number and left.has_numeric_str)
        ):
            return _g(env, cols, rows, sel, leaf_obj)
        a = cols[_c1]
        b = cols[_c2]
        if _eq:
            if sel is None:
                return [i for i in range(len(rows)) if a[i] == b[i]]
            return [i for i in sel if a[i] == b[i]]
        if sel is None:
            return [i for i in range(len(rows)) if a[i] != b[i]]
        return [i for i in sel if a[i] != b[i]]

    return kernel


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

        def project_one(env, cols, rows, sel, out, _c=column, _h=header):
            col = cols[_c]
            append = out.append
            for index in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, (col[index],)))

        return project_one

    if all_leaf and len(specs) == 2:
        first, second = specs[0][2], specs[1][2]

        def project_two(env, cols, rows, sel, out, _c0=first, _c1=second, _h=header):
            col0 = cols[_c0]
            col1 = cols[_c1]
            append = out.append
            for index in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, (col0[index], col1[index])))

        return project_two

    kinds = tuple(spec[0] for spec in specs)
    if "missing" not in kinds and len(specs) == 1:
        # Single outer-alias attribute: one value per surviving binding.
        __, depth, column = specs[0]

        def project_const(env, cols, rows, sel, out, _d=depth, _c=column, _h=header):
            value = env[_d][_c]
            append = out.append
            for __ in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, (value,)))

        return project_const

    if "missing" not in kinds and len(specs) == 2:
        # The sitewide-scan hot shape (outer const + leaf column) and its
        # mirror: resolve the constant once per binding, index the column
        # directly — no per-row source dispatch.
        (kind0, depth0, col0), (kind1, depth1, col1) = specs
        if kind0 == "env" and kind1 == "col":

            def project_env_col(
                env, cols, rows, sel, out, _d=depth0, _c0=col0, _c1=col1, _h=header
            ):
                value = env[_d][_c0]
                col = cols[_c1]
                append = out.append
                for index in range(len(rows)) if sel is None else sel:
                    append(ResultRow(_h, (value, col[index])))

            return project_env_col

        if kind0 == "col" and kind1 == "env":

            def project_col_env(
                env, cols, rows, sel, out, _c0=col0, _d=depth1, _c1=col1, _h=header
            ):
                col = cols[_c0]
                value = env[_d][_c1]
                append = out.append
                for index in range(len(rows)) if sel is None else sel:
                    append(ResultRow(_h, (col[index], value)))

            return project_col_env

        def project_env_env(
            env, cols, rows, sel, out,
            _d0=depth0, _c0=col0, _d1=depth1, _c1=col1, _h=header,
        ):
            values = (env[_d0][_c0], env[_d1][_c1])
            append = out.append
            for __ in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, values))

        return project_env_env

    frozen = tuple(specs)

    def project(env, cols, rows, sel, out, _specs=frozen, _h=header):
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
            for index in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, (source[index],)))
        else:
            for index in range(len(rows)) if sel is None else sel:
                append(ResultRow(_h, tuple(s[index] for s in sources)))

    return project
