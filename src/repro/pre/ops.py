"""Operations on PREs: derivatives, nullability, subsumption, rewriting.

These are the formal counterparts of the paper's informal PRE manipulations;
see the package docstring for the mapping.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ..model.relations import LinkType
from .ast import (
    EMPTY,
    NEVER,
    Alt,
    Atom,
    Concat,
    Empty,
    Never,
    Pre,
    Repeat,
    alt,
    concat,
    repeat,
)

__all__ = [
    "nullable",
    "first_symbols",
    "advance",
    "accepts",
    "enumerate_paths",
    "pre_size",
    "decompose_repeat_head",
    "LogComparison",
    "compare_for_log",
    "rewrite_superset",
]


@lru_cache(maxsize=65536)
def nullable(pre: Pre) -> bool:
    """True when ``pre`` matches the zero-length path.

    This is the paper's "the PRE contains a null link" test that decides
    whether the node-query is evaluated at the current node.
    """
    if isinstance(pre, Empty):
        return True
    if isinstance(pre, (Never, Atom)):
        return False
    if isinstance(pre, Concat):
        return all(nullable(part) for part in pre.parts)
    if isinstance(pre, Alt):
        return any(nullable(option) for option in pre.options)
    # Repeat: zero repetitions always allowed.
    return True


@lru_cache(maxsize=65536)
def first_symbols(pre: Pre) -> frozenset[LinkType]:
    """Link types that can begin a non-empty path matching ``pre``.

    This is the "set of links to be followed from the node as indicated by
    the PRE" (Figure 4, line 8).
    """
    if isinstance(pre, (Empty, Never)):
        return frozenset()
    if isinstance(pre, Atom):
        return frozenset((pre.ltype,))
    if isinstance(pre, Concat):
        symbols: set[LinkType] = set()
        for part in pre.parts:
            symbols |= first_symbols(part)
            if not nullable(part):
                break
        return frozenset(symbols)
    if isinstance(pre, Alt):
        symbols = set()
        for option in pre.options:
            symbols |= first_symbols(option)
        return frozenset(symbols)
    return first_symbols(pre.body)


@lru_cache(maxsize=65536)
def advance(pre: Pre, symbol: LinkType) -> Pre:
    """The PRE remaining after traversing one link of type ``symbol``.

    A Brzozowski derivative with simplification.  Returns ``Never`` when no
    matching path starts with ``symbol``.  Bounded repetitions step down
    (``L*4`` → ``L*3``) so the log table's ``A*m·B`` shape survives
    traversal, as the paper's Section 3.1.1 requires.
    """
    if isinstance(pre, (Empty, Never)):
        return NEVER
    if isinstance(pre, Atom):
        return EMPTY if pre.ltype is symbol else NEVER
    if isinstance(pre, Concat):
        head, tail = pre.parts[0], pre.parts[1:]
        options = [concat((advance(head, symbol), *tail))]
        if nullable(head):
            options.append(advance(concat(tail), symbol))
        return alt(options)
    if isinstance(pre, Alt):
        return alt(advance(option, symbol) for option in pre.options)
    # Repeat(body, bound): one body traversal begins, bound decremented.
    remaining = None if pre.bound is None else pre.bound - 1
    return concat((advance(pre.body, symbol), repeat(pre.body, remaining)))


def accepts(pre: Pre, path: Sequence[LinkType]) -> bool:
    """True when the link-type sequence ``path`` matches ``pre`` exactly."""
    state = pre
    for symbol in path:
        state = advance(state, symbol)
        if isinstance(state, Never):
            return False
    return nullable(state)


def enumerate_paths(pre: Pre, max_len: int) -> set[tuple[LinkType, ...]]:
    """All accepted link-type sequences of length ≤ ``max_len``.

    Exponential in ``max_len``; intended for tests and small examples only.
    """
    found: set[tuple[LinkType, ...]] = set()
    frontier: list[tuple[tuple[LinkType, ...], Pre]] = [((), pre)]
    while frontier:
        path, state = frontier.pop()
        if nullable(state):
            found.add(path)
        if len(path) >= max_len:
            continue
        for symbol in first_symbols(state):
            next_state = advance(state, symbol)
            if not isinstance(next_state, Never):
                frontier.append((path + (symbol,), next_state))
    return found


def pre_size(pre: Pre) -> int:
    """Number of AST nodes; used to estimate serialized message bytes."""
    if isinstance(pre, (Empty, Never, Atom)):
        return 1
    if isinstance(pre, Concat):
        return 1 + sum(pre_size(part) for part in pre.parts)
    if isinstance(pre, Alt):
        return 1 + sum(pre_size(option) for option in pre.options)
    return 1 + pre_size(pre.body)


@dataclass(frozen=True, slots=True)
class _RepeatHead:
    """The decomposition ``pre = body*bound · tail`` (tail may be ``N``)."""

    body: Pre
    bound: int | None
    tail: Pre


def decompose_repeat_head(pre: Pre) -> _RepeatHead | None:
    """Decompose ``pre`` as ``A*m · B`` when it has that syntactic shape.

    Returns ``None`` for every other shape — the paper's log-table
    equivalence analysis only applies to repeat-headed PREs.
    """
    if isinstance(pre, Repeat):
        return _RepeatHead(pre.body, pre.bound, EMPTY)
    if isinstance(pre, Concat) and isinstance(pre.parts[0], Repeat):
        head = pre.parts[0]
        return _RepeatHead(head.body, head.bound, concat(pre.parts[1:]))
    return None


class LogComparison(enum.Enum):
    """Relation of an incoming clone's PRE to a logged PRE (same node/query).

    * ``DUPLICATE`` — drop the incoming clone (``m <= n`` or exact match,
      ``m = 0`` included);
    * ``SUPERSET`` — the incoming clone covers strictly more paths
      (``m > n``, ``n = 0`` included): replace the log entry and rewrite
      the query;
    * ``UNRELATED`` — no subsumption established; log and process normally.
    """

    DUPLICATE = "duplicate"
    SUPERSET = "superset"
    UNRELATED = "unrelated"


def compare_for_log(incoming: Pre, logged: Pre) -> LogComparison:
    """Classify ``incoming`` against ``logged`` per paper Section 3.1.1.

    ``A*0·B`` normalizes to plain ``B``, so the rule's zero cases are
    recognized by the tail: an incoming ``B`` against a logged ``A*n·B`` is
    ``m = 0 <= n``, and an incoming ``A*m·B`` against a logged ``B`` is
    ``m > n = 0``.
    """
    if incoming == logged:
        return LogComparison.DUPLICATE
    new = decompose_repeat_head(incoming)
    old = decompose_repeat_head(logged)
    if old is not None and incoming == old.tail:
        return LogComparison.DUPLICATE
    if new is not None and new.tail == logged:
        return LogComparison.SUPERSET
    if new is None or old is None:
        return LogComparison.UNRELATED
    if new.body != old.body or new.tail != old.tail:
        return LogComparison.UNRELATED
    if _bound_le(new.bound, old.bound):
        return LogComparison.DUPLICATE
    return LogComparison.SUPERSET


def _bound_le(m: int | None, n: int | None) -> bool:
    """``m <= n`` with ``None`` as infinity."""
    if n is None:
        return True
    if m is None:
        return False
    return m <= n


def rewrite_superset(incoming: Pre) -> Pre:
    """The paper's multi-rewrite: ``A*m · B  →  A · A*(m-1) · B``.

    Forces the current node to act as a PureRouter (the rewritten PRE is not
    nullable) and leaves downstream log tables unambiguous, unlike the
    single-rewrite ``A^(n+1) · A*(m-n-1) · B`` the paper rejects.
    """
    head = decompose_repeat_head(incoming)
    if head is None:
        raise ValueError(f"PRE {incoming} is not of the A*m.B shape")
    remaining = None if head.bound is None else head.bound - 1
    return concat((head.body, repeat(head.body, remaining), head.tail))
