"""PRE abstract syntax.

Nodes are immutable and structurally hashable — the node-query log table and
the CHT both key on query states that embed a PRE — and each node computes
its hash once (:func:`~repro.storedhash.stored_hash`): a tree is walked by
``hash()`` the first time only.  Construction goes
through the smart constructors :func:`concat`, :func:`alt` and
:func:`repeat`, which apply *unit and absorption* simplifications only:

* ``Empty`` is the concatenation unit, ``Never`` annihilates it;
* ``Never`` is the alternation unit; duplicate options collapse;
* ``X*0`` is ``Empty``.

Deliberately, no simplification merges ``A · A*(m-1)`` back into ``A*m`` —
the paper's log-table rewrite (Section 3.1.1) depends on that distinction
staying visible ("it would not be possible to distinguish between a 'real'
PRE that has L·L and a rewritten version of a PRE that originally had L*2").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..errors import PreSemanticsError
from ..model.relations import LinkType
from ..storedhash import cache_field, stored_hash

__all__ = [
    "Pre",
    "Empty",
    "Never",
    "Atom",
    "Concat",
    "Alt",
    "Repeat",
    "UNBOUNDED",
    "concat",
    "alt",
    "repeat",
    "EMPTY",
    "NEVER",
]

#: Sentinel bound for unbounded repetition ``A*``.
UNBOUNDED: None = None


@dataclass(frozen=True, slots=True)
@stored_hash
class Empty:
    """The zero-length path — what the paper writes as the null link ``N``."""

    _hash: int | None = cache_field()

    def __str__(self) -> str:
        return "N"


@dataclass(frozen=True, slots=True)
@stored_hash
class Never:
    """The empty path *set*: no path matches.  Appears only as a derivative
    result (a dead direction); it is not writable in PRE syntax."""

    _hash: int | None = cache_field()

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True)
@stored_hash
class Atom:
    """A single link traversal of the given type (``I``, ``L`` or ``G``)."""

    ltype: LinkType
    _hash: int | None = cache_field()

    def __post_init__(self) -> None:
        if self.ltype is LinkType.NULL:
            raise PreSemanticsError("the null link is the Empty node, not an Atom")

    def __str__(self) -> str:
        return self.ltype.value


@dataclass(frozen=True, slots=True)
@stored_hash
class Concat:
    """``parts[0] · parts[1] · ...`` — always ≥ 2 parts after simplification."""

    parts: tuple["Pre", ...]
    _hash: int | None = cache_field()

    def __str__(self) -> str:
        return ".".join(_wrap(part, for_concat=True) for part in self.parts)


@dataclass(frozen=True, slots=True)
@stored_hash
class Alt:
    """``options[0] | options[1] | ...`` — always ≥ 2 options, deduplicated."""

    options: tuple["Pre", ...]
    _hash: int | None = cache_field()

    def __str__(self) -> str:
        return "|".join(str(option) for option in self.options)


@dataclass(frozen=True, slots=True)
@stored_hash
class Repeat:
    """Zero to ``bound`` repetitions of ``body`` (``bound=None`` = unbounded).

    The paper's ``L*4`` is ``Repeat(Atom(L), 4)``; ``L*`` is
    ``Repeat(Atom(L), None)``.
    """

    body: "Pre"
    bound: int | None
    _hash: int | None = cache_field()

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound < 1:
            raise PreSemanticsError(f"repetition bound must be >= 1, got {self.bound}")

    def __str__(self) -> str:
        suffix = "*" if self.bound is None else f"*{self.bound}"
        return f"{_wrap(self.body, for_concat=True)}{suffix}"


Pre = Union[Empty, Never, Atom, Concat, Alt, Repeat]

EMPTY = Empty()
NEVER = Never()


def _wrap(pre: Pre, *, for_concat: bool) -> str:
    """Parenthesize sub-expressions whose operator binds looser than ours."""
    if isinstance(pre, Alt) or (for_concat and isinstance(pre, Concat)):
        return f"({pre})"
    return str(pre)


def concat(parts: Iterable[Pre]) -> Pre:
    """Concatenation with unit/absorption simplification and flattening."""
    flat: list[Pre] = []
    for part in parts:
        if isinstance(part, Never):
            return NEVER
        if isinstance(part, Empty):
            continue
        if isinstance(part, Concat):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def alt(options: Iterable[Pre]) -> Pre:
    """Alternation with flattening, ``Never`` removal and deduplication."""
    flat: list[Pre] = []
    seen: set[Pre] = set()
    for option in options:
        if isinstance(option, Never):
            continue
        parts = option.options if isinstance(option, Alt) else (option,)
        for part in parts:
            if part not in seen:
                seen.add(part)
                flat.append(part)
    if not flat:
        return NEVER
    if len(flat) == 1:
        return flat[0]
    return Alt(tuple(flat))


def repeat(body: Pre, bound: int | None) -> Pre:
    """Repetition; ``X*0`` and repetitions of ``N`` collapse to ``N``."""
    if bound is not None and bound <= 0:
        return EMPTY
    if isinstance(body, (Empty, Never)):
        # Zero repetitions are always allowed, so these both mean "ε only".
        return EMPTY
    return Repeat(body, bound)
