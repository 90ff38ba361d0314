"""Query processing state.

The paper (Section 2.7.1): *"the state of a query Q_clone ... is completely
captured by num_q, the remaining number of node-queries yet to be processed,
and rem(p_i), the remaining part of the current PRE."*  Both the CHT and the
node-query log table key on this state.

A state is a value: two states with equal fields are equal wherever they were
built.  Inside a process the states of one web-query are additionally
*canonical* — a :class:`~repro.core.program.QueryProgram` mints one object per
distinct state and every clone, report, CHT entry and log-table entry of the
query reuses it — which is what lets the hop path read a state's derived data
off its :attr:`QueryState.row` instead of walking the PRE again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..pre.ast import Pre
from ..pre.ops import pre_size
from ..storedhash import cache_field, stored_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .program import StateRow

__all__ = ["QueryState"]


@dataclass(frozen=True, slots=True)
@stored_hash
class QueryState:
    """``(num_q, rem(p))`` — hashable so tables can key on it."""

    num_q: int
    rem: Pre
    _hash: int | None = cache_field()
    #: The protocol-table row this state was minted for; None for a state
    #: built anywhere else (wire decode, tests).  Not part of the value.
    row: "StateRow | None" = cache_field()
    #: This object's wire form, built by the first :meth:`wire_form`.
    _wire: Any = cache_field()

    def __post_init__(self) -> None:
        if self.num_q < 0:
            raise ValueError(f"num_q must be >= 0, got {self.num_q}")

    def size_bytes(self) -> int:
        """Serialized size estimate (4 bytes per PRE node + the counter)."""
        row = self.row
        return 4 + (4 * pre_size(self.rem) if row is None else row.rem_bytes)

    def wire_form(self) -> Any:
        """The codec's spelling, ``{"n": num_q, "rem": …}``, kept on the object.

        Built on first use.  Only an encode asks, so the codec is loaded.
        """
        encoded = self._wire
        if encoded is None:
            from ..wire import pre_to_wire  # the codec imports this module

            encoded = {"n": self.num_q, "rem": pre_to_wire(self.rem)}
            object.__setattr__(self, "_wire", encoded)
        return encoded

    def __str__(self) -> str:
        return f"({self.num_q}, {self.rem})"
