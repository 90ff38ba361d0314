"""Wire-level chaos: the FaultPlan DSL mapped onto real sockets.

On the simulator a :class:`~repro.net.faults.FaultPlan` installs a fault
injector that breaks connects before they happen.  Real sockets offer no
such hook, so the asyncio backend asks for a **verdict per received frame**
instead: ``AsyncioTransport._serve_connection`` — the one receive loop
every inbound connection runs — calls :meth:`ChaosRules.verdict` once per
frame, after decoding it and before the listener (or its admission probe)
sees it.  There is no second server and no re-framing, so no frame can
bypass chaos.  The fault *mechanisms* are the real ones the transport must
survive:

=================  =====================================================
plan rule          wire behaviour (sender's view)
=================  =====================================================
``drop`` (p)       frame swallowed → delivery-ack timeout → ``FAULT``;
                   or connection reset mid-exchange → ``FAULT``
                   (a seeded coin picks which, both happen in the wild)
``partition``      every frame whose envelope source is across the cut
                   is dropped while the window is open — connects still
                   succeed, bytes die, exactly like a blackhole route
``crash``          not the receive loop's job: the engine/runner kills
                   the site's sockets (and process) and restarts it —
                   see ``AsyncioWebDisEngine.apply_chaos_crashes`` and
                   ``tools/socket_cluster.py``
delay (extra)      frame held for a seeded interval before the listener
                   runs — real reordering across links (no FaultPlan
                   analogue because the simulator models latency directly)
=================  =====================================================

Whether a frame is dropped is decided by the simulator's own matcher,
:func:`~repro.net.faults.drops_message`; only the reset/swallow coin and
the delay draws are the socket side's.  Windows in plan rules are *plan
seconds*; ``time_scale`` (wall seconds per plan second) maps them onto the
wall clock, so a DST repro whose faults fire at sim-time 3.0 can replay
with the same shape in a faster or slower real run.  Decisions draw from
one ``random.Random(seed)`` — seeded, but (unlike the simulator) not
bit-reproducible, because real arrival order is not: the point here is a
reproducible *distribution* of chaos, while bit-level determinism stays
the simulator's job.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from .faults import CrashRule, DropRule, PartitionRule, drops_message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faults import FaultPlan

__all__ = ["ChaosRules"]


class ChaosRules:
    """Seeded per-frame fault decisions shared by all of a run's listeners.

    Built directly or from a :class:`~repro.net.faults.FaultPlan` via
    :meth:`from_plan` (which carries over the plan's message rules; crash
    rules are returned separately by :meth:`crash_schedule` for the
    engine/runner to enact with real kills).
    """

    def __init__(
        self,
        seed: int = 0,
        drops: Sequence[DropRule] = (),
        partitions: Sequence[PartitionRule] = (),
        *,
        time_scale: float = 1.0,
        delay_range: tuple[float, float] = (0.0, 0.0),
        delay_probability: float = 0.0,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.seed = seed
        self.drops = tuple(drops)
        self.partitions = tuple(partitions)
        self.time_scale = time_scale
        self.delay_range = delay_range
        self.delay_probability = delay_probability
        self._rng = random.Random(seed)
        self._crashes: tuple[CrashRule, ...] = ()

    @classmethod
    def from_plan(
        cls,
        plan: "FaultPlan",
        *,
        time_scale: float = 1.0,
        delay_range: tuple[float, float] = (0.0, 0.0),
        delay_probability: float = 0.0,
    ) -> "ChaosRules":
        rules = cls(
            plan.seed,
            plan.drops,
            plan.partitions,
            time_scale=time_scale,
            delay_range=delay_range,
            delay_probability=delay_probability,
        )
        rules._crashes = plan.crashes
        return rules

    def crash_schedule(self) -> tuple[tuple[str, float, float | None], ...]:
        """``(site, wall_kill_at, wall_restart_at)`` rows, time-scaled."""
        return tuple(
            (
                rule.site,
                rule.at * self.time_scale,
                None if rule.restart_at is None else rule.restart_at * self.time_scale,
            )
            for rule in self._crashes
        )

    def plan_now(self, wall_now: float) -> float:
        return wall_now / self.time_scale

    def verdict(self, src: str, dst: str, port: int, wall_now: float) -> str | None:
        """``"swallow"``, ``"reset"`` or None (deliver) for one frame."""
        if not drops_message(
            self._rng, self.drops, self.partitions, src, dst, port,
            self.plan_now(wall_now),
        ):
            return None
        return "reset" if self._rng.random() < 0.5 else "swallow"

    def delay_draw(self) -> float:
        """Extra delay before one delivered frame reaches its listener (0.0 = none)."""
        lo, hi = self.delay_range
        if hi <= 0.0 or self.delay_probability <= 0.0:
            return 0.0
        if self._rng.random() >= self.delay_probability:
            return 0.0
        return self._rng.uniform(lo, hi)
