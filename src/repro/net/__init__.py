"""The network layer: one transport seam, two substrates.

The original WEBDIS ran over TCP sockets between campus web-servers.  The
protocols here talk to the network only through the
:class:`~repro.net.transport.Transport` seam, which has two
implementations:

* :mod:`repro.net.network` + :mod:`repro.net.simclock` — a deterministic
  discrete-event simulator (virtual time, FIFO ties, latency + bandwidth
  cost model, byte-accounted delivery, failure injection).  The default:
  tier-1 tests, DST and the benches run here (DESIGN.md Section 2).
* :mod:`repro.net.aio` — real TCP sockets on an asyncio event loop
  (length-prefixed frames, per-peer connections, connect/read timeouts),
  with :mod:`repro.net.chaos` mapping the fault DSL onto per-frame
  verdicts taken in the socket receive loop.

Shared layers, identical over either substrate:

* :mod:`repro.net.stats` — traffic counters shared by all engines;
* :mod:`repro.net.reliable` — retry/backoff channel over transient faults;
* :mod:`repro.net.faults` — seeded, composable fault-plan DSL.
"""

from .faults import FaultPlan
from .network import (
    FIRST_RESULT_PORT,
    HELPER_PORT,
    QUERY_PORT,
    Listener,
    Network,
    NetworkConfig,
    Payload,
    SendOutcome,
)
from .reliable import ReliableChannel, RetryPolicy
from .simclock import SimClock
from .stats import TrafficStats
from .transport import Clock, Transport, refusal_outcome

__all__ = [
    "Clock",
    "FIRST_RESULT_PORT",
    "FaultPlan",
    "HELPER_PORT",
    "Listener",
    "Network",
    "NetworkConfig",
    "Payload",
    "QUERY_PORT",
    "ReliableChannel",
    "RetryPolicy",
    "SendOutcome",
    "SimClock",
    "TrafficStats",
    "Transport",
    "refusal_outcome",
]
