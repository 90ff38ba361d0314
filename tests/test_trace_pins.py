"""The trace event streams of fixed DST cases, pinned by digest.

A DST run's fingerprint hashes statuses, rows and the message log, not the
trace, yet the oracle (``check_faulted``) reads trace events.  These pins
hold the streams themselves — every event, in order, as ``str(event)``
renders it — for a few seeds chosen so that together they emit every action
the engine traces.  A change that only re-routes how events reach the
:class:`~repro.core.trace.Tracer` must leave every digest where it is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.engine import WebDisEngine
from repro.testing import runner
from repro.testing.generators import generate_case

#: Seed 130 again, with its pressure knobs tightened so a saturated server
#: sheds (no generated seed in 0..4000 sheds on its own).
_PRESSURE = {"per_query_queue_limit": 2, "server_queue_limit": 3, "shed_after": 0.05}

#: Case → sha256 of ``repr([str(e) for e in engine.tracer.events])`` for each
#: engine :func:`runner.run_case` builds: the clean control, then the
#: faulted run.
_PINS = {
    "5": (
        "44d0bfcebe03e6d8b13bac995cd5b645e025a2fe47807cb7cabe5d44582895fa",
        "0d0d1c742824e16973635c98fb60893a64c8b2c900b92c3644d1672772e6aa61",
    ),
    "259": (
        "ba66d507ca19e366efc199c50838616f2cd2d6d1500a211270ab3bc62b6457bb",
        "1e028e69f7288bcd2eced57bc402e93251489fd3b758500554124bea43d0a3ac",
    ),
    "263": (
        "b1b083e752f254641799f0fd2072d172b762ee898816b766c431149c29639e69",
        "048338725664cc922213cdf04570b585435f624f693b17853f65597f2f0dd8ac",
    ),
    "345": (
        "fe89dfcb61a9b0ca6d1249b0e5f63cac6555f647caeb1fd180927758144d0640",
        "e1cc81bd7003148ce7f9c8e786d9464b2770440e3293fa45f9c6ee69eba0b7ae",
    ),
    "812": (
        "8777ac2f8feebf1f93e230c651f0c7193b5f7a6f60e87c66a91974816b961957",
        "5fef40d231e805122eaacd715a5c07ba417d8250b2ab77d6b05ea005c71aa2ad",
    ),
    "130-shed": (
        "de6396ab65c6e53b7651397d1b0175fe5f688f674a4595182c1c6279e6a9e95e",
        "b392b25e05f699d26879907deaefdffb3b2ed421acb34ea3fb78495175417e39",
    ),
}

#: Every action the engine traces; the pinned cases emit each at least once.
_ACTIONS = {
    "dispatched", "duplicate-dropped", "rewritten", "missing", "answered", "failed",
    "routed", "dead-end", "forwarded", "purged", "unreachable-site", "overload-shed",
    "frontier-batched", "retry-scheduled", "retry-delivered", "retries-exhausted",
    "send-abandoned", "dispatch-exhausted", "report-absorbed", "rows-deduplicated",
    "re-forwarded", "recovery-round", "finished-partial", "unreachable-start",
    "unreachable-reforward",
}


def _spec(case: str) -> dict:
    seed, __, variant = case.partition("-")
    spec = generate_case(int(seed))
    if variant == "shed":
        spec["config"] = dict(spec.get("config", {}), **_PRESSURE)
    return spec


@pytest.fixture(scope="module")
def streams() -> dict[str, list[list]]:
    """Each pinned case's trace events, one list per engine it built."""
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        for case in _PINS:
            engines: list[WebDisEngine] = []

            class Recording(WebDisEngine):
                def __init__(self, *args, **kwargs) -> None:
                    super().__init__(*args, **kwargs)
                    engines.append(self)

            patch.setattr(runner, "WebDisEngine", Recording)
            assert runner.run_case(_spec(case)).ok
            found[case] = [engine.tracer.events for engine in engines]
    return found


@pytest.mark.parametrize("case", sorted(_PINS))
def test_trace_stream_did_not_move(streams, case):
    digests = tuple(
        hashlib.sha256(repr([str(event) for event in events]).encode()).hexdigest()
        for events in streams[case]
    )
    assert digests == _PINS[case]


def test_the_pinned_cases_emit_every_traced_action(streams):
    emitted = {
        event.action for per_case in streams.values() for events in per_case for event in events
    }
    assert emitted == _ACTIONS
