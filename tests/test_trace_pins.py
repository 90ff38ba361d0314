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
#: faulted run.  Seeds 259, 263, 345, 812 and 130-shed were re-captured when
#: the log table learned §3.1.1's zero-repeat cases (``B`` against a logged
#: ``A*n·B`` is a duplicate, ``A*m·B`` against a logged ``B`` a rewrite):
#: their streams now drop or rewrite clones they used to evaluate again.
#: All six were re-captured when a query submitted while an older one is
#: running began to carry the user-site's completion watermark (4 modelled
#: bytes per clone): every stream is the same event sequence, its times
#: shifted by the longer transfers.  The faulted runs of seeds 5 and 263 were
#: re-captured when result messages became columnar (fewer modelled bytes):
#: the same event sequences, their times shifted by the shorter transfers.
_PINS = {
    "5": (
        "032411998a5d980495ee86b03002ad966d16e1efe8be0351a2ab4bef26e876c3",
        "97d7ecf82dcb19bceb883617b3e448192dce6ece374c1ecbd6ba4eb81caf2c87",
    ),
    "259": (
        "87fec161c881a3c4522fec44392d4379a1254c178ba7a70a90c8af62c7627ad6",
        "7c211220ae97b598381eca1e0c18bedc57a50b9e146276f7cfe983a297171f5f",
    ),
    "263": (
        "e78d73afdcf21fed5138932094c42c14edf69c818c9bf023fefc6029560454ec",
        "a8a76b8400f35db6ef4b000b3378a81c0549d876fd428dd4f04ea5b7773c129e",
    ),
    "345": (
        "acd096c26f69aa5461b389d55e88e61e1e90e3f2120651b5d826f81c4a48cfc9",
        "cc4db2653f30d8d760ab4be18de3dd4863c27475b61bced29352b4543ff5eac9",
    ),
    "812": (
        "e617e8f640643d67b4e20a108c402320095859645838f90ae4079445049c54c5",
        "cecd14b00f768bff65547f6d4160d865b9639967c839b700e75f5bb93108b457",
    ),
    "130-shed": (
        "a34ac53c4633d8c5ff94aad18ce2a7852e4a86692d8f34c451cd9feaaa37106c",
        "fce2c75ebcce4565e470dab803d19d7f0f1cf4ed9cf427478eac41a6ae5b609d",
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
