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
_PINS = {
    "5": (
        "44d0bfcebe03e6d8b13bac995cd5b645e025a2fe47807cb7cabe5d44582895fa",
        "0d0d1c742824e16973635c98fb60893a64c8b2c900b92c3644d1672772e6aa61",
    ),
    "259": (
        "0c8462e5d289bdb5d96cc91363385e7b7f1be3da351d50b009d8220eaf25ca9f",
        "1c1cf8a903237e90f970cf9737865d6e297140f2dd148cbbf6a3be0a2afd15d1",
    ),
    "263": (
        "7ea0dae8fe455959ba61e934645277831e0d60df4d5ec39eccd48b1d9c78a8ba",
        "10c6d715f8938d2df55a907e89af6ede064caec3bb74f05ca405e0b04fc6378c",
    ),
    "345": (
        "78fefeb57fbce758f1ee221468a351c5c4cd0e4accd0814368e43e04d368844d",
        "d379b2c9f6429fa6e8ba2606c8a88df736cb5f9dfba748ba4332c4e903a68fb7",
    ),
    "812": (
        "b0f6d27f497656c74473192ae793f0bd7238f5084778fe8aa18cf6d7b191e12d",
        "f7a5782fe32bcceb3e7c5ec471ee1a34586308c97d259086422628521608d8c6",
    ),
    "130-shed": (
        "7d028bf0c926efe8554cbcd2f4dd9bf67cfd8177ab35b72f4a6391084f659bb6",
        "2f726fd437fcf4f47024379bf0bbce1d640d3f6f344c15c16ac79e5987f20b08",
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
