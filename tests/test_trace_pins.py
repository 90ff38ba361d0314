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
from dataclasses import replace

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
#: Both runs of seed 345 and the faulted run of seed 5 were re-captured when a
#: result message began to write a repeated URL or dispatch id as an index
#: (``WIRE_VERSION`` 3, fewer modelled bytes): the same event sequences —
#: ``_SEQUENCES`` did not move — their times shifted by the shorter transfers.
#: The faulted runs of seeds 5, 263 and 130-shed were re-captured when the
#: size model began to charge the quotes of a URL or dispatch id written in
#: full (slightly more modelled bytes): the same event sequences, their times
#: shifted by the longer transfers.  At ``WIRE_VERSION`` 4 (row references
#: and child id steps, fewer modelled bytes) only the faulted run of seed
#: 263 moved, in its times alone.  The faulted runs of seeds 259 and 263 were
#: then re-captured, sequences too, when the log table became epoch-aware
#: (ROADMAP item 19): a recovery round's re-forward that an epoch-0 entry
#: used to drop as a duplicate is now answered again, and its rows are
#: deduplicated at the user-site.  Their clean runs did not move.
_PINS = {
    "5": (
        "032411998a5d980495ee86b03002ad966d16e1efe8be0351a2ab4bef26e876c3",
        "3b7fb9f8321c5c08e3c069d32e3f4f3ee8302c05cb81438c49b8c80fcf48c983",
    ),
    "259": (
        "87fec161c881a3c4522fec44392d4379a1254c178ba7a70a90c8af62c7627ad6",
        "0d42e6d77980c64086b4d22f26e083b4c5b5c38ec281ffad2a5c6d86a1015337",
    ),
    "263": (
        "e78d73afdcf21fed5138932094c42c14edf69c818c9bf023fefc6029560454ec",
        "76e10917746485ff14f0cd6508cc203a195f4ba2486f99da9c325f16564fecaf",
    ),
    "345": (
        "06da62224ba1e1069f247fcd38c7e0c061b66447aa3235c7abacbfa7fc36c55a",
        "be428b6b910b16417ec39398051b94eb949d17b41ba6cd4660f255a13d907b19",
    ),
    "812": (
        "e617e8f640643d67b4e20a108c402320095859645838f90ae4079445049c54c5",
        "cecd14b00f768bff65547f6d4160d865b9639967c839b700e75f5bb93108b457",
    ),
    "130-shed": (
        "a34ac53c4633d8c5ff94aad18ce2a7852e4a86692d8f34c451cd9feaaa37106c",
        "85c2d854908efc66577cf49d6d07979f8c516070287414b6367e5693f3f12c49",
    ),
}

#: The same streams with every event's time zeroed: what a change that moves
#: only modelled bytes (and so transfer times) must leave alone.  The faulted
#: runs of seeds 259 and 263 moved with the epoch-aware log table (above).
_SEQUENCES = {
    "5": (
        "1579c4a4a35ef7bfb757a835f9e69e66e943dd1f64ab50ed5fccade91cf2ae97",
        "48ab51b1cdfe94c630302b67e247c8243ff682b503a19774941c0b0a06a39d84",
    ),
    "259": (
        "a1c7bfde4f7239c11bc071725620ecc8d639630bfd821baa1685d8cf2c77c442",
        "9ebaa3a8437f4485e9e6a02bb448e8a60e95108b008167872cf2bbe81c4e01c4",
    ),
    "263": (
        "80166f8ece196a6d7971dd5c79b8abe7097ae1ee503528437ec51cab5e2a5712",
        "c7eab4f5e461653be5399b5ffac58fc07c4f929a2636f02808717082e2e1d8f2",
    ),
    "345": (
        "84020dd685ec8532b58d423355322962633307b8d02740d0b88c5398f3912ef9",
        "68a6f1a2cd8219a9491a11d432548ccab17e62f82496f6c345982f0c34792d14",
    ),
    "812": (
        "14237884d37bde1d6226278fa1c79b425f65a914871566f364173adbb2714e2f",
        "57c4de990f67dbb84bc2232000837f03ecd524c6662c1d3fd37524540cfc431a",
    ),
    "130-shed": (
        "18bdfc07f0f95a11591e06df0f057415012b790a349a53f7914e5adf882a0837",
        "3933bcaeb2319385e45af1d2f8565d087078f4520fd6e74838c8f49a804d88a3",
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


@pytest.mark.parametrize("case", sorted(_SEQUENCES))
def test_event_sequence_did_not_move(streams, case):
    digests = tuple(
        hashlib.sha256(
            repr([str(replace(event, time=0.0)) for event in events]).encode()
        ).hexdigest()
        for events in streams[case]
    )
    assert digests == _SEQUENCES[case]


def test_the_pinned_cases_emit_every_traced_action(streams):
    emitted = {
        event.action for per_case in streams.values() for events in per_case for event in events
    }
    assert emitted == _ACTIONS
