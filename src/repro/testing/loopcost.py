"""What a piece of asyncio code costs the event loop, as counts.

On one thread every callback the loop runs — a task step, a socket becoming
readable, a done-callback, a timer — is one :class:`asyncio.Handle`, and the
number of them a message costs is a property of the code, not of the machine:
it repeats exactly.  ``tests/test_perf_hotpath.py`` pins the socket
transport's per-frame budget with it and ``tools/profile_hotpath.py
--workload wire`` prints it per query, by callback.
"""

from __future__ import annotations

import asyncio
import asyncio.events
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

__all__ = ["count_handles"]


@contextmanager
def count_handles() -> Iterator[Counter]:
    """Count every handle any event loop runs inside the block, by callback.

    A task step is labelled ``step:<coroutine's qualified name>``; anything
    else by its callback's qualified name (``_SelectorSocketTransport._read_ready``,
    ``set.discard``, ...).
    """
    counts: Counter = Counter()
    original = asyncio.events.Handle._run

    def counted_run(handle):
        callback = handle._callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, asyncio.Task):
            label = f"step:{owner.get_coro().__qualname__}"
        else:
            label = getattr(callback, "__qualname__", type(callback).__name__)
        counts[label] += 1
        return original(handle)

    asyncio.events.Handle._run = counted_run
    try:
        yield counts
    finally:
        asyncio.events.Handle._run = original
