"""Tracing from outside: spans around the public calls into each layer.

Nothing under ``src/`` knows about this file.  A traced block rebinds the
callables listed in :data:`HOOKS` (and the ``Transport.listen`` /
``Transport.send`` / ``Clock.schedule`` seam) to wrappers that record one
span per call into a :class:`Recorder`; :func:`installed` restores every
original on exit.  A span is ``(key, start, end, parent, query, self_s)``
where ``key`` is ``"<layer>.<name>"`` (layer = module under ``src/repro``),
``parent`` indexes the enclosing span (-1 for a root) and ``self_s`` is
the span's duration minus the part its child spans cover.

End-to-end metrics never come from a traced block: the wrappers cost a
few hundred nanoseconds per call, which :func:`layer_metrics` reports as
``bench.trace_overhead_pct``.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

from repro.net.network import FIRST_RESULT_PORT, QUERY_PORT, SendOutcome

__all__ = [
    "HOOKS",
    "LAYER_METRICS",
    "Recorder",
    "SPAN_KEYS",
    "harvest_counters",
    "installed",
    "layer_metrics",
    "read_counters",
    "self_check",
]


class Recorder:
    """In-memory span store plus the counters taken at the same boundaries.

    ``active`` gates recording: hooks stay installed while a block sets up
    (server listeners are wrapped when they register, which is during
    engine construction) but only calls made while a timed query is in
    flight become spans.
    """

    def __init__(self) -> None:
        self.active = False
        #: ``(key, start, end, parent, query, self_s)`` in start order.
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        #: Serial of the query being submitted (root spans without a
        #: payload belong to it).
        self.current: int | None = None
        #: Engine ``QueryId`` → benchmark query serial, for spans that are
        #: entered with a payload (listeners, sends) while several tenants
        #: are in flight.
        self.serials: dict = {}
        # Open frames: [span index, child seconds, layer, query serial].
        self._stack: list[list] = []

    # -- wrappers -----------------------------------------------------------

    def wrap(
        self,
        key: str,
        fn: Callable,
        tally: Callable | None = None,
        query_of: Callable | None = None,
        query: int | None = None,
    ) -> Callable:
        """``fn`` with a span around each call made while recording.

        ``tally(counts, args, result)`` updates counters at the boundary;
        ``query_of(args)`` resolves the span's query from its arguments and
        ``query`` pins it (callbacks inherit their creator's).
        """
        spans, stack = self.spans, self._stack
        layer = key.rpartition(".")[0]

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            serial = query
            if serial is None and query_of is not None:
                serial = query_of(args)
            if serial is None:
                serial = parent[3] if parent is not None else self.current
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, layer, serial]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                spans[index] = (
                    key, start, end,
                    parent[0] if parent is not None else -1,
                    serial, duration - frame[1],
                )
            if tally is not None:
                tally(self.counts, args, result)
            return result

        return wrapper

    def count_only(self, fn: Callable, tally: Callable) -> Callable:
        """``fn`` with a counter update per call and no span."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                tally(self.counts, args, result)
            return result

        return wrapper

    def callback(self, fn: Callable, tally: Callable | None = None) -> Callable:
        """A deferred callback, charged to the layer and query creating it."""
        if not self.active:
            return fn
        if self._stack:
            layer, serial = self._stack[-1][2], self._stack[-1][3]
        else:
            layer, serial = "bench", self.current
        return self.wrap(f"{layer}.callback", fn, tally=tally, query=serial)

    def wrap_coroutine(self, key: str, fn: Callable, payload_at: int | None = None) -> Callable:
        """Coroutine function ``fn`` with a span around each resumption.

        A coroutine's wall time is mostly waiting; what it costs the
        single-threaded loop is the time it *runs* between suspensions, so
        each ``send``/``throw`` step is one span (children: whatever hooked
        calls that step makes).  ``payload_at`` is the argument index of
        the message the coroutine carries, for the span's query.
        """
        resume = self.wrap(
            key, lambda coro, value, serial: coro.send(value), query_of=lambda args: args[2]
        )
        throw = self.wrap(
            key, lambda coro, exc, serial: coro.throw(exc), query_of=lambda args: args[2]
        )

        async def wrapper(*args, **kwargs):
            serial = None if payload_at is None else self._serial_of(args[payload_at])
            return await _Steps(fn(*args, **kwargs), resume, throw, serial)

        return wrapper

    def _serial_of(self, payload: object) -> int | None:
        qid = getattr(payload, "qid", None)  # ResultMessage
        if qid is None:
            query = getattr(payload, "query", None)  # QueryClone
            if query is None:
                clones = getattr(payload, "clones", None)  # CloneBundle
                if not clones:
                    return None
                query = clones[0].query
            qid = query.qid
        return self.serials.get(qid)

    # -- summaries ----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """``(self seconds, span count)`` per span key."""
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for key, __, ___, ____, _____, own in self.spans:
            self_s[key] += own
            calls[key] += 1
        return self_s, calls


class _Steps:
    """Awaitable that drives a coroutine one resumption at a time."""

    __slots__ = ("_coro", "_resume", "_throw", "_serial")

    def __init__(self, coro, resume: Callable, throw: Callable, serial: int | None) -> None:
        self._coro, self._resume, self._throw, self._serial = coro, resume, throw, serial

    def __await__(self):
        coro, serial = self._coro, self._serial
        try:
            yielded = self._resume(coro, None, serial)
            while True:
                try:
                    value = yield yielded
                except BaseException as exc:  # cancellation reaches the inner coroutine
                    yielded = self._throw(coro, exc, serial)
                else:
                    yielded = self._resume(coro, value, serial)
        except StopIteration as stop:
            return stop.value


# --- the hook table ------------------------------------------------------------


def _tally_parse(counts, args, result) -> None:
    counts["html.parse_bytes"] += len(args[0])


def _tally_rows(counts, args, result) -> None:
    counts["relational.rows_out"] += len(result)


def _tally_tuples(counts, args, result) -> None:
    counts["model.tuples_built"] += result.tuple_count()


def _tally_parse_url(counts, args, result) -> None:
    counts["urlutils.parse_url_calls"] += 1


def _tally_frame(counts, args, result) -> None:
    counts["wire.frames"] += 1


@dataclass(frozen=True)
class Hook:
    """One public callable to span.

    ``owner`` is ``"module"`` for a function (rebound in its defining
    module *and* in every loaded ``repro.*`` namespace that imported it by
    name, e.g. ``parse_html`` in ``repro.model.database``) or
    ``"module:Class"`` for a method (rebound on the class).  ``key`` is
    the span key; ``None`` makes the hook count-only.
    """

    key: str | None
    owner: str
    attr: str
    tally: Callable | None = None


HOOKS: tuple[Hook, ...] = (
    Hook("disql.compile", "repro.disql.translate", "compile_disql"),
    Hook("html.parse", "repro.html.parser", "parse_html", _tally_parse),
    # construct() minus the parse_html nested in it is the relation build.
    Hook("model.build", "repro.model.database:DatabaseConstructor", "construct"),
    Hook(None, "repro.model.database", "build_node_database", _tally_tuples),
    Hook(None, "repro.urlutils", "parse_url", _tally_parse_url),
    Hook("relational.compile", "repro.relational.compile", "compile_node_query"),
    Hook("relational.exec", "repro.relational.compile:CompiledPlan", "execute_columnar", _tally_rows),
    Hook("relational.exec", "repro.relational.compile:CompiledPlan", "execute", _tally_rows),
    Hook("relational.exec", "repro.relational.query", "evaluate_node_query", _tally_rows),
    Hook("core.plancache.lookup", "repro.core.plancache:PlanCache", "plan_for"),
    Hook("core.resultmemo.probe", "repro.core.resultmemo:ResultMemo", "rows_for"),
    Hook("core.resultmemo.probe", "repro.core.resultmemo:ResultMemo", "fanout_for"),
    Hook("core.resultmemo.store", "repro.core.resultmemo:ResultMemo", "store_rows"),
    Hook("core.resultmemo.store", "repro.core.resultmemo:ResultMemo", "store_fanout"),
    Hook("core.logtable.observe", "repro.core.logtable:NodeQueryLogTable", "observe_bulk"),
    Hook("core.logtable.observe", "repro.core.logtable:NodeQueryLogTable", "observe"),
    Hook("core.processing.node", "repro.core.processing", "process_node"),
    Hook("core.client.submit", "repro.core.client:UserSiteClient", "submit"),
    Hook("wire.encode", "repro.wire", "encode_envelope"),
    Hook("wire.encode", "repro.wire", "encode_message"),
    Hook("wire.encode", "repro.wire", "encode_frame", _tally_frame),
    Hook("wire.decode", "repro.wire", "decode_envelope"),
    Hook("wire.decode", "repro.wire", "decode_message"),
    Hook("wire.decode", "repro.wire:FrameDecoder", "feed"),
)

#: ``AsyncioTransport.send`` only spawns a task; what the transfer costs
#: the loop — framing, the write, the ack wait's bookkeeping — runs in
#: these two private coroutines, so they are the one place the table
#: reaches below the public surface: ``(key, owner, attr, payload index)``.
_COROUTINES = (
    ("net.transfer", "repro.net.aio:AsyncioTransport", "_send_task", 4),
    ("net.serve", "repro.net.aio:AsyncioTransport", "_serve_connection", None),
)

#: The transports and clocks whose ``listen`` / ``send`` / ``schedule``
#: methods form the seam for server, client and net time.
_TRANSPORTS = ("repro.net.network:Network", "repro.net.aio:AsyncioTransport")
_CLOCKS = (
    ("repro.net.simclock:SimClock", ("schedule",)),
    ("repro.net.aio:LoopClock", ("schedule", "schedule_at")),
)

#: Every span key a traced block can record.  ``*.callback`` keys are the
#: deferred callbacks (send outcomes, scheduled events) a layer creates.
SPAN_KEYS: tuple[str, ...] = tuple(dict.fromkeys(h.key for h in HOOKS if h.key)) + (
    "core.server.handle",
    "core.server.callback",
    "core.client.receive",
    "core.client.callback",
    "net.send",
    "net.callback",
    "net.transfer",
    "net.serve",
)


def _resolve(owner: str) -> object:
    module_name, __, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _namespaces_binding(original: object, attr: str) -> list[object]:
    """Every loaded ``repro`` module whose global ``attr`` is ``original``."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
        and vars(module).get(attr) is original
    ]


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Rebind every hook to a recording wrapper; restore all on exit.

    Strict on purpose: a table entry that no longer resolves raises here,
    so a refactor that moves a hooked callable fails the traced block
    instead of silently reporting 0 s.
    """
    undo: list[tuple[object, str, object]] = []

    def rebind(target: object, attr: str, replacement: object) -> None:
        undo.append((target, attr, vars(target)[attr]))
        setattr(target, attr, replacement)

    try:
        # Import the seam's modules first so the namespace scan below also
        # sees the names they bound at import (repro.net.aio binds the wire
        # codec) even when the workload never loaded them.
        transports = [_resolve(owner) for owner in _TRANSPORTS]
        clocks = [(_resolve(owner), methods) for owner, methods in _CLOCKS]
        for hook in HOOKS:
            target = _resolve(hook.owner)
            original = vars(target)[hook.attr]
            if hook.key is None:
                assert hook.tally is not None
                wrapper = recorder.count_only(original, hook.tally)
            else:
                wrapper = recorder.wrap(hook.key, original, hook.tally)
            if ":" in hook.owner:
                rebind(target, hook.attr, wrapper)
            else:
                for namespace in _namespaces_binding(original, hook.attr):
                    rebind(namespace, hook.attr, wrapper)
        for key, owner, attr, payload_at in _COROUTINES:
            cls = _resolve(owner)
            rebind(cls, attr, recorder.wrap_coroutine(key, vars(cls)[attr], payload_at))
        for cls in transports:
            rebind(cls, "listen", _listen_seam(recorder, vars(cls)["listen"]))
            rebind(cls, "send", _send_seam(recorder, vars(cls)["send"]))
        for cls, methods in clocks:
            for method in methods:
                rebind(cls, method, _schedule_seam(recorder, vars(cls)[method]))
        yield recorder
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def _tally_clones_in(counts, args, result) -> None:
    clones = getattr(args[1], "clones", None)
    counts["core.server.clones_in"] += len(clones) if clones is not None else 1


def _tally_reports_in(counts, args, result) -> None:
    counts["core.client.reports_in"] += len(args[1].reports)
    counts["core.client.rows_in"] += args[1].result_count()


def _listen_seam(recorder: Recorder, original: Callable) -> Callable:
    """Handlers registered on ``QUERY_PORT`` are server time; handlers on a
    per-query result port are client time."""

    def payload_query(args):
        return recorder._serial_of(args[1])

    def listen(self, site, port, listener):
        if port == QUERY_PORT:
            listener = recorder.wrap(
                "core.server.handle", listener, _tally_clones_in, payload_query
            )
        elif port >= FIRST_RESULT_PORT:
            listener = recorder.wrap(
                "core.client.receive", listener, _tally_reports_in, payload_query
            )
        return original(self, site, port, listener)

    return listen


def _send_seam(recorder: Recorder, original: Callable) -> Callable:
    def tally_outcome(counts, args, result) -> None:
        if args[0] is not SendOutcome.DELIVERED:
            counts["net.undelivered"] += 1

    def payload_query(args):
        return recorder._serial_of(args[4])

    send = recorder.wrap("net.send", original, query_of=payload_query)

    def traced_send(self, src, dst, port, payload, *, on_outcome=None):
        if not recorder.active:
            return original(self, src, dst, port, payload, on_outcome=on_outcome)

        def settled(outcome):
            if on_outcome is not None:
                on_outcome(outcome)

        # The outcome callback runs the *sender's* continuation (Figure 3's
        # forward-after-dispatch), so it is charged to the calling layer.
        return send(
            self, src, dst, port, payload,
            on_outcome=recorder.callback(settled, tally_outcome),
        )

    return traced_send


def _schedule_seam(recorder: Recorder, original: Callable) -> Callable:
    def tally_event(counts, args, result) -> None:
        counts["net.clock_events"] += 1

    def schedule(self, when, callback):
        return original(self, when, recorder.callback(callback, tally_event))

    return schedule


# --- counters from public introspection ----------------------------------------

#: Gauges take the maximum over a block's engines; everything else adds.
_GAUGES = frozenset(
    {"core.resultmemo.bytes_est", "core.logtable.entries", "core.server.peak_queue_depth"}
)


def read_counters(engine) -> dict[str, float]:
    """One engine's ``TrafficStats`` and per-server counters, as of now."""
    stats = engine.stats
    servers = list(engine.servers.values())
    tables = [server.log_table for server in servers]
    return {
        "model.builds": stats.db_cache_misses,
        "model.parse_cache_hits": stats.parse_cache_hits,
        "model.db_cache_hits": stats.db_cache_hits,
        "relational.index_builds": stats.index_builds,
        "relational.index_hits": stats.index_hits,
        "plan_hits": sum(server.plans.hits for server in servers),
        "plan_misses": sum(server.plans.misses for server in servers),
        "memo_hits": stats.memo_hits,
        "memo_misses": stats.memo_misses,
        "core.resultmemo.bytes_est": stats.memo_bytes_est,
        "log_drops": sum(table.drops for table in tables),
        "core.logtable.rewrites": sum(table.rewrites for table in tables),
        "log_inserts": sum(table.inserts for table in tables),
        "core.logtable.entries": engine.total_log_entries(),
        "core.processing.frontier_batches": stats.frontier_batches,
        "core.processing.local_hops": stats.local_hops,
        "core.server.clones_forwarded": stats.clones_forwarded,
        "core.server.peak_queue_depth": max(
            (server.peak_query_queue_depth for server in servers), default=0
        ),
        "core.server.modelled_service_s": sum(stats.processing_by_site.values()),
        "core.client.duplicate_rows_dropped": stats.duplicate_rows_dropped,
        "net.messages": stats.messages_sent,
        "net.bytes": stats.bytes_sent,
        "net.clone_bundles": stats.clone_bundles_sent,
    }


def harvest_counters(engine, into: Counter, baseline: dict | None = None) -> None:
    """Fold a retiring engine's counters into ``into``.

    Additive counters add what accrued since ``baseline`` (a
    :func:`read_counters` taken after the warm-up pass; None = since
    construction); gauges keep their maximum over the block's engines.
    """
    for name, value in read_counters(engine).items():
        if name in _GAUGES:
            into[name] = max(into[name], value)
        else:
            into[name] += value - (baseline[name] if baseline else 0)


# --- the per-layer metric table ------------------------------------------------

#: ``name → unit``, in report order.  BENCHMARK.json's ``per_layer`` lists
#: exactly these names.
LAYER_METRICS: dict[str, str] = {
    "disql.compile_s": "s",
    "disql.compiles": "count",
    "html.parse_s": "s",
    "html.parse_calls": "count",
    "html.parse_bytes": "bytes",
    "model.build_s": "s",
    "model.builds": "count",
    "model.parse_cache_hits": "count",
    "model.db_cache_hits": "count",
    "model.tuples_built": "count",
    "urlutils.parse_url_calls": "count",
    "relational.compile_s": "s",
    "relational.exec_s": "s",
    "relational.exec_calls": "count",
    "relational.rows_out": "count",
    "relational.index_builds": "count",
    "relational.index_hits": "count",
    "core.plancache.lookup_s": "s",
    "core.plancache.hit_ratio": "ratio",
    "core.resultmemo.probe_s": "s",
    "core.resultmemo.hit_ratio": "ratio",
    "core.resultmemo.stores": "count",
    "core.resultmemo.bytes_est": "bytes",
    "core.logtable.observe_s": "s",
    "core.logtable.observed": "count",
    "core.logtable.drop_ratio": "ratio",
    "core.logtable.rewrites": "count",
    "core.logtable.entries": "count",
    "core.processing.node_s": "s",
    "core.processing.nodes": "count",
    "core.processing.frontier_batches": "count",
    "core.processing.local_hops": "count",
    "core.server.handle_s": "s",
    "core.server.clones_in": "count",
    "core.server.clones_forwarded": "count",
    "core.server.peak_queue_depth": "count",
    "core.server.modelled_service_s": "s",
    "core.client.submit_s": "s",
    "core.client.receive_s": "s",
    "core.client.reports_in": "count",
    "core.client.rows_in": "count",
    "core.client.duplicate_rows_dropped": "count",
    "net.send_s": "s",
    "net.messages": "count",
    "net.bytes": "bytes",
    "net.clone_bundles": "count",
    "net.undelivered": "count",
    "net.clock_events": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.frames": "count",
    "bench.query_ms_p90": "ms",
    "bench.queries_per_s": "1/s",
    "bench.trace_overhead_pct": "%",
    "bench.unattributed_s": "s",
}

#: Timed metric → the span keys whose self time it sums.
_TIMED: dict[str, tuple[str, ...]] = {
    "disql.compile_s": ("disql.compile",),
    "html.parse_s": ("html.parse",),
    "model.build_s": ("model.build",),
    "relational.compile_s": ("relational.compile",),
    "relational.exec_s": ("relational.exec",),
    "core.plancache.lookup_s": ("core.plancache.lookup",),
    "core.resultmemo.probe_s": ("core.resultmemo.probe", "core.resultmemo.store"),
    "core.logtable.observe_s": ("core.logtable.observe",),
    "core.processing.node_s": ("core.processing.node",),
    "core.server.handle_s": ("core.server.handle", "core.server.callback"),
    "core.client.submit_s": ("core.client.submit",),
    "core.client.receive_s": ("core.client.receive", "core.client.callback"),
    "net.send_s": ("net.send", "net.callback", "net.transfer", "net.serve"),
    "wire.encode_s": ("wire.encode",),
    "wire.decode_s": ("wire.decode",),
}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(
    recorder: Recorder, harvested: Counter, busy_s: float, untraced_busy_s: float
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced block.

    ``busy_s`` is the traced block's wall time with a query in flight and
    ``untraced_busy_s`` the same quantity for an untraced block of the same
    queries, which gives the tracing overhead.
    """
    self_s, calls = recorder.totals()
    counts = recorder.counts
    values: dict[str, float] = {
        name: sum(self_s[key] for key in keys) for name, keys in _TIMED.items()
    }
    values.update(
        {
            "disql.compiles": calls["disql.compile"],
            "html.parse_calls": calls["html.parse"],
            "relational.exec_calls": calls["relational.exec"],
            "core.resultmemo.stores": calls["core.resultmemo.store"],
            "core.processing.nodes": calls["core.processing.node"],
            "core.plancache.hit_ratio": _ratio(
                harvested["plan_hits"], harvested["plan_hits"] + harvested["plan_misses"]
            ),
            "core.resultmemo.hit_ratio": _ratio(
                harvested["memo_hits"], harvested["memo_hits"] + harvested["memo_misses"]
            ),
        }
    )
    observed = harvested["log_drops"] + harvested["core.logtable.rewrites"] + harvested["log_inserts"]
    values["core.logtable.observed"] = observed
    values["core.logtable.drop_ratio"] = _ratio(harvested["log_drops"], observed)
    for name in LAYER_METRICS:
        if name not in values:
            values[name] = counts[name] if name in counts else harvested[name]
    values["bench.trace_overhead_pct"] = (
        100.0 * (busy_s / untraced_busy_s - 1.0) if untraced_busy_s else 0.0
    )
    # Event loop, GC and glue: in-flight wall no span accounts for.  Spans
    # of the bench's own callbacks (none today) would not count as layers.
    values["bench.unattributed_s"] = busy_s - sum(
        own for key, own in self_s.items() if not key.startswith("bench.")
    )
    return values


def self_check(recorder: Recorder, silent: frozenset[str], busy_s: float) -> list[str]:
    """Problems with one traced block's spans (empty = green).

    Every span key must have fired unless the workload lists it in
    ``silent``, in which case it must not have fired at all; and the self
    times must fit inside the block's wall time.
    """
    self_s, calls = recorder.totals()
    problems = []
    unknown = silent - set(SPAN_KEYS)
    if unknown:
        problems.append(f"workload silences unknown span keys {sorted(unknown)}")
    for key in SPAN_KEYS:
        if key in silent and calls[key]:
            problems.append(f"{key}: {calls[key]} span(s) on a workload that must bypass it")
        elif key not in silent and not calls[key]:
            problems.append(f"{key}: no span recorded on a workload that must exercise it")
    total = sum(self_s.values())
    if total > busy_s:
        problems.append(f"self times sum to {total:.4f}s > in-flight wall {busy_s:.4f}s")
    return problems
