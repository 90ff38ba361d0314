"""Closed-loop block runner, correctness oracle and metric aggregation.

A *block* is one independent repetition of a workload: build the web,
construct the engine(s), run the warm-up pass and one discarded query per
client, then time ``count`` queries in a closed loop — a client
submits its next query when the previous one reaches a terminal status.
Set-up is repeated per block so ``setup_s`` is a median over several
set-ups and blocks are identically distributed (a long-lived engine's log
table, handle list and open sockets grow with every query it has served).
"""

from __future__ import annotations

import asyncio
import gc
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import spans
from repro import EngineConfig, QueryStatus, build_engine
from repro.baselines.datashipping import DataShippingEngine
from repro.model.database import DatabaseConstructor
from workloads import QueryPlan, Workload

__all__ = ["E2E_METRICS", "run_workload"]

#: Terminal-status deadline for one query on the real transport.
QUERY_TIMEOUT_S = 30.0

#: End-to-end metric → (unit, how a run's per-block values become its
#: value).  The host this runs on switches between speeds up to 1.5x apart
#: for seconds to minutes at a time (README, "Noise"), and interference
#: only ever adds time: the least disturbed block is the steadiest
#: estimate, so latencies take the best (minimum) block.  Counts and
#: set-up take the median.
E2E_METRICS = {
    "query_ms_p50": ("ms", min),
    "first_row_ms_p50": ("ms", min),
    "net_bytes_per_query": ("bytes", statistics.median),
    "peak_rss_mb": ("MiB", statistics.median),
    "setup_s": ("s", statistics.median),
}


class _Sample:
    """One submitted query: timestamps from the streaming hooks, then rows."""

    __slots__ = ("text", "timed", "handle", "submitted", "first_row", "done", "ok", "rows", "waiter")

    def __init__(self, text: str, timed: bool) -> None:
        self.text = text
        self.timed = timed
        self.handle = None
        self.submitted = 0.0
        self.first_row: float | None = None
        self.done: float | None = None
        self.ok = False
        self.rows: frozenset = frozenset()
        self.waiter: asyncio.Future | None = None

    def on_result(self, label, row, now) -> None:
        self.first_row = perf_counter()
        if self.handle is not None:
            self.handle.on_result = None  # only the first row is timed

    def on_complete(self, handle) -> None:
        self.done = perf_counter()
        if self.waiter is not None and not self.waiter.done():
            self.waiter.set_result(None)

    def submit(self, engine, recorder: spans.Recorder | None, serial: int) -> None:
        if recorder is not None:
            recorder.current = serial
            recorder.active = True
        self.submitted = perf_counter()
        self.handle = engine.submit_disql(self.text, self.on_result, self.on_complete)
        if recorder is not None:
            recorder.serials[self.handle.qid] = serial

    def settle(self, interned: dict) -> None:
        """Read status and the distinct row set, then let the handle go."""
        handle = self.handle
        self.ok = self.done is not None and handle.status is QueryStatus.COMPLETE
        rows = frozenset(
            (label, row.header, row.values) for label, row, __ in handle.results
        )
        self.rows = interned.setdefault(rows, rows)
        self.handle = None


@dataclass
class _Block:
    setup_s: float = 0.0
    #: Wall time of the timed loop with at least one query in flight.
    busy_s: float = 0.0
    samples: list[_Sample] = field(default_factory=list)
    #: Engine counters accrued during the timed loop (spans.read_counters).
    harvested: Counter = field(default_factory=Counter)


class _BlockRunner:
    """Runs the blocks of one workload run; keeps what outlives a block."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.config = EngineConfig(transport=workload.transport, **workload.config)
        self.plan: QueryPlan = workload.plan(seed)
        #: Distinct row sets seen, so equal answers share one object.
        self.interned: dict = {}
        self._serial = 0

    def run(self, index: int, count: int, recorder: spans.Recorder | None) -> _Block:
        workload = self.workload
        rng = random.Random(f"e2e:{workload.name}:{self.seed}:{index}")
        queries = self.plan.schedule(rng, count)
        clients = [
            [_Sample(text, timed=True) for text in queries[i :: workload.tenants]]
            for i in range(workload.tenants)
        ]
        # The first query of a block is discarded: one untimed query per
        # client runs before the timed loop (and before its counters).
        leads = [_Sample(lane[0].text, timed=False) for lane in clients]
        block = _Block()
        gc.unfreeze()
        gc.collect()
        started = perf_counter()
        web = workload.build_web(self.seed)
        web.total_bytes()  # pages render lazily; serving them is set-up
        block.setup_s = perf_counter() - started
        if workload.transport == "asyncio":
            asyncio.run(self._run_aio(block, web, leads, clients, recorder))
        elif workload.engine_per_query:
            self._run_cold(block, web, leads + clients[0], recorder)
        else:
            self._run_warm(block, web, leads, clients[0], recorder)
        block.samples = leads + [sample for client in clients for sample in client]
        return block

    # -- sim transport, one client -------------------------------------------------

    def _one_sim(self, engine, sample: _Sample, recorder) -> float:
        """Submit, drive to quiescence, settle; returns busy seconds."""
        self._serial += 1
        sample.submit(engine, recorder, self._serial)
        engine.run()
        busy = perf_counter() - sample.submitted
        if recorder is not None:
            recorder.active = False
        sample.settle(self.interned)
        return busy

    def _run_warm(self, block: _Block, web, leads, samples, recorder) -> None:
        started = perf_counter()
        engine = build_engine(web, config=self.config)
        for text in self.plan.warmup:
            sample = _Sample(text, timed=False)
            self._one_sim(engine, sample, None)
            _must_complete(sample)
        block.setup_s += perf_counter() - started
        gc.collect()
        gc.freeze()
        for sample in leads:
            self._one_sim(engine, sample, None)
        warm = spans.read_counters(engine)
        for sample in samples:
            block.busy_s += self._one_sim(engine, sample, recorder)
        spans.harvest_counters(engine, block.harvested, warm)

    def _run_cold(self, block: _Block, web, samples, recorder) -> None:
        gc.collect()
        gc.freeze()
        for sample in samples:
            started = perf_counter()
            engine = build_engine(web, config=self.config)
            block.setup_s += perf_counter() - started
            # The previous query's servers are garbage made by the
            # benchmark, not by the engine: collect it outside the timing.
            gc.collect()
            if sample.timed:
                block.busy_s += self._one_sim(engine, sample, recorder)
                spans.harvest_counters(engine, block.harvested)
            else:
                self._one_sim(engine, sample, None)

    # -- real sockets, concurrent tenants ------------------------------------------

    async def _run_aio(self, block: _Block, web, leads, clients, recorder) -> None:
        loop = asyncio.get_running_loop()
        started = perf_counter()
        engine = build_engine(web, config=self.config)
        try:
            await asyncio.sleep(0)  # accept loops attach; sockets already bound
            for text in self.plan.warmup:
                sample = _Sample(text, timed=False)
                await self._one_aio(loop, engine, sample, None)
                _must_complete(sample)
            block.setup_s += perf_counter() - started
            gc.collect()
            gc.freeze()
            for sample in leads:
                await self._one_aio(loop, engine, sample, None)
            warm = spans.read_counters(engine)

            async def tenant(samples) -> None:
                for sample in samples:
                    await self._one_aio(loop, engine, sample, recorder)

            loop_started = perf_counter()
            await asyncio.gather(*(tenant(samples) for samples in clients))
            block.busy_s = perf_counter() - loop_started
            if recorder is not None:
                recorder.active = False
            spans.harvest_counters(engine, block.harvested, warm)
        finally:
            await engine.aclose()

    async def _one_aio(self, loop, engine, sample: _Sample, recorder) -> None:
        # Completion is taken from on_complete, never from
        # AsyncioWebDisEngine.run(), which polls every 20 ms.
        self._serial += 1
        sample.waiter = loop.create_future()
        sample.submit(engine, recorder, self._serial)
        try:
            await asyncio.wait_for(sample.waiter, QUERY_TIMEOUT_S)
        except asyncio.TimeoutError:
            engine.cancel(sample.handle)  # counts as failed: done stays None
        sample.waiter = None
        sample.settle(self.interned)


def _must_complete(sample: _Sample) -> None:
    if not sample.ok:
        raise RuntimeError(f"warm-up query did not complete: {sample.text}")


# --- the oracle --------------------------------------------------------------------


def reference_rows(web, texts) -> dict[str, frozenset]:
    """Distinct rows of each query from a centralized interpreter run.

    ``DataShippingEngine`` downloads documents to one site and, under
    ``compiled_plans=False``, evaluates with the tree-walking interpreter:
    no compiled or columnar executor, no memo, no clone protocol.  The
    engines (one per query by design) share one caching constructor, so a
    page is parsed once for the whole pass.
    """
    constructor = DatabaseConstructor(cache_size=web.page_count())
    config = EngineConfig(compiled_plans=False)
    rows = {}
    for text in texts:
        engine = DataShippingEngine(web, config=config)
        engine.constructor = constructor
        result = engine.run_query(text)
        if result.completion_time is None:
            raise RuntimeError(f"reference run did not complete: {text}")
        rows[text] = frozenset(
            (label, row.header, row.values) for label, row, __ in result.results
        )
    return rows


# --- aggregation -------------------------------------------------------------------


def _in_flight_seconds(samples) -> float:
    """Length of the union of the samples' submit→done intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s.submitted, s.done) for s in samples):
        if start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _block_statistics(block: _Block) -> dict[str, float]:
    """One block's value of every per-block end-to-end metric.

    Failed queries have no latency; they lower ``queries_per_s`` and are
    reported through the run's failed count.
    """
    timed = [s for s in block.samples if s.timed]
    good = [s for s in timed if s.ok]
    latencies_ms = [(s.done - s.submitted) * 1e3 for s in good]
    first_ms = [(s.first_row - s.submitted) * 1e3 for s in good if s.first_row is not None]
    return {
        "query_ms_p50": statistics.median(latencies_ms),
        "query_ms_p90": statistics.quantiles(latencies_ms, n=10)[-1],
        "first_row_ms_p50": statistics.median(first_ms),
        "queries_per_s": len(good) / _in_flight_seconds(good),
        "net_bytes_per_query": block.harvested["net.bytes"] / len(timed),
        "setup_s": block.setup_s,
    }


def run_workload(workload: Workload, seed: int, blocks: int, count: int, trace: bool) -> dict:
    """Run ``blocks`` untraced blocks (+ one traced), verify, aggregate."""
    runner = _BlockRunner(workload, seed)
    untraced = [runner.run(index, count, None) for index in range(blocks)]
    # Before the traced block and the oracle, so neither the span store nor
    # the checker's databases count as the program's memory.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    recorder = spans.Recorder()
    if trace:
        with spans.installed(recorder):
            traced = runner.run(blocks, count, recorder)

    started = perf_counter()
    all_blocks = untraced + ([traced] if traced is not None else [])
    samples = [sample for block in all_blocks for sample in block.samples]
    reference = reference_rows(
        workload.build_web(seed), sorted({sample.text for sample in samples})
    )
    for sample in samples:
        sample.ok = sample.ok and sample.rows == reference[sample.text]
    verify_s = perf_counter() - started
    failed = sum(1 for sample in samples if not sample.ok)

    per_block = [_block_statistics(block) for block in untraced]
    e2e = {}
    for name, (unit, aggregate) in E2E_METRICS.items():
        values = [peak_rss_mb] if name == "peak_rss_mb" else [stats[name] for stats in per_block]
        e2e[name] = {"value": aggregate(values), "unit": unit, "per_block": values}

    result = {
        "workload": workload.name,
        "seed": seed,
        "blocks": blocks,
        "block_queries": count,
        "tenants": workload.tenants,
        "transport": workload.transport,
        "attempted": len(samples),
        "failed": failed,
        "verify_s": verify_s,
        "e2e": e2e,
        "layers": None,
        "self_check": [],
    }
    if traced is not None:
        # Against the untraced block that ran just before it: the host's
        # speed drifts over seconds, so the neighbour is the fairest twin.
        values = spans.layer_metrics(
            recorder, traced.harvested, traced.busy_s, untraced[-1].busy_s
        )
        # Demoted from the end-to-end table (their spreads do not fit a
        # bound: a tail or a mean needs a block with no disturbance at all,
        # a median only one that is half clean): printed, not gated.
        values["bench.query_ms_p90"] = min(stats["query_ms_p90"] for stats in per_block)
        values["bench.queries_per_s"] = max(stats["queries_per_s"] for stats in per_block)
        result["layers"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit in spans.LAYER_METRICS.items()
        }
        result["traced_busy_s"] = traced.busy_s
        result["self_check"] = spans.self_check(recorder, workload.silent, traced.busy_s)
    result["correct"] = failed == 0 and not result["self_check"]
    return result
