#!/usr/bin/env python
"""Open-loop load on one warm engine: seeded Poisson arrivals of a query mix.

One engine over EXP-E1's 32×20 spot-check web runs a cold / warm / join mix
of DISQL queries arriving as a Poisson process in virtual time, so queries
overlap — every query submitted while an older one runs carries the
user-site's completion watermark explicitly::

    PYTHONPATH=src python tools/load.py                  # 2,400 queries
    PYTHONPATH=src python tools/load.py --gate           # exit 1 on growth
    PYTHONPATH=src python tools/load.py --mix 0,1,0      # warm repeats only
    PYTHONPATH=src python tools/load.py --smoke          # short run
    PYTHONPATH=src python tools/load.py --transport asyncio [--gate] [--smoke]

* ``warm`` — EXP-E1's ``warm_zipf`` pool (16 reach queries, zipf weights),
  run once before the load so its probes are memo hits;
* ``cold`` — a reach query from a random start site with a literal never
  seen before: every node evaluates again (a memo miss per visit);
* ``join`` — an anchor × relinfon join below a random start site, with a
  literal drawn from the web's emphasized text.

The mix (cold 1 : warm 2 : join 1), the offered rate (4 queries per
virtual second) and the 2% of queries cancelled are an arbitrary synthetic
choice, not measured traffic: enough overlap that queries run side by side,
with every way out of RUNNING represented.

It prints achieved queries per second and p50 / p99 latency, all in virtual
time, then one line per interval: queries finished, queries running,
``tracemalloc`` current, live log-table entries, memo entries, purge
records and plan-cache entries over all servers, then the rise of each
series' high-water mark per finished query over the second half of the run.
``--gate`` fails (exit 1) when the rise of the log entries, the purge
records, the running queries or the plan-cache entries exceeds
``GATE_PER_QUERY``: the per-query state the completion watermark bounds,
and the lowerings, one per node-query shape a server has seen, which the
mix's literals must not multiply.  Traced memory is reported, not gated: it
also holds the memo (flushed at 4096 entries per server), which a
2,400-query mix with cold literals is still filling.  The ``--gate`` run
needs the default length: a ``--smoke`` run is too short for the log
entries to level off.  A query that does not finish COMPLETE, other than
one cancelled on purpose, counts as failed; any failure exits 1.

``--transport asyncio`` runs the socket path instead: one
``AsyncioWebDisEngine`` on EXP-E1's ``wire_tenants`` web (6 sites over real
loopback TCP), its pool run once as a warm-up, then 400 of its queries
arriving as a Poisson process in wall time (40 per second).  Per interval it
prints the process's ``VmRSS``, open fds, the transport's links and tasks,
the port map's entries, the connections the transport has opened so far and
the codec's decoded-query entries.  The run ends with one query submitted
alone, whose watermark passes every earlier query; ``--gate`` fails (exit 1)
unless each count (``WIRE_GATED``) is then back at its value after the
warm-up — for the connections opened, that no query of the load opened one:
a per-query result port is a logical port on the user-site's one listener.
RSS is reported, not gated: it also moves with the allocator and the
interpreter.  Latencies are wall time.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.append(str(REPO_ROOT / "benchmarks" / "e2e"))  # workloads.py, read only

from repro import EngineConfig, QueryStatus, build_engine, wire  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: EXP-E1's ``warm_zipf``: the 32-site spot-check web and its zipf pool.
WARM = next(workload for workload in WORKLOADS if workload.name == "warm_zipf")
WARM_PLAN = WARM.plan(1)
SITES = 32
QUERIES, INTERVALS = 2400, 24
#: Offered queries per virtual second, and the share of queries cancelled
#: 0.02 virtual seconds after submission.
RATE, CANCEL_SHARE = 4.0, 0.02

#: Allowed rise of a series' high-water mark per finished query over the
#: second half of a run.
GATE_PER_QUERY = {
    "log_entries": 0.5,
    "purge_records": 0.05,
    "running": 0.01,
    "plan_entries": 0.01,
}
#: Series whose rise is reported: the gated ones, then traced memory.
REPORTED = (*GATE_PER_QUERY, "traced_kib")


def _reach(start: int, depth: int, literal: str) -> str:
    return (
        f'select d.url, d.title, a.href from document d such that '
        f'"http://site{start:03d}.example/" (L|G)*{depth} d, anchor a '
        f'where d.title contains "{literal}"'
    )


def _join(start: int, literal: str) -> str:
    return (
        f'select d.url, a.href, r.text from document d such that '
        f'"http://site{start:03d}.example/" (L|G)*2 d, anchor a, relinfon r '
        f'where r.text contains "{literal}" and a.href != a.base'
    )


def _draw(rng: random.Random, kind: str, serial: int) -> str:
    if kind == "warm":
        return rng.choices(WARM_PLAN.pool, WARM_PLAN.weights)[0]
    if kind == "cold":
        return _reach(rng.randrange(SITES), 2, f"never {serial}")
    return _join(rng.randrange(SITES), f"item {rng.randrange(SITES)}-")


def _high_water_growth(done: list[int], series: list[float]) -> float:
    """Rise of the series' running maximum per finished query, second half."""
    half = len(series) // 2
    if half == 0 or done[-1] <= done[half - 1]:
        return 0.0
    return (max(series) - max(series[:half])) / (done[-1] - done[half - 1])


def run_load(
    queries: int = QUERIES, mix: tuple[float, float, float] = (1, 2, 1), *,
    intervals: int = INTERVALS, seed: int = 1, rate: float = RATE,
    cancel_share: float = CANCEL_SHARE,
) -> dict:
    engine = build_engine(WARM.build_web(1))
    for text in WARM_PLAN.warmup:
        engine.submit_disql(text)
        engine.run()
    servers = list(engine.servers.values())
    clock = engine.clock
    rng = random.Random(f"load:{seed}")

    latencies: list[float] = []
    outcome = {"submitted": 0, "finished": 0, "failed": 0, "cancelled": 0}
    cancelled: set[int] = set()

    def on_terminal(handle) -> None:
        outcome["finished"] += 1
        if handle.qid.number in cancelled:
            outcome["cancelled"] += 1
            return
        if handle.status is not QueryStatus.COMPLETE:
            outcome["failed"] += 1
            return
        latencies.append(clock.now - handle.submit_time)

    engine.client.on_terminal = on_terminal

    def submit(text: str, cancel: bool) -> None:
        handle = engine.submit_disql(text)
        outcome["submitted"] += 1
        if cancel:
            cancelled.add(handle.qid.number)
            clock.schedule(0.02, lambda: handle.finished or engine.cancel(handle))

    start = clock.now
    arrival = start
    kinds = ("cold", "warm", "join")
    for serial in range(queries):
        arrival += rng.expovariate(rate)
        text = _draw(rng, rng.choices(kinds, mix)[0], serial)
        cancel = rng.random() < cancel_share
        clock.schedule_at(arrival, lambda text=text, cancel=cancel: submit(text, cancel))

    tracemalloc.start()
    wall = time.perf_counter()
    samples = []
    step = (arrival - start) / intervals
    for index in range(1, intervals + 1):
        engine.run(until=start + index * step)
        samples.append({
            "finished": outcome["finished"],
            "running": outcome["submitted"] - outcome["finished"],
            "traced_kib": round(tracemalloc.get_traced_memory()[0] / 1024, 1),
            "log_entries": engine.total_log_entries(),
            "memo_entries": sum(len(server.memo) for server in servers),
            "purge_records": sum(len(server._purged) for server in servers),
            "plan_entries": sum(len(server.plans) for server in servers),
        })
    engine.run()
    wall = time.perf_counter() - wall
    tracemalloc.stop()

    done = [sample["finished"] for sample in samples]
    growth = {
        name: round(_high_water_growth(done, [sample[name] for sample in samples]), 3)
        for name in REPORTED
    }
    ordered = sorted(latencies)
    return {
        "queries": queries,
        "offered_per_s": rate,
        "achieved_per_s": round(outcome["finished"] / (clock.now - start), 2),
        "wall_queries_per_s": round(outcome["finished"] / wall, 1),
        "p50_ms": round(statistics.median(ordered) * 1e3, 2) if ordered else None,
        "p99_ms": round(ordered[int(0.99 * (len(ordered) - 1))] * 1e3, 2) if ordered else None,
        **outcome,
        "intervals": samples,
        "high_water_growth_per_query": growth,
        "gate_failures": [
            name for name, limit in GATE_PER_QUERY.items() if growth[name] > limit
        ],
    }


# --- the socket path -------------------------------------------------------------

#: EXP-E1's ``wire_tenants``: 6 sites over loopback TCP and its 12-query pool.
WIRE = next(workload for workload in WORKLOADS if workload.name == "wire_tenants")
WIRE_PLAN = WIRE.plan(1)
WIRE_QUERIES, WIRE_INTERVALS = 400, 20
#: Offered queries per wall second.
WIRE_RATE = 40.0
#: What the gate compares between the quiet point after the warm-up and the
#: quiet point after the load: each must be back where it was.
WIRE_GATED = ("fds", "links", "tasks", "port_map", "connections_opened", "decoded_queries")


def _rss_mib() -> float | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return round(int(line.split()[1]) / 1024, 1)
    except OSError:
        pass
    return None


def _open_fds() -> int | None:
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None


def _wire_counts(transport) -> dict:
    return {
        "fds": _open_fds(),
        "links": len(transport._links),
        "tasks": len(transport._tasks),
        "port_map": len(transport.port_map._map),
        "connections_opened": transport.connections_opened,
        "decoded_queries": len(wire._DECODED_QUERIES),
    }


async def _quiet_counts(transport) -> dict:
    """The counts once they have held still for 50 ms (at most 2 s): the
    servers' last sends to closed result ports settle after completion."""
    counts, still = _wire_counts(transport), 0
    for __ in range(200):
        await asyncio.sleep(0.01)
        previous, counts = counts, _wire_counts(transport)
        still = still + 1 if counts == previous else 0
        if still == 5:
            break
    return counts


async def run_wire_load(
    queries: int = WIRE_QUERIES, *, intervals: int = WIRE_INTERVALS, seed: int = 1,
    rate: float = WIRE_RATE,
) -> dict:
    engine = build_engine(
        WIRE.build_web(1), config=EngineConfig(transport="asyncio", **WIRE.config)
    )
    transport, clock = engine.network, engine.clock
    loop = asyncio.get_running_loop()
    try:
        await asyncio.sleep(0)  # accept loops attach; sockets already bound
        for text in WIRE_PLAN.warmup:
            await engine.run([engine.submit_disql(text)])
        warm = await _quiet_counts(transport)

        latencies: list[float] = []
        outcome = {"submitted": 0, "finished": 0, "failed": 0}
        drained = loop.create_future()
        wake_runs = engine.client.on_terminal

        def on_terminal(handle) -> None:
            wake_runs(handle)
            outcome["finished"] += 1
            if handle.status is QueryStatus.COMPLETE:
                latencies.append(clock.now - handle.submit_time)
            else:
                outcome["failed"] += 1
            if outcome["finished"] == queries and not drained.done():
                drained.set_result(None)

        engine.client.on_terminal = on_terminal

        def submit(text: str) -> None:
            engine.submit_disql(text)  # the handle is not kept: nothing pins it
            outcome["submitted"] += 1

        rng = random.Random(f"load-wire:{seed}")
        start = loop.time()
        arrival = start
        for __ in range(queries):
            arrival += rng.expovariate(rate)
            loop.call_at(arrival, submit, rng.choices(WIRE_PLAN.pool, WIRE_PLAN.weights)[0])

        samples = []
        step = (arrival - start) / intervals
        for index in range(1, intervals + 1):
            await asyncio.sleep(max(start + index * step - loop.time(), 0.0))
            samples.append({
                "finished": outcome["finished"],
                "running": outcome["submitted"] - outcome["finished"],
                "rss_mib": _rss_mib(),
                **_wire_counts(transport),
            })
        await asyncio.wait_for(drained, 60.0)
        wall = loop.time() - start
        # One query alone: its watermark passes every query of the load, as
        # the next query of a user-site does.
        engine.client.on_terminal = wake_runs
        await engine.run([engine.submit_disql(WIRE_PLAN.pool[0])])
        after = await _quiet_counts(transport)
    finally:
        await engine.aclose()

    ordered = sorted(latencies)
    return {
        "queries": queries,
        "offered_per_s": rate,
        "achieved_per_s": round(outcome["finished"] / wall, 2),
        "p50_ms": round(statistics.median(ordered) * 1e3, 2) if ordered else None,
        "p99_ms": round(ordered[int(0.99 * (len(ordered) - 1))] * 1e3, 2) if ordered else None,
        **outcome,
        "intervals": samples,
        "after_warmup": warm,
        "after_load": after,
        "gate_failures": [name for name in WIRE_GATED if after[name] != warm[name]],
    }


def _print_wire(result: dict) -> None:
    print(
        f"{result['finished']} of {result['queries']} wire queries finished "
        f"({result['failed']} failed): offered {result['offered_per_s']}/s, "
        f"achieved {result['achieved_per_s']}/s wall, "
        f"p50 {result['p50_ms']} ms, p99 {result['p99_ms']} ms"
    )
    columns = ("finished", "running", "rss_mib", *WIRE_GATED)
    print("  ".join(f"{name:>18}" for name in columns))
    for sample in result["intervals"]:
        print("  ".join(f"{sample[name]!s:>18}" for name in columns))
    warm, after = result["after_warmup"], result["after_load"]
    print(
        "quiet after the warm-up -> after the load and one query alone: "
        + ", ".join(f"{name} {warm[name]} -> {after[name]}" for name in WIRE_GATED)
    )


def _print(result: dict) -> None:
    print(
        f"{result['finished']} of {result['queries']} queries finished "
        f"({result['failed']} failed, {result['cancelled']} cancelled): "
        f"offered {result['offered_per_s']}/s, achieved {result['achieved_per_s']}/s "
        f"virtual ({result['wall_queries_per_s']}/s wall), "
        f"p50 {result['p50_ms']} ms, p99 {result['p99_ms']} ms"
    )
    columns = ("finished", "running", "traced_kib", "log_entries", "memo_entries",
               "purge_records", "plan_entries")
    print("  ".join(f"{name:>13}" for name in columns))
    for sample in result["intervals"]:
        print("  ".join(f"{sample[name]:>13}" for name in columns))
    print(
        "high-water growth per finished query over the second half: "
        + ", ".join(
            f"{name} {value}"
            + (f" (gate {GATE_PER_QUERY[name]})" if name in GATE_PER_QUERY else "")
            for name, value in result["high_water_growth_per_query"].items()
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transport", choices=("sim", "asyncio"), default="sim",
                        help="sim: the warm mix in virtual time (default); "
                        "asyncio: wire_tenants over real sockets in wall time")
    parser.add_argument("--mix", default="1,2,1",
                        help="cold,warm,join weights, sim only (default 1,2,1)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when the per-query state the run bounds "
                        "keeps rising")
    parser.add_argument("--smoke", action="store_true",
                        help="a short run (120 queries, 6 intervals)")
    args = parser.parse_args(argv)
    if args.transport == "asyncio":
        queries, intervals = (120, 6) if args.smoke else (WIRE_QUERIES, WIRE_INTERVALS)
        result = asyncio.run(run_wire_load(queries, intervals=intervals, seed=args.seed))
        _print_wire(result)
    else:
        queries, intervals = (120, 6) if args.smoke else (QUERIES, INTERVALS)
        mix = tuple(float(weight) for weight in args.mix.split(","))
        result = run_load(queries, mix, intervals=intervals, seed=args.seed)
        _print(result)
    failed = result["failed"] > 0
    if args.gate and result["gate_failures"]:
        print(f"GATE: still growing: {', '.join(result['gate_failures'])}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
