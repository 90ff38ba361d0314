"""EXP-X10 (extension) — socket soak: self-healing over real asyncio sockets.

Everything before this experiment ran on the simulator; EXP-X10 is the
proof that the protocols survive the real thing.  Two gates:

**Equivalence** (fault-free): the same workload runs once on the SimClock
backend and once on the asyncio backend (real TCP on loopback, framed wire
messages, delivery acks).  Both must finish COMPLETE with the *same
distinct result-row set* and zero invariant violations.  Distinct rows,
not the multiset: arrival order differs between backends, and with it the
DUPLICATE/REWRITE bookkeeping that decides how many copies of a row are
collected before deduplication — the answer is the invariant, the
multiplicity is schedule noise.

**Chaos soak**: seeded schedules of wire-level faults — frame drops and
connection resets decided per frame in the transport's receive loop
(:class:`~repro.net.chaos.ChaosRules`), a partition window between the user-site and a leaf group, plus a real
crash-and-restart (listener teardown mid-run) — under supervisor-driven
recovery.  Acceptance: every run terminal (COMPLETE, or PARTIAL with its
coverage report naming what was abandoned), zero invariant violations, and
no row ever invented beyond the fault-free reference set.

Run stand-alone (CI ``transport-smoke`` uses ``--smoke --check``)::

    PYTHONPATH=src python benchmarks/bench_socket_soak.py [--smoke] [--check]
        [--out artifacts.json]
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import (
    EngineConfig,
    FaultPlan,
    QueryStatus,
    QuerySupervisor,
    RecoveryPolicy,
    RetryPolicy,
    WebDisEngine,
)
from repro.core.aio_engine import AsyncioWebDisEngine
from repro.errors import SimulationError
from repro.net.chaos import ChaosRules
from repro.testing.invariants import check_run
from repro.web.builders import WebBuilder

from harness import format_table, report

LEAVES = 6
FULL_SEEDS = 12
SMOKE_SEEDS = 4
RUN_TIMEOUT = 45.0

QUERY = (
    'select d.url, r.text\n'
    'from document d such that "http://root.example/" G d,\n'
    '     relinfon r such that r.delimiter = "b"\n'
    'where r.text contains "answer"'
)

SITES = ["root.example"] + [f"leaf{i}.example" for i in range(LEAVES)]


def _build_web():
    builder = WebBuilder()
    builder.site("root.example").page(
        "/",
        title="root directory",
        links=[(f"leaf {i}", f"http://leaf{i}.example/") for i in range(LEAVES)],
    )
    for i in range(LEAVES):
        builder.site(f"leaf{i}.example").page(
            "/", title=f"leaf {i}", emphasized=[("b", f"answer {i}")]
        )
    return builder.build()


def _config(seed: int) -> EngineConfig:
    return EngineConfig(
        retry_policy=RetryPolicy(
            max_attempts=5, base_delay=0.1, multiplier=1.8, max_delay=1.0,
            jitter=0.4, seed=seed,
        ),
    )


def _distinct_rows(handle) -> set:
    return {(label, row.header, row.values) for label, row, __ in handle.results}


def _sim_reference() -> set:
    """Distinct result rows of the fault-free SimClock run (ground truth)."""
    engine = WebDisEngine(_build_web(), config=_config(0))
    handle = engine.submit_disql(QUERY)
    engine.run()
    assert handle.status is QueryStatus.COMPLETE, handle.status
    return _distinct_rows(handle)


async def _asyncio_clean() -> tuple[str, set, list]:
    """Fault-free asyncio run: (status, distinct rows, violations)."""
    engine = AsyncioWebDisEngine(_build_web(), config=_config(0), trace=True)
    try:
        handle = engine.submit_disql(QUERY)
        await engine.run([handle], timeout=RUN_TIMEOUT)
        violations = check_run(engine, [handle])
        return handle.status.value, _distinct_rows(handle), violations
    finally:
        await engine.aclose()


def equivalence_gate(sim_rows: set) -> tuple[list[str], dict]:
    """Fault-free cross-backend equivalence (the CI gate)."""
    status, aio_rows, violations = asyncio.run(_asyncio_clean())
    problems = [str(v) for v in violations]
    if status != "complete":
        problems.append(f"asyncio fault-free run ended {status}, want complete")
    if aio_rows != sim_rows:
        missing = sim_rows - aio_rows
        extra = aio_rows - sim_rows
        problems.append(
            f"distinct rows differ across backends: {len(missing)} missing, "
            f"{len(extra)} extra (e.g. {next(iter(missing or extra))})"
        )
    record = {
        "sim_distinct_rows": len(sim_rows),
        "asyncio_distinct_rows": len(aio_rows),
        "asyncio_status": status,
        "equal": aio_rows == sim_rows,
    }
    return problems, record


def _make_plan(seed: int) -> tuple[FaultPlan, str]:
    """One seeded wall-clock chaos schedule over the socket backend."""
    rng = random.Random(f"socket-soak:{seed}")
    plan = FaultPlan(seed=seed)
    described: list[str] = []

    # A real crash: listener teardown mid-run; most schedules restart it.
    site = rng.choice(SITES)
    at = round(rng.uniform(0.1, 1.0), 3)
    restart_at = round(at + rng.uniform(0.5, 1.5), 3) if rng.random() < 0.75 else None
    plan.crash(site, at=at, restart_at=restart_at)
    described.append(
        f"crash:{site.split('.')[0]}@{at:g}"
        + (f"..{restart_at:g}" if restart_at is not None else "")
    )

    # A partition window: frames from the user-site to a leaf group die.
    if rng.random() < 0.7:
        group = rng.sample(
            [f"leaf{i}.example" for i in range(LEAVES)], k=rng.randint(1, 2)
        )
        start = round(rng.uniform(0.0, 0.8), 3)
        end = round(start + rng.uniform(0.4, 1.2), 3)
        plan.partition(["user.example"], group, start=start, end=end)
        described.append(f"partition:{len(group)}leaf[{start:g},{end:g})")

    # Background frame-drop probability (swallow or reset, seeded coin).
    drop = round(rng.uniform(0.05, 0.3), 3)
    plan.drop(drop, end=3.0)
    described.append(f"drop:{drop:g}")
    return plan, " ".join(described)


async def _run_chaos_schedule(seed: int, reference: set) -> tuple[tuple, dict]:
    plan, description = _make_plan(seed)
    chaos = ChaosRules.from_plan(plan, delay_range=(0.005, 0.05), delay_probability=0.2)
    engine = AsyncioWebDisEngine(
        _build_web(), config=_config(seed), trace=True, chaos=chaos
    )
    try:
        supervisor = QuerySupervisor(
            engine.client,
            RecoveryPolicy(
                quiet_timeout=1.0, max_recoveries=4,
                backoff_multiplier=1.5, deadline=RUN_TIMEOUT - 5.0,
            ),
        )
        handle = engine.submit_disql(QUERY)
        supervisor.supervise(handle)
        engine.apply_chaos_crashes()
        started = time.perf_counter()
        problems: list[str] = []
        try:
            await engine.run([handle], timeout=RUN_TIMEOUT)
        except SimulationError as exc:
            problems.append(f"terminal: {exc}")
        elapsed = time.perf_counter() - started
        problems += [str(v) for v in check_run(engine, [handle])]
        # Row soundness across backends is on *distinct* rows: multiplicity
        # is schedule noise (see module docstring), invention is not.
        invented = _distinct_rows(handle) - reference
        if invented:
            problems.append(
                f"{len(invented)} distinct row(s) beyond the fault-free "
                f"reference, e.g. {next(iter(invented))}"
            )
        coverage = supervisor.coverage(handle)
        chaos_counts = engine.network.chaos_summary()
        row = (
            seed,
            description,
            handle.status.value,
            len(handle.unique_rows()),
            handle.recovery_epoch,
            engine.stats.retried_sends,
            chaos_counts.get("frames_swallowed", 0)
            + chaos_counts.get("connections_reset", 0),
            f"{elapsed:.2f}s",
            len(problems),
        )
        record = {
            "seed": seed,
            "schedule": description,
            "status": handle.status.value,
            "rows": len(handle.unique_rows()),
            "recovery_epoch": handle.recovery_epoch,
            "abandoned": len(coverage.abandoned),
            "unreachable_sites": list(coverage.unreachable_sites),
            "wall_seconds": round(elapsed, 3),
            "chaos": chaos_counts,
            "stats": {
                "retried_sends": engine.stats.retried_sends,
                "retries_exhausted": engine.stats.retries_exhausted,
                "failed_sends": engine.stats.failed_sends,
                "clones_reforwarded": engine.stats.clones_reforwarded,
                "duplicate_reports_absorbed": engine.stats.duplicate_reports_absorbed,
                "stale_reports_absorbed": engine.stats.stale_reports_absorbed,
            },
            "violations": problems,
        }
        return row, record
    finally:
        await engine.aclose()


def run_soak(seeds: int) -> tuple[str, int, dict]:
    """Equivalence gate + chaos schedules; returns (body, failures, artifact)."""
    reference = _sim_reference()
    problems, equivalence = equivalence_gate(reference)

    rows = []
    records = []
    statuses: Counter = Counter()
    total_violations = len(problems)
    for seed in range(seeds):
        row, record = asyncio.run(_run_chaos_schedule(seed, reference))
        rows.append(row)
        records.append(record)
        statuses[record["status"]] += 1
        total_violations += len(record["violations"])

    body = "equivalence gate (fault-free, sim vs asyncio): " + (
        "PASS" if not problems else "FAIL\n  " + "\n  ".join(problems)
    )
    body += f"\n  {equivalence}\n\n"
    body += format_table(
        (
            "seed", "schedule", "status", "rows", "epochs",
            "retried", "chaos-hits", "wall", "violations",
        ),
        rows,
    )
    body += (
        f"\n\n{seeds} socket schedules: {dict(statuses)}; "
        f"{total_violations} invariant violation(s) total"
    )
    for record in records:
        for violation in record["violations"]:
            body += f"\n  seed {record['seed']}: {violation}"
    artifact = {
        "experiment": "EXP-X10",
        "equivalence": equivalence,
        "equivalence_problems": problems,
        "schedules": records,
        "violations": total_violations,
    }
    return body, total_violations, artifact


def bench_socket_soak(benchmark):
    body, failures, __ = run_soak(SMOKE_SEEDS)
    assert failures == 0, body
    report("EXP-X10", "socket soak: self-healing over real asyncio sockets", body)
    benchmark(lambda: asyncio.run(_asyncio_clean())[0])


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short CI run")
    parser.add_argument("--seeds", type=int, default=None, help="schedule count")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on any violation (CI gate)")
    parser.add_argument("--out", default=None,
                        help="write the JSON artifact (stats, invariants) here")
    args = parser.parse_args(argv)
    seeds = args.seeds if args.seeds is not None else (
        SMOKE_SEEDS if args.smoke else FULL_SEEDS
    )
    body, failures, artifact = run_soak(seeds)
    print(body)
    report("EXP-X10", "socket soak: self-healing over real asyncio sockets", body)
    if args.out:
        Path(args.out).write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"artifact -> {args.out}")
    if failures:
        print(f"FAIL: {failures} violation(s)", file=sys.stderr)
        return 1 if args.check else 0
    print(f"OK: equivalence gate passed, {seeds} chaos schedules clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
