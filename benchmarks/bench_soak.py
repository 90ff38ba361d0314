"""EXP-X9 (extension) — chaos soak: self-healing queries under long fault schedules.

Each seeded schedule mixes every fault class the simulator knows — server
crashes (with and without restart), partitions between the user-site and
server groups, flaky windows, and background drop probability — while a
:class:`~repro.core.supervisor.QuerySupervisor` drives the query with
watch→re-forward→escalate recovery, and a second query is cancelled
mid-flight to exercise passive termination under fire.

After every fault event *and* at quiescence the run is audited against the
protocol invariants (``repro.testing.invariants``):

* CHT accounting consistent (idempotent per dispatch identity);
* no dispatch identity added or retired twice;
* every query terminal — COMPLETE / PARTIAL / CANCELLED — by its deadline;
* no retry ever scheduled at a closed result port (REFUSED is final);
* result rows a sub-multiset of the fault-free ground truth (nothing
  invented, nothing double-counted).

The acceptance bar: **zero violations over >= 20 schedules, zero hung
queries, and bit-identical reruns per seed.**

Run stand-alone (CI soak-smoke uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_soak.py [--smoke] [--seeds N]
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro import (
    EngineConfig,
    FaultPlan,
    NetworkConfig,
    QueryStatus,
    QuerySupervisor,
    RecoveryPolicy,
    RetryPolicy,
    WebDisEngine,
)
from repro.testing.invariants import Violation, check_handle, check_run, reference_rows
from repro.web.builders import WebBuilder

from harness import format_table, report

LEAVES = 8
FULL_SEEDS = 24
SMOKE_SEEDS = 6
DEADLINE = 25.0
#: Re-run these seeds and demand identical fingerprints.
DETERMINISM_SEEDS = (0, 7, 13)

QUERY = (
    'select d.url, r.text\n'
    'from document d such that "http://root.example/" G d,\n'
    '     relinfon r such that r.delimiter = "b"\n'
    'where r.text contains "answer"'
)


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


def _reference() -> Counter:
    """Ground-truth row multiset from one fault-free run."""
    engine = WebDisEngine(_build_web(), config=EngineConfig())
    handle = engine.submit_disql(QUERY)
    engine.run()
    assert handle.status is QueryStatus.COMPLETE
    return reference_rows(handle)


def _make_plan(seed: int) -> tuple[FaultPlan, list[float], str, dict]:
    """One seeded chaos schedule: crashes + partition + flaky + drops."""
    rng = random.Random(f"soak-plan:{seed}")
    plan = FaultPlan(seed=seed)
    event_times: list[float] = []
    described: list[str] = []

    # One or two server crashes; most restart, some stay down.
    sites = ["root.example"] + [f"leaf{i}.example" for i in range(LEAVES)]
    for __ in range(rng.choice((1, 1, 2))):
        site = rng.choice(sites)
        at = round(rng.uniform(0.2, 3.0), 3)
        restart_at = (
            round(at + rng.uniform(1.0, 4.0), 3) if rng.random() < 0.8 else None
        )
        plan.crash(site, at=at, restart_at=restart_at)
        event_times.append(at)
        if restart_at is not None:
            event_times.append(restart_at)
        described.append(f"crash:{site.split('.')[0]}@{at:g}")

    # A partition window between the user-site and a random leaf group.
    if rng.random() < 0.7:
        group = rng.sample([f"leaf{i}.example" for i in range(LEAVES)], k=rng.randint(1, 3))
        start = round(rng.uniform(0.1, 2.0), 3)
        end = round(start + rng.uniform(0.5, 3.0), 3)
        plan.partition(["user.example"], group, start=start, end=end)
        event_times += [start, end]
        described.append(f"partition:{len(group)}leaf[{start:g},{end:g})")

    # A flaky window on one directed edge.
    if rng.random() < 0.6:
        dst = rng.choice(sites)
        start = round(rng.uniform(0.1, 2.5), 3)
        end = round(start + rng.uniform(0.3, 1.5), 3)
        plan.flaky("user.example", dst, start=start, end=end)
        event_times += [start, end]
        described.append(f"flaky:{dst.split('.')[0]}[{start:g},{end:g})")

    # Background transient drop probability for the first simulated seconds.
    drop = round(rng.uniform(0.02, 0.25), 3)
    plan.drop(drop, end=6.0)
    described.append(f"drop:{drop:g}")

    # Half the schedules make one leaf's report path *slow* (slower than the
    # supervisor's stall timer): the original report is merely late, not
    # lost, so it races the recovery re-forward — the exact footgun the
    # epoch-fenced accounting absorbs as a stale report.
    overrides: dict[tuple[str, str], float] = {}
    if rng.random() < 0.5:
        slow_leaf = rng.randrange(LEAVES)
        delay = round(rng.uniform(4.0, 8.0), 3)
        overrides[(f"leaf{slow_leaf}.example", "user.example")] = delay
        described.append(f"slow:leaf{slow_leaf}={delay:g}s")
    return plan, sorted(set(event_times)), " ".join(described), overrides


def _run_schedule(seed: int, reference: Counter):
    """Run one schedule; returns (fingerprint, violations, summary row)."""
    plan, event_times, description, overrides = _make_plan(seed)
    rng = random.Random(f"soak-run:{seed}")
    config = EngineConfig(
        retry_policy=RetryPolicy(
            max_attempts=4, base_delay=0.2, multiplier=2.0, jitter=0.4, seed=seed
        ),
    )
    engine = WebDisEngine(
        _build_web(),
        config=config,
        net_config=NetworkConfig(latency_base=0.4, latency_overrides=overrides),
        trace=True,
    )
    engine.apply_faults(plan)
    supervisor = QuerySupervisor(
        engine.client,
        RecoveryPolicy(
            quiet_timeout=2.0, max_recoveries=3,
            backoff_multiplier=1.5, deadline=DEADLINE,
        ),
    )

    handle = engine.submit_disql(QUERY)
    supervisor.supervise(handle)

    # A second query, cancelled mid-flight: passive termination under fire.
    cancelled = engine.submit_disql(QUERY)
    cancel_at = round(rng.uniform(0.3, 2.0), 3)

    def cancel_if_running() -> None:
        if cancelled.status is QueryStatus.RUNNING:
            engine.client.cancel(cancelled)

    engine.clock.schedule_at(cancel_at, cancel_if_running)

    # Audit the invariants right after every fault event, mid-flight.
    mid_violations: list = []
    for at in event_times:
        engine.clock.schedule_at(
            at + 0.011,
            lambda: mid_violations.extend(
                check_handle(handle, tracer=engine.tracer, require_terminal=False)
                + check_handle(cancelled, tracer=engine.tracer, require_terminal=False)
            ),
        )

    engine.run()

    references = {handle.qid.number: reference, cancelled.qid.number: reference}
    violations = mid_violations + check_run(
        engine, [handle, cancelled], references=references
    )

    # Terminal-by-deadline, with the deadline event itself the last resort.
    for h in (handle, cancelled):
        finished_at = h.completion_time if h.completion_time is not None else h.cancel_time
        if finished_at is not None and finished_at > DEADLINE + 1e-9:
            violations.append(
                Violation(
                    "terminal", str(h.qid),
                    f"finished at t={finished_at:.3f}, past deadline {DEADLINE:g}",
                )
            )

    fingerprint = (
        handle.status.value,
        cancelled.status.value,
        sorted(str(r) for r in handle.unique_rows()),
        handle.recovery_epoch,
        round(handle.completion_time or -1.0, 9),
        engine.stats.messages_sent,
        engine.stats.retried_sends,
        engine.stats.clones_reforwarded,
        engine.stats.duplicate_reports_absorbed,
        engine.stats.stale_reports_absorbed,
        engine.stats.duplicate_rows_dropped,
        engine.stats.sends_abandoned,
    )
    row = (
        seed,
        description,
        handle.status.value,
        len(handle.unique_rows()),
        handle.recovery_epoch,
        engine.stats.clones_reforwarded,
        engine.stats.duplicate_reports_absorbed + engine.stats.stale_reports_absorbed,
        len(violations),
    )
    return fingerprint, violations, row


def run_soak(seeds: int) -> tuple[str, int, list]:
    """Run ``seeds`` schedules; returns (report body, violations, rows)."""
    reference = _reference()
    rows = []
    all_violations = []
    statuses: Counter = Counter()
    for seed in range(seeds):
        __, violations, row = _run_schedule(seed, reference)
        rows.append(row)
        all_violations += violations
        statuses[row[2]] += 1

    # Determinism: identical fingerprint on a full rerun of the same seed.
    nondeterministic = []
    for seed in DETERMINISM_SEEDS:
        if seed >= seeds:
            continue
        first, __, ___ = _run_schedule(seed, reference)
        second, __, ___ = _run_schedule(seed, reference)
        if first != second:
            nondeterministic.append(seed)

    body = format_table(
        (
            "seed", "schedule", "status", "rows", "epochs",
            "reforwarded", "absorbed", "violations",
        ),
        rows,
    )
    body += (
        f"\n\n{seeds} schedules: {dict(statuses)}; "
        f"{len(all_violations)} invariant violation(s); "
        f"rerun determinism on seeds {[s for s in DETERMINISM_SEEDS if s < seeds]}: "
        + ("FAILED for " + str(nondeterministic) if nondeterministic else "exact")
    )
    if all_violations:
        body += "\n\nviolations:\n" + "\n".join(
            f"  {violation}" for violation in all_violations
        )
    assert not nondeterministic, f"non-deterministic seeds: {nondeterministic}"
    return body, len(all_violations), rows


def bench_soak(benchmark):
    body, violation_count, rows = run_soak(FULL_SEEDS)
    # Acceptance: zero invariant violations, zero hung queries, across all
    # crash+partition+flaky+drop schedules.
    assert violation_count == 0, body
    assert all(row[7] == 0 for row in rows)
    report("EXP-X9", "chaos soak: self-healing invariants over seeded schedules", body)
    benchmark(lambda: _run_schedule(0, _reference())[2])


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short CI run")
    parser.add_argument("--seeds", type=int, default=None, help="schedule count")
    args = parser.parse_args(argv)
    seeds = args.seeds if args.seeds is not None else (
        SMOKE_SEEDS if args.smoke else FULL_SEEDS
    )
    body, violation_count, __ = run_soak(seeds)
    print(body)
    if violation_count:
        print(f"FAIL: {violation_count} invariant violation(s)", file=sys.stderr)
        return 1
    print(f"OK: {seeds} schedules, zero invariant violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
