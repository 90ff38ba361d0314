"""The DST runner: generate → simulate → oracle-check → fingerprint.

One *case* drives three simulations:

1. **Reference** — the data-shipping baseline, fault-free, with a
   provenance journal (:func:`repro.testing.oracle.reference_run`), run
   once per query: each query's reference is its *solo* answer.
2. **Clean control** — WEBDIS with every query of the spec submitted
   together (or, for a spec with ``"sequential": true``, each when its
   predecessor is terminal, so the user-site's completion watermark
   advances), no faults, no queue pressure.  Each query must finish
   COMPLETE with exactly its solo reference rows (:func:`check_clean`) —
   this is the cross-query isolation oracle: interleaving tenants must
   not change any tenant's answer.  Each query's row multiset also
   becomes its ``rows-sound`` ground truth for the faulted run.
3. **Run under test** — WEBDIS with the spec's fault schedule, latency
   overrides, pump-budget/admission knobs and tie-break schedule seed, all
   queries driven by a :class:`~repro.core.supervisor.QuerySupervisor`.
   Checked against the full invariant battery
   (:mod:`repro.testing.invariants`) and the coverage-aware oracle
   (:func:`check_faulted`), per query against its own solo reference.

Every faulted run also produces a **fingerprint** — a hash over each
query's final status, rows, recovery epoch and completion time plus the
complete network message log ``(time, src, dst, port, kind)`` — so "same
seed ⇒ bit-identical run" is checkable by plain string equality.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
from dataclasses import dataclass, field

from ..core.cht import CurrentHostsTable, InstanceStatus
from ..core.config import EngineConfig
from ..core.engine import WebDisEngine
from ..core.supervisor import QuerySupervisor, RecoveryPolicy
from ..errors import ProtocolError, SimulationError
from ..net.network import NetworkConfig
from ..net.reliable import RetryPolicy
from .generators import (
    Spec,
    build_fault_plan,
    build_web,
    generate_case,
    latency_overrides,
    query_texts,
)
from .invariants import Violation, check_run, reference_rows
from .oracle import Reference, check_clean, check_faulted, reference_run

__all__ = [
    "CaseResult",
    "SeedResult",
    "run_case",
    "run_case_asyncio",
    "run_seed",
    "case_fails",
    "POLICY",
]

#: Generous recovery budgets: a *clean* run must always reach COMPLETE, so
#: slow-but-alive paths (latency overrides up to ~3 s) must never exhaust
#: the round budget.  Escalation to PARTIAL is reserved for genuinely
#: unreachable coverage.
POLICY = RecoveryPolicy(
    quiet_timeout=2.0, max_recoveries=5, backoff_multiplier=1.6, deadline=60.0
)


class _UnfencedCht(CurrentHostsTable):
    """The shrinker demo's known bug: recovery without the epoch fence.

    ``supersede`` registers the re-forward and closes the old instance in
    the books but leaves its status PENDING, so a late report from the
    superseded dispatch retires it a second time instead of being absorbed
    as stale.  Substituted through ``UserSiteClient.cht_factory`` by
    ``inject_bug``.
    """

    def supersede(self, dispatch_id, node, new_dispatch_id, new_epoch, time=0.0):
        superseded = super().supersede(dispatch_id, node, new_dispatch_id, new_epoch, time)
        if superseded:
            self._instances[(dispatch_id, node)].status = InstanceStatus.PENDING
        return superseded


@dataclass
class CaseResult:
    """Outcome of one simulated case (one schedule)."""

    spec: Spec
    status: str
    clean_status: str
    rows: int
    recovery_epoch: int
    violations: list[Violation] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class SeedResult:
    """Outcome of one seed across its schedule variants."""

    seed: int
    cases: list[CaseResult]
    deterministic: bool = True

    @property
    def ok(self) -> bool:
        return self.deterministic and all(case.ok for case in self.cases)

    @property
    def violations(self) -> list[Violation]:
        found = [v for case in self.cases for v in case.violations]
        if not self.deterministic:
            found.append(
                Violation(
                    "deterministic", f"seed {self.seed}",
                    "same-seed rerun produced a different fingerprint",
                )
            )
        return found


def _engine_config(spec: Spec, *, pressure: bool = True) -> EngineConfig:
    """The spec's engine knobs.  ``pressure=False`` strips the admission
    ceilings and shed timer: a run the oracle requires to be COMPLETE and
    exact (the clean control, or a faulted run whose plan shrank away)
    must never legitimately shed coverage.  Keys of retired knobs in an
    older repro file (``scheduler``, ``cross_query_caching``) are ignored."""
    config = spec.get("config", {})
    return EngineConfig(
        log_subsumption=config.get("log_subsumption", "paper"),
        batch_per_site=config.get("batch_per_site", True),
        compiled_plans=config.get("compiled_plans", True),
        frontier_batching=config.get("frontier_batching", True),
        pump_budget=config.get("pump_budget"),
        per_query_queue_limit=config.get("per_query_queue_limit") if pressure else None,
        server_queue_limit=config.get("server_queue_limit") if pressure else None,
        shed_after=config.get("shed_after") if pressure else None,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.2, multiplier=2.0, jitter=0.3,
            seed=spec["seed"],
        ),
    )


def _submit(engine: WebDisEngine, spec: Spec, supervise=None) -> list:
    """Submit the spec's queries; returns their handles, in submission order.

    All at once, or — ``spec["sequential"]`` — each at the virtual time its
    predecessor became terminal, so every query after the first raises the
    user-site's completion watermark.  The list fills as the run goes.
    """
    handles: list = []
    texts = query_texts(spec)
    pending = iter(texts)

    def submit_next() -> None:
        text = next(pending, None)
        if text is None:
            return
        handle = engine.submit_disql(text)
        handles.append(handle)
        if supervise is not None:
            supervise(handle)

    if spec.get("sequential"):
        engine.client.on_terminal = lambda handle: engine.clock.schedule(0.0, submit_next)
        submit_next()
    else:
        for __ in texts:
            submit_next()
    return handles


def _run_clean(
    spec: Spec, references: list[Reference]
) -> tuple[list[Violation], list]:
    """The fault-free WEBDIS control run — every query submitted together,
    or one after another; returns (violations, handles).  Per-query
    exactness against the solo references is the cross-query isolation
    oracle on the clean path."""
    engine = WebDisEngine(
        build_web(spec),
        config=_engine_config(spec, pressure=False),
        trace=True,
    )
    handles = _submit(engine, spec)
    engine.run()
    violations = []
    for handle, reference in zip(handles, references):
        violations += check_clean(handle, reference)
    violations += check_run(engine, handles)
    return violations, handles


def _run_faulted(
    spec: Spec, references: list[Reference], clean_rows: dict, *, inject_bug: bool
) -> CaseResult:
    """The run under test: faults + schedule jitter + queue pressure +
    supervision, all queries interleaved (or one after another)."""
    plan = build_fault_plan(spec)
    engine = WebDisEngine(
        build_web(spec),
        # Pressure knobs only apply when faults actually install: a run the
        # oracle holds to clean exactness must not shed.
        config=_engine_config(spec, pressure=plan is not None),
        net_config=NetworkConfig(latency_overrides=latency_overrides(spec)),
        trace=True,
    )
    if inject_bug:
        engine.client.cht_factory = _UnfencedCht
    engine.clock.set_tie_breaker(spec.get("schedule_seed"))
    message_log: list[tuple] = []
    engine.network.add_tap(
        lambda time, src, dst, port, payload: message_log.append(
            (round(time, 9), src, dst, port, payload.kind)
        )
    )
    if plan is not None:
        engine.apply_faults(plan)
    supervisor = QuerySupervisor(engine.client, POLICY)
    handles = _submit(engine, spec, supervisor.supervise)
    engine.run()

    violations = check_run(engine, handles, references=clean_rows)
    for handle, reference in zip(handles, references):
        coverage = supervisor.coverage(handle)
        if plan is None:
            # Only the schedule differs from the control run: still clean,
            # so the oracle demands COMPLETE and exact equivalence.
            violations += check_clean(handle, reference)
        else:
            violations += check_faulted(handle, engine.tracer, reference, coverage)

    fingerprint = hashlib.sha256(
        repr(
            (
                tuple(
                    (
                        handle.status.value,
                        sorted(str((label, row.header, row.values))
                               for label, row, __ in handle.results),
                        handle.recovery_epoch,
                        round(handle.completion_time or -1.0, 9),
                    )
                    for handle in handles
                ),
                tuple(message_log),
            )
        ).encode()
    ).hexdigest()
    main = handles[0]
    return CaseResult(
        spec=spec,
        status=main.status.value,
        clean_status="",
        rows=len(main.results),
        recovery_epoch=main.recovery_epoch,
        violations=violations,
        fingerprint=fingerprint,
    )


def run_case_asyncio(
    spec: Spec, *, time_scale: float = 1.0, timeout: float = 120.0
) -> CaseResult:
    """Replay one spec's faulted run over real asyncio sockets.

    This is an *approximate* replay, by design: the spec's fault windows
    map onto the wall clock (scaled by ``time_scale`` wall-seconds per
    sim-second) through the per-frame chaos verdicts of the transport's
    receive loop, and crash rules become real socket teardowns — but
    arrival order is whatever the kernel produces, so the question answered
    is "does the shrunk scenario still self-heal on real sockets", not "is
    the run bit-identical".
    Correspondingly the checks are the invariant battery plus terminal
    status (no fingerprint, no row-multiset reference — a different
    interleaving can legitimately change DUPLICATE/REWRITE multiplicities),
    and latency overrides (a simulator cost-model knob) are not applied.
    The queries are submitted together, also for a ``"sequential"`` spec.
    """
    return asyncio.run(_run_case_asyncio(spec, time_scale, timeout))


async def _run_case_asyncio(
    spec: Spec, time_scale: float, timeout: float
) -> CaseResult:
    from ..core.aio_engine import AsyncioWebDisEngine
    from ..net.chaos import ChaosRules

    plan = build_fault_plan(spec)
    config = dataclasses.replace(
        _engine_config(spec, pressure=plan is not None),
        transport="asyncio",
    )
    chaos = None if plan is None else ChaosRules.from_plan(plan, time_scale=time_scale)
    engine = AsyncioWebDisEngine(build_web(spec), config=config, trace=True, chaos=chaos)
    try:
        supervisor = QuerySupervisor(engine.client, POLICY)
        handles = [engine.submit_disql(text) for text in query_texts(spec)]
        for handle in handles:
            supervisor.supervise(handle)
        engine.apply_chaos_crashes()
        violations: list[Violation] = []
        try:
            await engine.run(handles, timeout=timeout)
        except SimulationError as exc:
            violations.append(Violation("terminal", str(handles[0].qid), str(exc)))
        violations += check_run(engine, handles)
    finally:
        await engine.aclose()
    main = handles[0]
    return CaseResult(
        spec=spec,
        status=main.status.value,
        clean_status="",
        rows=len(main.results),
        recovery_epoch=main.recovery_epoch,
        violations=violations,
        fingerprint="",
    )


def _references(spec: Spec) -> list[Reference]:
    """One solo reference per query of the spec, in submission order."""
    return [reference_run(spec, index) for index in range(len(query_texts(spec)))]


def run_case(spec: Spec, *, inject_bug: bool = False) -> CaseResult:
    """Run one spec end to end (references + clean control + faulted run)."""
    references = _references(spec)
    clean_violations, clean_handles = _run_clean(spec, references)
    clean_rows = {
        handle.qid.number: reference_rows(handle) for handle in clean_handles
    }
    result = _run_faulted(spec, references, clean_rows, inject_bug=inject_bug)
    result.clean_status = clean_handles[0].status.value
    result.violations = clean_violations + result.violations
    return result


def run_seed(
    seed: int,
    *,
    schedules: int = 2,
    inject_bug: bool = False,
    check_determinism: bool = True,
    sequential: bool = False,
) -> SeedResult:
    """Run one seed: the reference and clean control once, then the run
    under test across ``schedules`` tie-break variants (the first is FIFO).

    ``check_determinism`` reruns the first variant and compares
    fingerprints — the "same seed ⇒ bit-identical" acceptance gate.
    ``sequential`` submits the spec's queries one after another.
    """
    spec = generate_case(seed)
    if sequential:
        spec["sequential"] = True
    references = _references(spec)
    clean_violations, clean_handles = _run_clean(spec, references)
    clean_rows = {
        handle.qid.number: reference_rows(handle) for handle in clean_handles
    }

    cases = []
    for variant in range(max(1, schedules)):
        variant_spec = dict(spec)
        variant_spec["schedule_seed"] = None if variant == 0 else seed * 1000 + variant
        case = _run_faulted(
            variant_spec, references, clean_rows, inject_bug=inject_bug
        )
        case.clean_status = clean_handles[0].status.value
        if variant == 0:
            case.violations = clean_violations + case.violations
        cases.append(case)

    deterministic = True
    if check_determinism and cases:
        rerun = _run_faulted(
            cases[0].spec, references, clean_rows, inject_bug=inject_bug
        )
        deterministic = rerun.fingerprint == cases[0].fingerprint
    return SeedResult(seed=seed, cases=cases, deterministic=deterministic)


def case_fails(spec: Spec, *, inject_bug: bool = False) -> bool:
    """Does ``spec`` still reproduce a failure?  (The shrinker's predicate.)

    Protocol-level exceptions (accounting divergence, runaway event loops)
    count as failures; anything else raised during setup means the
    candidate spec is malformed — e.g. the shrinker removed the start site
    — and must *not* count, or shrinking would chase setup artifacts.
    """
    try:
        return not run_case(spec, inject_bug=inject_bug).ok
    except (ProtocolError, SimulationError):
        return True
    except Exception:
        return False
