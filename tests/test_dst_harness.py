"""End-to-end tests for the DST harness: generators, oracle, runner, shrinker.

The acceptance-bar demo lives here too: with the unfenced-recovery bug
injected (``inject_bug=True`` substitutes the harness's unfenced CHT) the
corpus finds a failing seed, the ``cht-consistent`` invariant names the
broken accounting, and the shrinker reduces the case to one site and ≤ 3
fault events — replayable bit-identically from its JSON repro.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import WebDisEngine
from repro.disql import compile_disql
from repro.testing import (
    Reference,
    build_fault_plan,
    build_web,
    case_fails,
    check_clean,
    check_faulted,
    generate_case,
    query_text,
    reference_run,
    run_case,
    run_seed,
    shrink,
    spec_size,
)
from repro.testing.oracle import observed_rows
from repro.testing.shrink import from_json, to_json

REPO = Path(__file__).resolve().parent.parent

#: First corpus seed that trips the injected unfenced-recovery bug
#: (found by ``tools/dst.py --seeds 0..40 --inject-bug``; pinned because
#: ``generate_case`` is a pure function of the seed).
BUGGY_SEED = 11


class TestGenerators:
    def test_case_is_a_pure_function_of_the_seed(self):
        assert generate_case(3) == generate_case(3)
        assert generate_case(3) != generate_case(4)

    @pytest.mark.parametrize("seed", range(0, 20))
    def test_generated_queries_compile(self, seed):
        spec = generate_case(seed)
        query = compile_disql(query_text(spec))
        assert query.steps

    def test_generated_webs_build(self):
        for seed in range(10):
            web = build_web(generate_case(seed))
            assert web.site("s0.example") is not None

    def test_fault_plan_skips_removed_sites(self):
        # The shrinker removes sites; events naming them must be dropped,
        # not crash the setup (else shrinking chases setup artifacts).
        spec = generate_case(11)
        assert spec["faults"], "seed 11 should carry fault events"
        spec["web"]["sites"] = spec["web"]["sites"][:1]
        build_fault_plan(spec)  # must not raise

    def test_roughly_a_quarter_of_cases_are_clean(self):
        clean = sum(1 for seed in range(80) if not generate_case(seed)["faults"])
        assert 8 <= clean <= 40


def _clean_handle(spec):
    engine = WebDisEngine(build_web(spec), trace=True)
    handle = engine.submit_disql(query_text(spec))
    engine.run()
    return engine, handle


def _seed_with_rows(start=0):
    for seed in range(start, start + 30):
        spec = generate_case(seed)
        if reference_run(spec).unique:
            return spec
    raise AssertionError("no seed with reference rows in range")


class TestOracle:
    def test_clean_run_matches_reference(self):
        spec = _seed_with_rows()
        __, handle = _clean_handle(spec)
        assert check_clean(handle, reference_run(spec)) == []

    def test_oracle_catches_missing_rows(self):
        # Tamper the reference with a phantom row: the oracle must object —
        # proof the exactness check has teeth.
        spec = _seed_with_rows()
        __, handle = _clean_handle(spec)
        reference = reference_run(spec)
        phantom = ("d", ("d.url",), ("http://phantom.example/",))
        tampered = Reference(
            unique=reference.unique | {phantom},
            producers={**reference.producers, phantom: frozenset({"http://phantom.example/"})},
            forwards=reference.forwards,
        )
        violations = check_clean(handle, tampered)
        assert any(v.invariant == "oracle-exact" for v in violations)

    def test_faulted_check_rejects_invented_rows(self):
        spec = _seed_with_rows()
        engine, handle = _clean_handle(spec)
        reference = reference_run(spec)
        assert observed_rows(handle), "need a row-producing seed"
        # Strip one observed row from the reference: it becomes "invented".
        victim = next(iter(observed_rows(handle)))
        stripped = Reference(
            unique=reference.unique - {victim},
            producers={k: v for k, v in reference.producers.items() if k != victim},
            forwards=reference.forwards,
        )
        violations = check_faulted(handle, engine.tracer, stripped)
        assert any(v.invariant == "oracle-invented" for v in violations)

    def test_faulted_check_demands_attribution_for_missing_rows(self):
        # A reference row whose producer was never written off must be
        # flagged when absent from the observed set.
        spec = _seed_with_rows()
        engine, handle = _clean_handle(spec)
        reference = reference_run(spec)
        extra = ("d", ("d.url",), ("http://never-lost.example/",))
        tampered = Reference(
            unique=reference.unique | {extra},
            producers={**reference.producers, extra: frozenset({"http://alive.example/"})},
            forwards=reference.forwards,
        )
        violations = check_faulted(handle, engine.tracer, tampered)
        assert any(v.invariant == "oracle-partial" for v in violations)


class TestRunner:
    @pytest.mark.parametrize("seed", range(0, 6))
    def test_corpus_seeds_pass(self, seed):
        result = run_seed(seed, schedules=2)
        assert result.ok, [str(v) for v in result.violations]
        assert result.deterministic

    def test_same_seed_same_fingerprint(self):
        first = run_seed(2, schedules=1, check_determinism=False)
        second = run_seed(2, schedules=1, check_determinism=False)
        assert first.cases[0].fingerprint == second.cases[0].fingerprint
        assert first.cases[0].fingerprint  # non-empty sha256 hex

    def test_case_fails_is_false_on_passing_spec(self):
        assert case_fails(generate_case(0)) is False

    def test_case_fails_treats_malformed_spec_as_not_failing(self):
        spec = generate_case(0)
        spec["web"]["sites"] = []  # start site gone: setup artifact
        assert case_fails(spec) is False


class TestShrinkerDemo:
    def test_injected_bug_is_found_shrunk_and_replayable(self):
        spec = generate_case(BUGGY_SEED)
        assert case_fails(spec, inject_bug=True), (
            "the unfenced-recovery bug should trip the invariant battery"
        )
        # The bug is *only* visible with the substitute CHT: the same seed
        # is green under the real epoch-fenced recovery.
        assert not case_fails(spec, inject_bug=False)

        result = run_case(spec, inject_bug=True)
        assert any(
            v.invariant == "cht-consistent" for v in result.violations
        ), [str(v) for v in result.violations]

        minimal = shrink(spec, lambda s: case_fails(s, inject_bug=True))
        # The acceptance bar: one site and ≤ 3 fault events.
        assert len(minimal["web"]["sites"]) == 1
        assert len(minimal["faults"]) <= 3
        assert spec_size(minimal) <= spec_size(spec)

        # The repro document round-trips and still reproduces the failure.
        document = to_json(minimal, inject_bug=True)
        recovered, inject_bug = from_json(document)
        assert recovered == minimal and inject_bug is True
        assert case_fails(recovered, inject_bug=True)

    def test_shrink_requires_a_failing_spec(self):
        with pytest.raises(ValueError, match="failing spec"):
            shrink(generate_case(0), lambda s: case_fails(s, inject_bug=False))


class TestCli:
    def _dst(self, *args):
        return subprocess.run(
            [sys.executable, str(REPO / "tools" / "dst.py"), *args],
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_sweep_smoke(self):
        proc = self._dst("--seeds", "0..2", "--schedules", "1", "--quiet")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 failing seed(s)" in proc.stdout

    def test_replay_round_trip(self, tmp_path):
        repro = tmp_path / "repro.json"
        repro.write_text(to_json(generate_case(1)) + "\n")
        proc = self._dst("replay", str(repro))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK: no violations" in proc.stdout

    def test_replay_reports_violations(self, tmp_path):
        document = json.loads(to_json(generate_case(BUGGY_SEED), inject_bug=True))
        repro = tmp_path / "buggy.json"
        repro.write_text(json.dumps(document))
        proc = self._dst("replay", str(repro))
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout
