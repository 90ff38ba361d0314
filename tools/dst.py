#!/usr/bin/env python
"""Deterministic-simulation-testing driver for the WEBDIS repro.

Sweep a seed corpus (each seed = one generated web + query + fault
schedule, run under several event orderings)::

    PYTHONPATH=src python tools/dst.py --seeds 0..255
    python tools/dst.py --seeds 0..63 --schedules 2          # CI smoke
    python tools/dst.py --seeds 0..40 --inject-bug           # bug-flag demo

On a failing seed the case is shrunk to a minimal repro and written as
JSON (default ``dst-repro-<seed>.json``); the exit code is non-zero.

Replay a repro file::

    python tools/dst.py replay dst-repro-17.json

Every run is a pure function of its seeds: rerunning the same command
reproduces the same results bit-identically (the driver itself re-checks
this per seed via run fingerprints).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.testing import case_fails, run_case, run_seed, shrink, spec_size  # noqa: E402
from repro.testing.runner import run_case_asyncio  # noqa: E402
from repro.testing.shrink import from_json, to_json  # noqa: E402


def parse_seed_range(text: str) -> list[int]:
    """``"0..63"`` (inclusive), ``"7"``, or comma-joined mixes of both."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def sweep(args: argparse.Namespace) -> int:
    seeds = parse_seed_range(args.seeds)
    statuses: Counter = Counter()
    failures = 0
    for seed in seeds:
        result = run_seed(
            seed,
            schedules=args.schedules,
            inject_bug=args.inject_bug,
            check_determinism=not args.no_determinism,
        )
        for case in result.cases:
            statuses[case.status] += 1
        if result.ok:
            if not args.quiet:
                rows = result.cases[0].rows
                print(
                    f"seed {seed:4d}: ok "
                    f"({'/'.join(c.status for c in result.cases)}, {rows} row(s))"
                )
            continue
        failures += 1
        print(f"seed {seed:4d}: FAIL")
        for violation in result.violations:
            print(f"    {violation}")
        failing = next(
            (case for case in result.cases if not case.ok), result.cases[0]
        )
        repro_path = Path(args.repro or f"dst-repro-{seed}.json")
        print("  shrinking (this reruns the case repeatedly) ...")
        minimal = shrink(
            failing.spec,
            lambda spec: case_fails(spec, inject_bug=args.inject_bug),
            progress=None if args.quiet else lambda msg: print(f"    {msg}"),
        )
        repro_path.write_text(to_json(minimal, inject_bug=args.inject_bug) + "\n")
        print(f"  minimal repro ({spec_size(minimal)}) -> {repro_path}")
        if not args.keep_going:
            break
    print(
        f"\n{len(seeds)} seed(s), {args.schedules} schedule(s) each: "
        f"{dict(sorted(statuses.items()))}; {failures} failing seed(s)"
    )
    return 1 if failures else 0


def replay(args: argparse.Namespace) -> int:
    spec, inject_bug = from_json(Path(args.file).read_text())
    if args.transport == "asyncio":
        # Approximate replay on real sockets: same web/query/fault shape,
        # wall-clock timing, invariant checks only (no fingerprint — real
        # arrival order is not deterministic).
        if inject_bug:
            print("note: --inject-bug repros replay on the simulator only")
        result = run_case_asyncio(spec, time_scale=args.time_scale)
        print(
            f"replay[asyncio]: faulted={result.status} rows={result.rows} "
            f"epoch={result.recovery_epoch}"
        )
    else:
        result = run_case(spec, inject_bug=inject_bug)
        print(
            f"replay: clean={result.clean_status} faulted={result.status} "
            f"rows={result.rows} epoch={result.recovery_epoch} "
            f"fingerprint={result.fingerprint[:16]}"
        )
    if result.violations:
        for violation in result.violations:
            print(f"  {violation}")
        print(f"FAIL: {len(result.violations)} violation(s)")
        return 1
    print("OK: no violations")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    sub = parser.add_subparsers(dest="command")

    sweep_args = parser  # sweep options live on the top-level parser
    sweep_args.add_argument("--seeds", default="0..63", help="e.g. 0..255 or 3,7,9")
    sweep_args.add_argument("--schedules", type=int, default=2,
                            help="tie-break orderings per seed (first is FIFO)")
    sweep_args.add_argument("--inject-bug", action="store_true",
                            help="re-introduce the unfenced-recovery bug (demo)")
    sweep_args.add_argument("--no-determinism", action="store_true",
                            help="skip the same-seed rerun fingerprint check")
    sweep_args.add_argument("--keep-going", action="store_true",
                            help="scan all seeds instead of stopping at the first failure")
    sweep_args.add_argument("--repro", default=None,
                            help="path for the shrunk repro JSON")
    sweep_args.add_argument("--quiet", action="store_true")

    replay_parser = sub.add_parser("replay", help="re-run a shrunk repro JSON")
    replay_parser.add_argument("file")
    replay_parser.add_argument(
        "--transport", choices=("sim", "asyncio"), default="sim",
        help="sim = deterministic replay; asyncio = approximate replay on "
             "real sockets with per-frame chaos verdicts",
    )
    replay_parser.add_argument(
        "--time-scale", type=float, default=1.0,
        help="wall seconds per sim second for asyncio fault windows",
    )

    args = parser.parse_args(argv)
    if args.command == "replay":
        return replay(args)
    return sweep(args)


if __name__ == "__main__":
    raise SystemExit(main())
