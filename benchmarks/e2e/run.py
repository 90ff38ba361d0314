#!/usr/bin/env python3
"""EXP-E1: the end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload warm_zipf --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --smoke               # 1 block x 12 queries each
    python3 benchmarks/e2e/run.py --out A.json ; ... --out B.json
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --record              # append to results/history.jsonl

With ``--workload`` the run happens in this process and the last line of
standard output is the driver's JSON object: the end-to-end metrics under
``--trace 0``, the per-layer metrics of the traced block under
``--trace 1``.  Without it, each workload runs in its own child process,
one after the other, so ``peak_rss_mb`` and the warm interpreter caches of
one workload never leak into the next.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: One block per second of ``--seconds``: a block of ~100 queries takes
#: about a second on the reference box.
DEFAULT_SECONDS = 10
SMOKE_QUERIES = 12
_FULL_RESULT_PREFIX = "E2E-FULL-RESULT "


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=DEFAULT_SECONDS,
        help="measurement budget: the number of ~1 s blocks (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1 adds the traced block and reports per-layer metrics (default)",
    )
    parser.add_argument("--smoke", action="store_true", help="1 block x 12 queries")
    parser.add_argument("--out", help="write the full results of this run as JSON")
    parser.add_argument("--record", action="store_true", help="append to results/history.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--emit-full", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    """One workload, in this process."""
    import measure
    import report
    from workloads import WORKLOADS

    by_name = {workload.name: workload for workload in WORKLOADS}
    if args.workload not in by_name:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(by_name)}")
    workload = by_name[args.workload]
    if args.smoke:
        blocks, count = 1, SMOKE_QUERIES
    else:
        blocks, count = args.seconds, workload.block_queries
    result = measure.run_workload(workload, args.seed, blocks, count, bool(args.trace))
    report.print_result(result)
    if args.emit_full:
        print(_FULL_RESULT_PREFIX + json.dumps(result))
    sys.stdout.flush()
    print(report.contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process each, sequentially."""
    import report
    from workloads import WORKLOADS

    results, status = [], 0
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload.name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--emit-full",
        ]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or child.returncode
        lines = child.stdout.splitlines()
        for line in lines[:-1]:  # the last line is the driver's JSON object
            if line.startswith(_FULL_RESULT_PREFIX):
                results.append(json.loads(line[len(_FULL_RESULT_PREFIX):]))
            else:
                print(line)
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "results": results}, indent=1))
    if args.record and status == 0:
        report.record(results, args.seed)
    failed = sum(result["failed"] for result in results)
    attempted = sum(result["attempted"] for result in results)
    print(f"failed_fraction over all workloads: {failed} of {attempted}")
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        # Nothing to measure without the program (e.g. a directory holding
        # only BENCHMARK.json and this benchmark): fail before any output.
        sys.stderr.write(f"cannot find the program under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.compare:
        import report

        return report.compare(*args.compare)
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
