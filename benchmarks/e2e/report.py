"""Printing, ``--compare`` and ``--record`` for the end-to-end benchmark."""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from pathlib import Path

__all__ = [
    "compare",
    "contract_line",
    "layer_shares",
    "load_contract",
    "print_result",
    "record",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HISTORY = HERE / "results" / "history.jsonl"


def load_contract() -> dict:
    """BENCHMARK.json: the metric names, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def layer_shares(result: dict) -> dict[str, float]:
    """Each timed layer metric as a share of the traced block's in-flight
    wall (``bench.unattributed_s`` is the rest, so the shares sum to 1)."""
    layers = result.get("layers")
    if not layers:
        return {}
    busy = result["traced_busy_s"]
    return {
        name: entry["value"] / busy
        for name, entry in layers.items()
        if entry["unit"] == "s" and name != "core.server.modelled_service_s"
    }


def print_result(result: dict) -> None:
    """Every metric by name, with unit and block spread; then the layers."""
    print(
        f"== {result['workload']}: seed {result['seed']}, {result['blocks']} blocks x "
        f"{result['block_queries']} timed queries, {result['tenants']} closed-loop "
        f"client(s), {result['transport']} transport =="
    )
    for name, entry in result["e2e"].items():
        blocks = entry["per_block"]
        spread = (
            f"   blocks {min(blocks):.4f} .. {max(blocks):.4f}, median {statistics.median(blocks):.4f}"
            if len(blocks) > 1
            else ""
        )
        print(f"  {name:<22}{entry['value']:>14.4f} {entry['unit']:<6}{spread}")
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"  {'failed_fraction':<22}{failed / attempted:>14.4f} {'ratio':<6}"
        f"   {failed} of {attempted} queries (oracle took verify_s = {result['verify_s']:.2f} s)"
    )
    layers = result.get("layers")
    if layers:
        shares = layer_shares(result)
        print(f"  -- per layer, traced block ({result['traced_busy_s']:.3f} s in flight) --")
        for name, entry in layers.items():
            share = f"   {100 * shares[name]:5.1f}%" if name in shares else ""
            value = entry["value"]
            text = f"{value:>14.4f}" if isinstance(value, float) else f"{value:>14d}"
            print(f"  {name:<38}{text} {entry['unit']:<6}{share}")
    for problem in result["self_check"]:
        print(f"  SPAN SELF-CHECK FAILED: {problem}")


def contract_line(result: dict, trace: bool) -> str:
    """The driver's last line: end-to-end metrics untraced, layers traced."""
    source = result["layers"] if trace else result["e2e"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in source.items()
            },
        }
    )


# --- --compare -----------------------------------------------------------------


def _spread(entry: dict) -> float:
    """How far a run's blocks are from agreeing on the reported value.

    For a best-block metric: the gap to the runner-up block (a best block
    nothing comes close to may be a fluke).  For a median metric: the
    distance between the blocks' quartiles.  Both as a share of the value.
    """
    blocks, value = sorted(entry["per_block"]), entry["value"]
    if len(blocks) < 2 or not value:
        return 0.0
    if value == blocks[0]:
        return (blocks[1] - blocks[0]) / value
    if value == blocks[-1]:
        return (blocks[-1] - blocks[-2]) / value
    quartiles = statistics.quantiles(blocks, n=4)
    return (quartiles[2] - quartiles[0]) / value


def compare(path_a: str, path_b: str) -> int:
    """B against A under BENCHMARK.json's bounds; returns the exit code.

    One row per (end-to-end metric, workload): both values, B/A with A as
    the base, and a verdict.  A pairing is *unresolved* when either run's
    blocks disagree on its value by more than the bound (:func:`_spread`)
    — the difference cannot be told from noise — unless every block of B
    reads better than every block of A.
    """
    runs_a = {r["workload"]: r for r in json.loads(Path(path_a).read_text())["results"]}
    runs_b = {r["workload"]: r for r in json.loads(Path(path_b).read_text())["results"]}
    gated = load_contract()["end_to_end"]
    worse = unresolved = 0
    print(f"{'workload':<14}{'metric':<22}{'A':>12}{'B':>12}{'B/A':>8}{'bound':>7}  verdict")
    for workload in runs_a:
        if workload not in runs_b:
            continue
        a, b = runs_a[workload], runs_b[workload]
        for metric in gated:
            name, bound = metric["name"], metric["bound"]
            ea, eb = a["e2e"][name], b["e2e"][name]
            ratio = eb["value"] / ea["value"]
            if metric["better"] == "lower":
                worsening = ratio - 1.0
                all_better = max(eb["per_block"]) < min(ea["per_block"])
            else:
                worsening = 1.0 - ratio
                all_better = min(eb["per_block"]) > max(ea["per_block"])
            if max(_spread(ea), _spread(eb)) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "WORSE" if worsening > bound else "better" if worsening < -bound else "ok"
            worse += verdict == "WORSE"
            unresolved += verdict == "unresolved"
            print(
                f"{workload:<14}{name:<22}{ea['value']:>12.4f}{eb['value']:>12.4f}"
                f"{ratio:>8.3f}{bound:>7.2f}  {verdict}"
            )
        # failed_fraction has an absolute bound of zero.
        fa, fb = a["failed"] / a["attempted"], b["failed"] / b["attempted"]
        verdict = "ok" if fb <= fa else "WORSE"
        worse += verdict == "WORSE"
        print(
            f"{workload:<14}{'failed_fraction':<22}{fa:>12.4f}{fb:>12.4f}"
            f"{'':>8}{0:>7.2f}  {verdict}"
        )
    print(f"{worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


# --- --record ------------------------------------------------------------------


def _commit() -> str:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def record(results: list[dict], seed: int) -> None:
    """Append one commit-stamped line to the benchmark's own history."""
    entry = {
        "commit": _commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "workloads": {
            result["workload"]: {
                "e2e": {name: e["value"] for name, e in result["e2e"].items()},
                "failed_fraction": result["failed"] / result["attempted"],
                "layer_shares": {
                    name: round(share, 4) for name, share in layer_shares(result).items()
                },
            }
            for result in results
        },
    }
    HISTORY.parent.mkdir(exist_ok=True)
    with HISTORY.open("a") as history:
        history.write(json.dumps(entry) + "\n")
    print(f"recorded {entry['commit']} in {HISTORY.relative_to(ROOT)}")
