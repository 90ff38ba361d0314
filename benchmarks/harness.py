"""Shared reporting harness for the experiment benches.

Each bench regenerates one paper artifact (figure) or quantifies one claim
(DESIGN.md Section 5).  Besides pytest-benchmark's timing table, every bench
emits its experiment table to stdout *and* to ``benchmarks/results/<id>.txt``
so the numbers survive captured output and feed EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

RESULTS_DIR = Path(__file__).parent / "results"


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def report(exp_id: str, title: str, body: str) -> None:
    """Print and persist one experiment's output."""
    text = f"== {exp_id}: {title} ==\n{body}\n"
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{exp_id}.txt").write_text(text)


def ratio(numerator: float, denominator: float) -> str:
    """A human-readable x-factor, guarding division by zero."""
    if denominator == 0:
        return "inf"
    return f"{numerator / denominator:.2f}x"
