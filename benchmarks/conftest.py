"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and prints
a paper-vs-measured comparison (visible with ``pytest benchmarks/
--benchmark-only -s``). Assertions pin the reproduced *shape* so the bench
suite doubles as a regression gate for the calibrations in EXPERIMENTS.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

# the test oracles (``tests.oracles``) double as benchmark baselines
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def report(title: str, rows: list[tuple], header: tuple = ()) -> None:
    """Print an aligned paper-vs-measured table."""
    print()
    print(f"== {title} ==")
    if header:
        print("  " + " | ".join(f"{h:>18}" for h in header))
    for row in rows:
        print("  " + " | ".join(f"{_fmt(cell):>18}" for cell in row))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)
