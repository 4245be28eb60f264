"""Shared helpers for the facility-year benchmark.

``report`` prints the benchmark's aligned summary table (visible with
``pytest benchmarks/bench_facility_year.py -s``). Paper numbers are judged
by the expectation registry (``repro verify``), not here.
"""

from __future__ import annotations


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
