"""CI ratchet: fail when a benchmark record drops below its committed floor.

Usage::

    python benchmarks/check_engine_floor.py [BENCH_facility_year.json] [facility_year_floor.json]

The floor file holds one block per tier (``smoke`` / ``full``); the tier
is picked from the benchmark record's own ``smoke`` flag, so the same
command works for the CI smoke run and a local full run. Every key in the
selected block must be present in the record's scalars and meet its
minimum. The floor only ever ratchets up: when the code gets faster,
raise the floor file's numbers — never lower them to paper over a
regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def check(bench_path: str, floor_path: str) -> int:
    bench = json.loads(Path(bench_path).read_text())
    floors = json.loads(Path(floor_path).read_text())
    tier = "smoke" if bench.get("smoke") else "full"
    scalars = bench.get("scalars", {})
    failures = []
    for key, minimum in sorted(floors[tier].items()):
        measured = scalars.get(key)
        if not isinstance(measured, (int, float)) or measured < minimum:
            failures.append(
                f"{key}: measured {measured!r} < floor {minimum} [{tier}]"
            )
        else:
            print(f"OK {key}: {measured:,.2f} >= {minimum:,.2f} [{tier}]")
    if failures:
        print("benchmark ratchet FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"benchmark ratchet passed ({tier} floor)")
    return 0


if __name__ == "__main__":
    bench = (
        sys.argv[1] if len(sys.argv) > 1
        else "artifacts/BENCH_facility_year.json"
    )
    floor = (
        sys.argv[2] if len(sys.argv) > 2
        else str(Path(__file__).with_name("facility_year_floor.json"))
    )
    sys.exit(check(bench, floor))
