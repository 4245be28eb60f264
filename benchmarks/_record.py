"""Machine-readable benchmark records: ``BENCH_<name>.json`` emitters.

Human-facing benchmark output (the ``report`` tables in ``conftest``)
scrolls away with the CI log; these records persist the numbers. A
benchmark calls :func:`record` once with its key scalars; the helper adds
wall-clock, the git SHA and the smoke flag, and writes
``BENCH_<name>.json`` into ``$REPRO_BENCH_DIR`` (default: the current
working directory) so CI can upload the files as artifacts and
``check_engine_floor.py`` can ratchet them.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path
from typing import Any

__all__ = ["record"]


def _git_sha() -> str | None:
    """The repo's HEAD SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def record(
    name: str, scalars: dict[str, Any], wall_seconds: float | None = None
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    ``scalars`` is the benchmark's own payload (timings, speedups, grid
    sizes — JSON-serialisable values only); ``wall_seconds`` is the
    benchmark's overall wall-clock when the caller measured one.
    """
    payload = {
        "name": name,
        "wall_seconds": wall_seconds,
        "scalars": scalars,
        "git_sha": _git_sha(),
        "smoke": bool(os.environ.get("REPRO_SMOKE")),
    }
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    path = out_dir / f"BENCH_{name}.json"
    try:
        from repro.atomicio import atomic_write_text
    except ImportError:  # pragma: no cover - repro not importable
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path

