"""Byte-exact goldens for the ``repro telemetry`` scenario exports.

Each canned scenario (dag, scheduler, restart) is exported at seed 0
through the CLI, exactly as ``python -m repro.cli telemetry --scenario
<name> --out <trace> --jsonl-out <records>`` writes it, and both files
must match the committed goldens byte for byte. Together they pin the
engine's event order, the scheduler replay, the injector's rng stream and
every telemetry record (the DAG export includes the ``facility="trace"``
start/end/failure/retry instants) across commits, not just run to run.
The text ``summary`` of each scenario's handle is pinned the same way,
so the rollup behind it (per-category totals, utilization integrals,
metrics) cannot drift in its printed digits either.

To regenerate after an *intentional* contract change::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_scenario_goldens.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.cli import main
from repro.telemetry import summary
from repro.telemetry.scenarios import run_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SCENARIOS = ("dag", "scheduler", "restart")
SUFFIXES = ("trace.json", "jsonl")


def _golden_path(name: str, suffix: str) -> pathlib.Path:
    return GOLDEN_DIR / f"scenario_{name}_seed0.{suffix}"


def _check_golden(name: str, suffix: str, data: bytes) -> None:
    """Byte-compare ``data`` with its golden (or rewrite it on regen)."""
    path = _golden_path(name, suffix)
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        path.write_bytes(data)
        return
    assert path.exists(), (
        f"{path.name} missing - run with REPRO_REGEN_GOLDENS=1 to "
        "create it"
    )
    assert data == path.read_bytes(), (
        f"{path.name} drifted: the {name} scenario no longer exports "
        "the committed seed-0 bytes"
    )


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_exports_match_goldens(name, tmp_path, capsys):
    out = {suffix: tmp_path / f"out.{suffix}" for suffix in SUFFIXES}
    assert main([
        "telemetry", "--scenario", name, "--seed", "0",
        "--out", str(out["trace.json"]), "--jsonl-out", str(out["jsonl"]),
    ]) == 0
    capsys.readouterr()
    for suffix in SUFFIXES:
        _check_golden(name, suffix, out[suffix].read_bytes())
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        pytest.skip(f"regenerated the {name} scenario goldens")


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_summary_matches_golden(name):
    text = summary(run_scenario(name, seed=0).telemetry) + "\n"
    _check_golden(name, "summary.txt", text.encode("utf-8"))
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        pytest.skip(f"regenerated the {name} summary golden")


def test_dag_golden_carries_the_trace_instants():
    """The DAG export keeps its start/end/failure/retry trace instants."""
    text = _golden_path("dag", "jsonl").read_text()
    assert text.count('"trace_event":true') == 30
