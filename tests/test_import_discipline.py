"""Each entry point imports only what it runs.

A short-lived process pays for every module it imports before it does any
work, so an import edge to a subsystem an entry point never calls is a
start-up cost, not a style question. Each test starts a fresh interpreter,
imports one entry point the way its users do, and asserts that
``sys.modules`` holds none of the packages that entry point never runs.

When one fails, ``python -X importtime -c "<the code below>"`` prints the
import tree; the forbidden package's parents in that tree name the edge.
Cut it by the repository's import rules (DESIGN.md): an annotation-only
import goes under ``TYPE_CHECKING``, a package ``__init__`` that no caller
imports names from re-exports nothing, and a dependency that one function
uses is imported inside that function.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The perfbench facility-year workload's modules: ``Scheduler.run`` with
#: a ``FaultModel`` over a synthetic job stream.
FACILITY_YEAR = (
    "import repro.scheduler.jobs, repro.scheduler.simulator, "
    "repro.scheduler.faults"
)
#: The perfbench workflow-dag workload's modules: a resilient task graph
#: traced into telemetry shards.
WORKFLOW_DAG = (
    "import repro.workflows.dag, repro.workflows.facility, "
    "repro.resilience.retry, repro.telemetry, repro.telemetry.stream"
)
#: Every ``repro`` command builds the full parser before it dispatches.
CLI = "import repro.cli; repro.cli.build_parser()"
#: ``repro serve``/``repro work``: the CLI plus the campaign service.
CLI_SERVICE = CLI + "; import repro.service"

NOT_THE_CLI = ("networkx", "repro.ml", "repro.optim", "repro.science",
               "repro.workflows", "repro.verify")

CASES = {
    "facility-year": (FACILITY_YEAR, (
        "networkx", "repro.portfolio", "repro.machine", "repro.network",
        "repro.storage", "repro.cost", "repro.ml", "repro.telemetry",
        "repro.workflows",
    )),
    "workflow-dag": (WORKFLOW_DAG, (
        "networkx", "repro.ml", "repro.optim", "repro.science",
        "repro.storage", "repro.cost", "repro.portfolio", "repro.machine",
        "repro.network", "repro.scheduler",
    )),
    "cli-parser": (CLI, NOT_THE_CLI),
    "cli-service": (CLI_SERVICE, NOT_THE_CLI),
}


def _modules_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry_point", sorted(CASES))
def test_entry_point_loads_no_subsystem_it_never_runs(entry_point):
    code, forbidden = CASES[entry_point]
    loaded = _modules_after(code)
    assert "repro" in loaded
    stray = [f for f in forbidden
             if any(m == f or m.startswith(f + ".") for m in loaded)]
    assert not stray, (
        f"{entry_point} ({code!r}) imports {stray}; find the edge with "
        f"python -X importtime -c {code!r}"
    )
