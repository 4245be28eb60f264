"""Differential runners: one computation, every equivalent code path.

The cost layer, the telemetry threading and the resilient DAG executor all
promise that their alternative code paths compute *the same numbers* — the
vectorized :func:`repro.cost.sweep` is bit-identical to the scalar
``evaluate`` loop, a ``telemetry=`` handle never perturbs results, and a
DAG task whose drawn failure never fires reproduces the timestamps of one
that cannot fail. Those promises are what make the ROADMAP's "refactor
freely" mandate safe, so this module checks each of them by actually
running both paths and diffing the outputs.

Each runner returns a :class:`DifferentialResult`; :func:`run_differentials`
runs the default battery used by ``repro verify`` and the conformance tests.

>>> r = sweep_bit_parity()
>>> r.passed
True
>>> r.key
'differential.sweep_bit_parity.convergence'
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "DifferentialResult",
    "app_sweep_parity",
    "checkpoint_replay_parity",
    "run_differentials",
    "sweep_bit_parity",
    "telemetry_sweep_parity",
    "workflow_telemetry_parity",
]


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one cross-path comparison."""

    key: str
    description: str
    paths: tuple[str, ...]  # the code paths that were diffed
    passed: bool
    detail: str = ""  # first mismatch, or a short summary of what agreed

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def message(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.key} [{' vs '.join(self.paths)}]: {verdict} — {self.detail}"


def _terms_equal(a, b, label: str) -> str | None:
    """First mismatching term between two SweepResult breakdowns, if any."""
    if set(a.breakdown.terms) != set(b.breakdown.terms):
        return f"{label}: term sets differ"
    for term in a.breakdown.terms:
        lhs, rhs = a.term(term), b.term(term)
        if not np.array_equal(np.broadcast_to(lhs, rhs.shape), rhs):
            return f"{label}: term {term!r} differs"
    return None


def _convergence_grid() -> tuple[Any, dict, dict]:
    from repro.cost.models import ConvergenceCostModel

    model = ConvergenceCostModel()
    grid = {"batch": [256, 1024, 4096, 16384]}
    fixed = {"min_samples": 1.15e8, "critical_batch": 4096}
    return model, grid, fixed


def sweep_bit_parity(
    model: Any = None,
    grid: dict[str, Any] | None = None,
    **fixed: Any,
) -> DifferentialResult:
    """Vectorized ``sweep`` vs scalar-loop ``sweep_scalar`` vs pointwise
    ``evaluate``: all three must agree bit-for-bit on every term.

    With no arguments, diffs the convergence cost model over a batch grid;
    pass any ``CostModel`` + grid to diff an arbitrary configuration (the
    Hypothesis suite drives this with random grids).
    """
    from repro.cost import sweep, sweep_scalar

    label = "custom"
    if model is None:
        model, grid, fixed = _convergence_grid()
        label = "convergence"
    assert grid is not None
    key = f"differential.sweep_bit_parity.{label}"
    paths = ("sweep", "sweep_scalar", "evaluate")

    vec = sweep(model, grid, **fixed)
    ref = sweep_scalar(model, grid, **fixed)
    mismatch = _terms_equal(vec, ref, "sweep vs sweep_scalar")
    if mismatch is None:
        # pointwise spot checks against plain evaluate at the grid corners
        names = tuple(grid)
        shape = tuple(len(np.asarray(v)) for v in grid.values())
        corners = {tuple(0 for _ in shape), tuple(n - 1 for n in shape)}
        for index in sorted(corners):
            config = dict(fixed)
            for name, i in zip(names, index):
                config[name] = np.asarray(grid[name])[i].item()
            point = model.evaluate(**config)
            grid_point = vec.at(*index)
            for term, value in point.items():
                if grid_point[term] != value:
                    mismatch = (
                        f"sweep vs evaluate at {index}: term {term!r} differs"
                    )
                    break
            if mismatch:
                break
    size = int(np.prod([len(np.asarray(v)) for v in grid.values()]))
    return DifferentialResult(
        key=key,
        description="vectorized sweep == scalar loop == pointwise evaluate",
        paths=paths,
        passed=mismatch is None,
        detail=mismatch or f"{size} grid points x {len(vec.breakdown.terms)} "
        "terms bit-identical across all three paths",
    )


def telemetry_sweep_parity(
    model: Any = None, grid: dict[str, Any] | None = None, **fixed: Any
) -> DifferentialResult:
    """Telemetry-on vs telemetry-off sweeps must be bit-identical.

    The telemetry-on path goes through ``evaluate_batch_staged`` on
    composite models (a genuinely different code path with per-stage
    spans), so this guards the "observability never perturbs results"
    contract from PR 3.
    """
    from repro.cost import sweep
    from repro.telemetry import Telemetry

    label = "custom"
    if model is None:
        from repro.apps.extreme_scale import get_app

        model = get_app("kurth").cost_model()
        grid = {"n_nodes": [16, 64, 256, 1024, 4560]}
        fixed = {}
        label = "kurth_step_cost"
    assert grid is not None

    plain = sweep(model, grid, **fixed)
    telemetry = Telemetry()
    observed = sweep(model, grid, telemetry=telemetry, **fixed)
    mismatch = _terms_equal(plain, observed, "telemetry-off vs telemetry-on")
    n_spans = len(telemetry.finished_spans())
    if mismatch is None and n_spans == 0:
        mismatch = "telemetry-on path recorded no spans (wrong path taken?)"
    return DifferentialResult(
        key=f"differential.telemetry_sweep_parity.{label}",
        description="telemetry handle does not perturb sweep results",
        paths=("sweep(telemetry=None)", "sweep(telemetry=Telemetry())"),
        passed=mismatch is None,
        detail=mismatch
        or f"all terms bit-identical; telemetry recorded {n_spans} spans",
    )


def _faulty_graph():
    """A small cross-facility DAG with failure-capable tasks."""
    from repro.workflows.dag import TaskGraph
    from repro.workflows.facility import Facility

    graph = TaskGraph({
        "summit": Facility(name="Summit", nodes=8, speed=1.0),
        "edge": Facility(name="Edge", nodes=2, speed=0.5),
    })
    graph.add_task("stage", 120.0, "summit", nodes=2)
    graph.add_task(
        "train", 3600.0, "summit", nodes=4, deps=("stage",),
        failure_rate=1 / 1800.0, checkpoint_interval=300.0,
        checkpoint_write_time=15.0,
    )
    graph.add_task(
        "simulate", 1800.0, "edge", nodes=2, deps=("stage",),
        failure_rate=1 / 3600.0,
    )
    graph.add_task("analyze", 300.0, "summit", deps=("train", "simulate"))
    return graph


def _run_fingerprint(run) -> dict:
    """Every externally observable number of a WorkflowRun."""
    return {
        "makespan": run.makespan,
        "start_times": dict(run.start_times),
        "end_times": dict(run.end_times),
        "busy": run.busy_node_seconds,
        "useful": run.useful_node_seconds,
        "lost": run.lost_node_seconds,
        "checkpoint": run.checkpoint_node_seconds,
    }


def _execute_fingerprint(graph, **kwargs) -> dict:
    """Fingerprint an execution; a retry-budget abort is itself an outcome
    that both paths must reproduce identically."""
    from repro.errors import SimulationError

    try:
        return _run_fingerprint(graph.execute(**kwargs))
    except SimulationError as exc:
        return {"aborted": str(exc)}


def workflow_telemetry_parity(seed: int = 0) -> DifferentialResult:
    """Fault-injected DAG execution with vs without telemetry.

    The telemetry-on executor opens attempt/node spans and counter tracks —
    a materially different code path — yet every timestamp, retry draw and
    node-second total must match the bare run exactly.
    """
    from repro.telemetry import Telemetry

    a = _execute_fingerprint(_faulty_graph(), seed=seed)
    telemetry = Telemetry()
    b = _execute_fingerprint(_faulty_graph(), seed=seed, telemetry=telemetry)
    mismatch = next(
        (k for k in a if k not in b or a[k] != b[k]),
        None if set(a) == set(b) else "outcome kind",
    )
    if mismatch is None and "aborted" in a:
        outcome = f"both runs aborted identically ({a['aborted']})"
    elif mismatch is None:
        outcome = (
            f"identical run (makespan {a['makespan']:.1f}s, "
            f"{len(telemetry.finished_spans())} spans recorded)"
        )
    else:
        outcome = f"field {mismatch!r} differs between paths"
    return DifferentialResult(
        key="differential.workflow_telemetry_parity",
        description="telemetry handle does not perturb DAG execution",
        paths=("execute()", "execute(telemetry=Telemetry())"),
        passed=mismatch is None,
        detail=outcome,
    )


def checkpoint_replay_parity(seed: int = 0) -> DifferentialResult:
    """A drawn failure that never fires vs none drawn at all, plus
    same-seed replay identity of a genuinely fault-injected run.

    A task with an astronomically small ``failure_rate`` draws its failure
    times but never actually fails; a ``failure_rate=0`` task draws
    nothing. Both run the executor's one attempt loop, and their
    timestamps must be equal. And re-running the *interrupted* graph
    with the same seed must reproduce every timestamp.
    """
    from repro.workflows.dag import TaskGraph
    from repro.workflows.facility import Facility

    def build(failure_rate: float) -> TaskGraph:
        graph = TaskGraph({"summit": Facility(name="Summit", nodes=8)})
        graph.add_task("stage", 100.0, "summit", nodes=2,
                       failure_rate=failure_rate)
        graph.add_task("train", 2000.0, "summit", nodes=4, deps=("stage",),
                       failure_rate=failure_rate)
        graph.add_task("analyze", 200.0, "summit", deps=("train",))
        return graph

    fault_free = build(0.0).execute(seed=seed)
    negligible = build(1e-12).execute(seed=seed)
    a, b = _run_fingerprint(fault_free), _run_fingerprint(negligible)
    mismatch = next(
        (f"fault path vs fault-free: field {k!r} differs" for k in a
         if a[k] != b[k]),
        None,
    )

    if mismatch is None:
        fa = _execute_fingerprint(_faulty_graph(), seed=seed)
        fb = _execute_fingerprint(_faulty_graph(), seed=seed)
        if set(fa) != set(fb):
            mismatch = "same-seed replay: outcome kind differs"
        else:
            mismatch = next(
                (f"same-seed replay: field {k!r} differs" for k in fa
                 if fa[k] != fb[k]),
                None,
            )
        # a lucky seed may draw no faults at all; only the curated default
        # is required to actually exercise the interruption path
        if mismatch is None and seed == 0 and fa.get("lost") == 0.0:
            mismatch = (
                "fault-injected graph lost no node-seconds "
                "(interruption path never exercised)"
            )

    return DifferentialResult(
        key="differential.checkpoint_replay_parity",
        description="no-fault fault path == fault-free path; "
        "same-seed replays are identical",
        paths=("failure_rate=0", "failure_rate=1e-12", "same-seed replay"),
        passed=mismatch is None,
        detail=mismatch
        or f"timestamps identical (makespan {a['makespan']:.1f}s); "
        "interrupted replay reproduced exactly",
    )


def app_sweep_parity(
    app_key: str = "blanchard", n_nodes: tuple[int, ...] = (96, 768, 4032)
) -> DifferentialResult:
    """App node sweep vs per-point ``job(n).breakdown()``: bit-identical.

    Guards the PR 2 contract that the vectorized cost layer reproduces the
    original training-job step formulas exactly — the foundation every
    Section IV-B registry number rests on.
    """
    from repro.apps.extreme_scale import get_app

    app = get_app(app_key)
    result = app.sweep_nodes(list(n_nodes))
    mismatch = None
    for i, n in enumerate(n_nodes):
        scalar = app.job(int(n)).breakdown()
        grid_total = float(result.total()[i])
        if grid_total != scalar.total:
            mismatch = (
                f"n_nodes={n}: sweep total {grid_total!r} != "
                f"job breakdown total {scalar.total!r}"
            )
            break
    return DifferentialResult(
        key=f"differential.app_sweep_parity.{app_key}",
        description="vectorized app node sweep == scalar job breakdowns",
        paths=("sweep_nodes", "job(n).breakdown()"),
        passed=mismatch is None,
        detail=mismatch
        or f"{len(n_nodes)} node counts bit-identical for {app_key!r}",
    )


def run_differentials(seed: int = 0) -> list[DifferentialResult]:
    """The default cross-path battery, in deterministic order."""
    return [
        sweep_bit_parity(),
        telemetry_sweep_parity(),
        workflow_telemetry_parity(seed=seed),
        checkpoint_replay_parity(seed=seed),
        app_sweep_parity("blanchard"),
        app_sweep_parity("khan", n_nodes=(8, 128, 1024)),
    ]
