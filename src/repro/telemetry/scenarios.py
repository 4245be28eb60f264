"""Canned instrumented scenarios for the ``telemetry`` CLI subcommand.

Each scenario builds a small, deterministic simulation with a fresh
:class:`~repro.telemetry.Telemetry` handle attached, runs it, and returns
the handle plus human-readable report lines. The scenarios are sized so
that per-node tracks are on (every facility fits under
``DEFAULT_MAX_NODE_TRACKS``) and so that the seeded failure draws
actually produce fault instant events — a trace with no faults would not
exercise the instrumentation the paper's resilience strand is about.

Determinism contract: running the same scenario twice with the same seed
produces byte-identical Chrome-trace exports (asserted in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.telemetry.context import Telemetry

__all__ = ["Scenario", "SCENARIOS", "run_scenario", "run_scenario_replicas"]


@dataclass
class Scenario:
    """Outcome of one instrumented scenario run."""

    name: str
    telemetry: Telemetry
    report_lines: list[str] = field(default_factory=list)
    #: scenario-specific scalar results, for machine consumption (--json)
    results: dict = field(default_factory=dict)


def _hub_facility(machine) -> tuple[str, float]:
    """The leadership hub of a scenario: (display name, relative speed).

    ``machine=None`` is the historical Summit hub at speed 1.0 (the
    byte-identity baseline); a registry machine renames the hub and scales
    its speed by per-node mixed-precision peak relative to Summit's node.
    """
    if machine is None:
        return "Summit", 1.0
    from repro.machine.gpu import Precision
    from repro.machine.spec import SUMMIT, resolve_machine

    spec = resolve_machine(machine)
    speed = (
        spec.node().peak_flops(Precision.MIXED)
        / SUMMIT.node().peak_flops(Precision.MIXED)
    )
    return spec.name, speed


def _dag(seed: int, machine=None, sink=None) -> Scenario:
    """Multi-facility campaign DAG with failures and checkpoint-restart.

    A Trifan-style loop: simulation ensembles feed surrogate training,
    whose output steers the next ensemble round. The wide simulation tasks
    carry a failure rate high enough that the seeded draws produce real
    failures, retries and checkpoint restores. ``machine`` swaps the
    leadership hub for a registry machine (name + per-node speed).
    """
    from repro.resilience.retry import RetryPolicy
    from repro.workflows.dag import TaskGraph
    from repro.workflows.facility import Facility

    tel = Telemetry(sink=sink)
    hub_name, hub_speed = _hub_facility(machine)
    facilities = {
        "summit": Facility(name=hub_name, nodes=8, speed=hub_speed),
        "thetagpu": Facility(name="ThetaGPU", nodes=4, speed=1.6),
        "cs2": Facility(name="Cerebras CS-2", nodes=1, speed=10.0),
    }
    graph = TaskGraph(facilities)
    for i in range(4):
        graph.add_task(
            f"sim{i}", duration=600.0, facility="summit", nodes=2,
            failure_rate=1 / 400.0, checkpoint_interval=120.0,
            checkpoint_write_time=5.0,
        )
    graph.add_task(
        "train", duration=900.0, facility="cs2", nodes=1,
        deps=[f"sim{i}" for i in range(4)],
        failure_rate=1 / 2000.0, checkpoint_interval=300.0,
        checkpoint_write_time=10.0,
    )
    graph.add_task("analyze", duration=300.0, facility="thetagpu", nodes=4,
                   deps=["train"])
    for i in range(2):
        graph.add_task(
            f"refine{i}", duration=450.0, facility="summit", nodes=4,
            deps=["analyze"],
            failure_rate=1 / 500.0, checkpoint_interval=90.0,
            checkpoint_write_time=5.0,
        )
    run = graph.execute(
        retry=RetryPolicy(max_attempts=12), seed=seed, telemetry=tel,
    )
    report = run.resilience_report("dag-campaign")
    lines = [
        f"makespan            {run.makespan:.1f} s",
        f"failures / retries  {run.n_failures} / {run.n_retries}",
        f"checkpoints         {run.n_checkpoints}",
        f"goodput fraction    {run.goodput_fraction:.4f}",
        f"lost node-hours     {run.lost_node_hours:.4f}",
        "",
        "cross-check against the ResilienceReport built from the run:",
        f"  report goodput    {report.goodput_fraction:.4f} "
        f"({'match' if report.goodput_fraction == run.goodput_fraction else 'MISMATCH'})",
        f"  report lost n-h   {report.lost_node_hours:.4f} "
        f"({'match' if report.lost_node_hours == run.lost_node_hours else 'MISMATCH'})",
    ]
    return Scenario(
        name="dag", telemetry=tel, report_lines=lines,
        results={
            "makespan_seconds": run.makespan,
            "n_failures": run.n_failures,
            "n_retries": run.n_retries,
            "n_checkpoints": run.n_checkpoints,
            "goodput_fraction": run.goodput_fraction,
            "lost_node_hours": run.lost_node_hours,
            "report_goodput_fraction": report.goodput_fraction,
            "report_lost_node_hours": report.lost_node_hours,
        },
    )


def _scheduler(seed: int, machine=None, sink=None) -> Scenario:
    """Batch scheduler under failures: a loaded queue on a small machine.

    The scheduled machine is 32 nodes for the historical default; with a
    registry ``machine`` it scales as the same fraction of that machine's
    node count (Summit's 4 608 nodes -> 32), clamped to [8, 128] so the
    scenario stays small enough to trace (and the widest job still fits).
    """
    import numpy as np

    from repro.scheduler import Job, Policy, Scheduler
    from repro.scheduler.faults import FaultModel

    machine_size = 32
    if machine is not None:
        from repro.machine.spec import resolve_machine

        # floor of 16: the widest synthetic job must still fit the machine
        machine_size = max(16, min(128, resolve_machine(machine).node_count // 144))

    tel = Telemetry(sink=sink)
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(24):
        nodes = int(rng.choice([1, 2, 4, 8, 16], p=[.3, .25, .2, .15, .1]))
        jobs.append(Job(
            f"j{i:02d}", nodes,
            float(rng.uniform(600.0, 7200.0)),
            float(rng.uniform(0.0, 3600.0)),
            uses_ai=bool(i % 3 == 0),
        ))
    faults = FaultModel(
        node_mtbf_seconds=6e5, checkpoint_interval=1800.0, seed=seed
    )
    result = Scheduler(machine_size, Policy.CAPABILITY).run(
        jobs, faults=faults, telemetry=tel
    )
    lines = [
        f"makespan            {result.makespan:.1f} s",
        f"utilization         {result.utilization:.4f}",
        f"failures / requeues {result.n_failures} / {result.n_requeues}",
        f"goodput fraction    {result.goodput_fraction:.4f}",
        f"lost node-hours     {result.lost_node_hours:.4f}",
    ]
    return Scenario(
        name="scheduler", telemetry=tel, report_lines=lines,
        results={
            "makespan_seconds": result.makespan,
            "utilization": result.utilization,
            "n_failures": result.n_failures,
            "n_requeues": result.n_requeues,
            "goodput_fraction": result.goodput_fraction,
            "lost_node_hours": result.lost_node_hours,
        },
    )


def _restart(seed: int, machine=None, sink=None) -> Scenario:
    """One checkpointed job under Young/Daly-interval checkpoint-restart.

    The historical 90 s checkpoint is the Summit-NVMe write time for a
    fixed per-node payload; with a registry ``machine`` the same payload is
    written to that machine's fastest tier (node-local NVMe, or the shared
    filesystem when the machine has none).
    """
    from repro.resilience.restart import simulate_checkpoint_restart

    write_time = 90.0
    if machine is not None:
        from repro.machine.spec import SUMMIT, resolve_machine

        spec = resolve_machine(machine)
        payload = 90.0 * SUMMIT.nvme_write_bandwidth  # Summit-equivalent bytes
        if spec.has_nvme:
            rate = spec.nvme_write_bandwidth
        else:
            # 1024 clients share the aggregate, each capped per-client
            rate = min(
                spec.fs_per_client_bandwidth,
                spec.fs_aggregate_write_bandwidth / 1024,
            )
        write_time = payload / rate

    tel = Telemetry(sink=sink)
    stats = simulate_checkpoint_restart(
        work_seconds=40 * 3600.0,
        interval=1800.0,
        write_time=write_time,
        n_nodes=1024,
        node_mtbf_seconds=5 * 365 * 24 * 3600.0,
        seed=seed,
        restart_delay=300.0,
        telemetry=tel,
    )
    lines = [
        f"wall / work         {stats.wall_seconds:.0f} / "
        f"{stats.work_seconds:.0f} s",
        f"failures            {stats.n_failures}",
        f"checkpoints         {stats.n_checkpoints}",
        f"overhead fraction   {stats.overhead_fraction:.4f}",
        f"goodput fraction    {stats.goodput_fraction:.4f}",
    ]
    return Scenario(
        name="restart", telemetry=tel, report_lines=lines,
        results={
            "wall_seconds": stats.wall_seconds,
            "work_seconds": stats.work_seconds,
            "n_failures": stats.n_failures,
            "n_checkpoints": stats.n_checkpoints,
            "overhead_fraction": stats.overhead_fraction,
            "goodput_fraction": stats.goodput_fraction,
        },
    )


SCENARIOS = {
    "dag": _dag,
    "scheduler": _scheduler,
    "restart": _restart,
}


def run_scenario(
    name: str, seed: int = 0, machine=None, sink=None
) -> Scenario:
    """Run one named scenario; raises on unknown names.

    ``machine`` (registry name or spec) re-parameterizes the scenario's
    machine-dependent knobs; ``None`` keeps the historical Summit-calibrated
    values and byte-identical traces. ``sink`` spills the scenario's
    telemetry out-of-core instead of materializing it (the caller closes
    the returned handle when the records should be sealed).
    """
    if name not in SCENARIOS:
        raise ConfigurationError(
            f"unknown telemetry scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name](seed, machine=machine, sink=sink)


def run_scenario_replicas(
    name: str,
    n_replicas: int,
    seed: int = 0,
    machine=None,
    sink=None,
) -> tuple[Telemetry, list[Scenario]]:
    """Run ``n_replicas`` seeded replicas of one scenario and merge traces.

    Replica ``i`` runs with ``spawn_seeds(seed, n_replicas)[i]``, the
    ``i``-th ``SeedSequence`` child of ``seed``, and every replica's
    telemetry is absorbed — span ids re-issued, parent links preserved,
    facility and resource names suffixed with ``" [rI]"`` so replica
    timelines stay distinct — into one merged handle whose trace passes
    the span-tree invariant audit.

    ``sink`` makes the *merged* handle sink-backed: each replica still runs
    in-memory, but the merge streams every absorbed record straight to the
    sink, so the combined trace never materializes — the out-of-core path
    for wide ensembles.
    """
    from repro.exec.parallel import spawn_seeds

    if n_replicas < 1:
        raise ConfigurationError("need at least one replica")
    replicas = [
        run_scenario(name, seed=child_seed, machine=machine)
        for child_seed in spawn_seeds(seed, n_replicas)
    ]
    merged = Telemetry(sink=sink)
    for i, replica in enumerate(replicas):
        merged.absorb(replica.telemetry, suffix=f" [r{i}]")
    return merged, replicas
