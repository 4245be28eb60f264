"""Invariant auditors: structural properties that must hold for *any* input.

Where the expectation registry pins numbers and the differential runners
pin cross-path agreement, the auditors here check properties no
configuration is allowed to violate: conservation of node-seconds in a
workflow run, well-formedness of a telemetry span tree and its agreement
with the metric counters, monotone shape of scaling and crossover curves,
and byte-identical same-seed trace exports.

Each auditor returns an :class:`InvariantResult`; :func:`run_invariants`
runs the default battery used by ``repro verify``.

>>> r = audit_crossover_shape()
>>> r.passed
True
>>> audit_scaling_shape("kurth").key
'invariant.scaling_shape.kurth'
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantResult",
    "audit_crossover_shape",
    "audit_scaling_shape",
    "audit_span_tree",
    "audit_streaming_identity",
    "audit_trace_determinism",
    "audit_workflow_conservation",
    "run_invariants",
]


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one structural audit."""

    key: str
    description: str
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def message(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{self.key}: {verdict} — {self.detail}"


def _default_run(seed: int = 0):
    """A fault-injected multi-facility run with telemetry, for auditing.

    ``simulate`` never checkpoints and fails an attempt with p = 1 - 1/e,
    so the default four-attempt budget runs out at about one seed in
    six; sixteen attempts make exhaustion a ~1e-3 event per seed.
    """
    from repro.resilience.retry import RetryPolicy
    from repro.telemetry import Telemetry
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
    telemetry = Telemetry()
    run = graph.execute(
        retry=RetryPolicy(max_attempts=16), seed=seed, telemetry=telemetry
    )
    return run, graph, telemetry


def audit_workflow_conservation(run=None, graph=None, seed: int = 0) -> InvariantResult:
    """Node-second conservation and timestamp sanity of a WorkflowRun.

    ``busy == useful + checkpoint + lost`` (every occupied node-second is
    accounted for exactly once), per-facility start..end span totals bound
    the busy figure from above, every task ends no earlier than it starts,
    and the makespan is exactly the latest end time.
    """
    if run is None or graph is None:
        run, graph, _ = _default_run(seed)
    failures: list[str] = []

    accounted = (
        run.useful_node_seconds
        + run.checkpoint_node_seconds
        + run.lost_node_seconds
    )
    if not np.isclose(run.busy_node_seconds, accounted, rtol=1e-09):
        failures.append(
            f"busy {run.busy_node_seconds!r} != useful+checkpoint+lost "
            f"{accounted!r}"
        )
    # facility totals span each task's whole start..end window, which also
    # covers retry-backoff gaps — an upper bound on attempt wall time
    per_facility = sum(run.facility_busy_node_seconds(graph).values())
    if per_facility < run.busy_node_seconds * (1 - 1e-09):
        failures.append(
            f"per-facility span sum {per_facility!r} below "
            f"global busy {run.busy_node_seconds!r}"
        )
    for name, start in run.start_times.items():
        if run.end_times[name] < start:
            failures.append(f"task {name!r} ends before it starts")
    latest = max(run.end_times.values())
    if run.makespan != latest:
        failures.append(
            f"makespan {run.makespan!r} != latest end time {latest!r}"
        )
    if not (0.0 <= run.goodput_fraction <= 1.0):
        failures.append(f"goodput_fraction {run.goodput_fraction!r} not in [0, 1]")

    return InvariantResult(
        key="invariant.workflow_conservation",
        description="busy node-seconds == useful + checkpoint + lost; "
        "timestamps and makespan consistent",
        passed=not failures,
        detail="; ".join(failures)
        or f"{run.busy_node_seconds:.0f} busy node-seconds fully accounted "
        f"({run.goodput_fraction:.3f} goodput) across "
        f"{len(run.end_times)} tasks",
    )


def audit_span_tree(telemetry=None, seed: int = 0) -> InvariantResult:
    """Well-formedness of a telemetry span tree + counter/span parity.

    Every span is finished with ``end >= start``; parent links point to
    existing spans that were opened earlier (``parent_id < span_id``) and
    that enclose the child's start; and the DAG's node-second counters
    re-derive exactly from the attempt spans' recorded attributes.
    """
    run = None
    if telemetry is None:
        run, _, telemetry = _default_run(seed)
    failures: list[str] = []

    spans = telemetry.finished_spans()
    by_id = {s["id"]: s for s in spans}
    if not spans:
        failures.append("no finished spans recorded")
    for s in spans:
        span_id, parent_id = s["id"], s["parent"]
        if s["end"] < s["start"]:
            failures.append(f"span #{span_id} {s['name']!r} has end < start")
        if parent_id is not None:
            parent = by_id.get(parent_id)
            if parent is None:
                failures.append(
                    f"span #{span_id} {s['name']!r} has unknown parent "
                    f"#{parent_id}"
                )
                continue
            if parent_id >= span_id:
                failures.append(
                    f"span #{span_id} opened before its parent #{parent_id}"
                )
            if s["start"] < parent["start"]:
                failures.append(
                    f"span #{span_id} starts before parent #{parent_id}"
                )

    if run is not None:
        # counter/span accounting parity: the dag.* counters must re-derive
        # from the attempt spans' own attributes.
        attempts = [s for s in spans if s["cat"] == "task"]
        busy = sum(s["attrs"]["wall"] * s["attrs"]["nodes"] for s in attempts)
        useful = sum(
            s["attrs"]["gained"] * s["attrs"]["nodes"] for s in attempts
        )
        counters = telemetry.metrics
        for name, derived in (
            ("dag.busy_node_seconds", busy),
            ("dag.useful_node_seconds", useful),
        ):
            counted = counters.counter(name).value
            if not np.isclose(counted, derived, rtol=1e-09):
                failures.append(
                    f"counter {name} = {counted!r} but spans re-sum to "
                    f"{derived!r}"
                )
        if not np.isclose(
            counters.counter("dag.busy_node_seconds").value,
            run.busy_node_seconds, rtol=1e-09,
        ):
            failures.append("dag.busy_node_seconds counter != WorkflowRun total")

    return InvariantResult(
        key="invariant.span_tree",
        description="span tree well-formed; node-second counters re-derive "
        "from attempt spans",
        passed=not failures,
        detail="; ".join(failures[:3])
        or f"{len(spans)} spans well-formed, counters re-derived exactly",
    )


def audit_scaling_shape(
    app_key: str = "kurth", n_nodes: tuple[int, ...] = (16, 64, 256, 1024, 4096)
) -> InvariantResult:
    """Monotone shape of an app's weak-scaling step-time curve.

    With per-node batch fixed, adding nodes can only grow the allreduce:
    the communication term and the total step time must be nondecreasing
    in node count, so measured efficiency is nonincreasing — the shape
    behind every Fig.-style scaling plot in Section IV-B.
    """
    from repro.apps.extreme_scale import get_app

    app = get_app(app_key)
    counts = [n for n in n_nodes if n >= app.baseline_nodes]
    result = app.sweep_nodes(counts)
    failures: list[str] = []
    comm = result.term("comm")
    total = result.total()
    if np.any(np.diff(comm) < 0):
        failures.append("comm term decreases with node count")
    if np.any(np.diff(total) < -1e-15):
        failures.append("total step time decreases with node count")
    if np.any(total < np.maximum(result.term("compute"), comm)):
        failures.append("total below its own critical-path lower bound")
    return InvariantResult(
        key=f"invariant.scaling_shape.{app_key}",
        description="weak-scaling comm and step time nondecreasing in nodes",
        passed=not failures,
        detail="; ".join(failures)
        or f"monotone over {len(counts)} node counts "
        f"({counts[0]} -> {counts[-1]})",
    )


def audit_crossover_shape(machine=None) -> InvariantResult:
    """Monotone shape of the Section VI-B allreduce crossover surface.

    Ring allreduce time must be nondecreasing in message size and in rank
    count; consequently the crossover node count (where comm overtakes a
    fixed compute budget) must be nonincreasing in message size, with NaN
    (never crosses) only ever appearing for *smaller* messages.

    Without ``machine`` this audits Summit's fabric exactly as the pinned
    conformance battery always has (key ``invariant.crossover_shape``);
    with a registry name or :class:`~repro.machine.spec.MachineSpec`, the
    same shape is asserted on that machine's injection link, under a
    machine-suffixed key.
    """
    from repro.cost.crossover import crossover_nodes, crossover_sweep
    from repro.network.collectives import ring_allreduce_time

    if machine is None:
        from repro.machine.spec import SUMMIT

        key = "invariant.crossover_shape"
        link = SUMMIT.interconnect
        latency = SUMMIT.injection_latency
        max_ranks = 4096
    else:
        from repro.machine.spec import resolve_machine

        spec = resolve_machine(machine)
        key = f"invariant.crossover_shape.{spec.key}"
        link = spec.interconnect
        latency = spec.injection_latency
        max_ranks = min(4096, spec.node_count)

    failures: list[str] = []

    sizes = [1e6, 1e7, 1e8, 1e9, 1e10]
    times = [ring_allreduce_time(64, s, link) for s in sizes]
    if np.any(np.diff(times) < 0):
        failures.append("ring allreduce time decreases with message size")
    ranks = [2, 4, 16, 64, 256, 1024]
    times = [ring_allreduce_time(p, 1e8, link) for p in ranks]
    if np.any(np.diff(times) < 0):
        failures.append("ring allreduce time decreases with rank count")

    result = crossover_sweep(
        message_bytes=np.array(sizes),
        n_ranks=np.arange(2, max_ranks + 1),
        bandwidth=link.bandwidth,
        latency=latency,
        compute_time=0.1,
    )
    nodes = crossover_nodes(result)
    finite = np.where(np.isnan(nodes), np.inf, nodes)
    if any(b > a for a, b in zip(finite, finite[1:]) if np.isfinite(b)):
        failures.append("crossover node count grows with message size")

    return InvariantResult(
        key=key,
        description="allreduce time monotone; crossover nodes nonincreasing "
        "in message size",
        passed=not failures,
        detail="; ".join(failures)
        or f"monotone over {len(sizes)} sizes x {len(ranks)} rank counts; "
        "crossover surface well-ordered",
    )


def audit_trace_determinism(scenario: str = "dag", seed: int = 0) -> InvariantResult:
    """Same-seed scenario runs must export byte-identical Chrome traces.

    This is the telemetry layer's determinism contract end to end: two
    fresh runs of the same instrumented scenario, serialized, must be equal
    as *strings* — no wall-clock, no iteration-order leaks, no id reuse.
    """
    from repro.telemetry.export import chrome_trace_json
    from repro.telemetry.scenarios import run_scenario

    first = chrome_trace_json(run_scenario(scenario, seed=seed).telemetry)
    second = chrome_trace_json(run_scenario(scenario, seed=seed).telemetry)
    passed = first == second
    return InvariantResult(
        key=f"invariant.trace_determinism.{scenario}",
        description="same-seed scenario exports byte-identical traces",
        passed=passed,
        detail=(
            f"{len(first)} bytes, identical across runs"
            if passed
            else f"exports differ ({len(first)} vs {len(second)} bytes)"
        ),
    )


def audit_streaming_identity(scenario: str = "dag", seed: int = 0) -> InvariantResult:
    """Out-of-core spill + stitch must reproduce the in-memory export exactly.

    The streaming contract of :mod:`repro.telemetry.stream`: run the same
    scenario once fully in memory and once spilling every record through a
    :class:`~repro.telemetry.stream.ShardedJsonlSink`, then stitch the
    shards back with :func:`~repro.telemetry.stream.load_shards`. The
    Chrome trace, the JSONL dump and the human summary must be equal as
    *strings* at every shard size — including pathological one-record
    shards — or the out-of-core path is not a faithful telemetry plane.
    """
    import tempfile
    from pathlib import Path

    from repro.telemetry.export import chrome_trace_json, summary, to_jsonl
    from repro.telemetry.scenarios import run_scenario
    from repro.telemetry.stream import ShardedJsonlSink, load_shards, shard_paths

    baseline = run_scenario(scenario, seed=seed).telemetry
    want = (chrome_trace_json(baseline), to_jsonl(baseline), summary(baseline))

    failures: list[str] = []
    shard_counts: list[int] = []
    with tempfile.TemporaryDirectory(prefix="repro-verify-stream-") as tmp:
        for shard_max_bytes in (1, 4096):
            directory = Path(tmp) / f"shards-{shard_max_bytes}"
            sink = ShardedJsonlSink(directory, shard_max_bytes=shard_max_bytes)
            streamed = run_scenario(scenario, seed=seed, sink=sink).telemetry
            streamed.close()
            shard_counts.append(len(shard_paths(directory)))
            stitched = load_shards(directory)
            got = (
                chrome_trace_json(stitched),
                to_jsonl(stitched),
                summary(stitched),
            )
            for label, w, g in zip(("chrome_trace", "jsonl", "summary"), want, got):
                if w != g:
                    failures.append(
                        f"{label} differs at shard_max_bytes={shard_max_bytes} "
                        f"({len(w)} vs {len(g)} bytes)"
                    )

    return InvariantResult(
        key=f"invariant.streaming_identity.{scenario}",
        description="sharded spill + stitch exports byte-identical to in-memory",
        passed=not failures,
        detail="; ".join(failures)
        or f"{len(want[0])}-byte trace identical from {shard_counts[0]} "
        f"one-record shards and {shard_counts[1]} 4 KiB shards",
    )


def run_invariants(seed: int = 0) -> list[InvariantResult]:
    """The default structural-audit battery, in deterministic order."""
    run, graph, telemetry = _default_run(seed)
    return [
        audit_workflow_conservation(run, graph),
        audit_span_tree(seed=seed),
        audit_scaling_shape("kurth"),
        audit_scaling_shape("blanchard", n_nodes=(96, 384, 1536, 4032)),
        audit_crossover_shape(),
        audit_trace_determinism("dag", seed=seed),
        audit_trace_determinism("scheduler", seed=seed),
        audit_streaming_identity("dag", seed=seed),
    ]
