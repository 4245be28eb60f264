"""workflow-dag: a seeded multi-facility campaign DAG with failures.

Each round runs a wide fan of Summit simulation tasks that fail at seeded
rates and checkpoint, then one CS-2 training task over the round's output
and one ThetaGPU analysis task that gates the next round. Each pass builds
the graph (set-up) and executes it with telemetry off (timed). The first
pass, and every traced pass, then executes it again with
``Telemetry(sink=ShardedJsonlSink(...))``, closes the sink and rolls the
shards up with a ``ShardAggregator``; that costs five times the untraced
execution, so doing it on every pass would starve the timed samples.

A traced run then drives the service campaign of :mod:`campaign` for the
service's layer metrics: its write-ahead journal is the other segmented
JSONL writer, fsynced record by record where the shards are written in
large buffered batches.
"""

from __future__ import annotations

import dataclasses
import math
import statistics

import numpy as np

import campaign
from harness import Context, Outcome, digest

IMPORTS = ["repro.workflows.dag", "repro.workflows.facility",
           "repro.resilience.retry", "repro.telemetry",
           "repro.telemetry.stream"]  # the traced-only campaign is not set-up

ROUNDS = 24
SIMS_PER_ROUND = 500
#: Large enough that no task exhausts its retries at any seed: a task
#: fails an attempt with probability < 0.6, so 30 straight failures of one
#: task have probability < 1e-6 over the whole graph.
MAX_ATTEMPTS = 30


def build_graph(seed: int):
    """The seeded campaign DAG: ``ROUNDS x (SIMS_PER_ROUND + 2)`` tasks."""
    from repro.workflows.dag import TaskGraph
    from repro.workflows.facility import FACILITIES

    rng = np.random.default_rng(seed)
    graph = TaskGraph({k: FACILITIES[k] for k in ("summit", "cs2", "thetagpu")})
    gate: tuple[str, ...] = ()
    for r in range(ROUNDS):
        nodes = np.exp(rng.uniform(np.log(32), np.log(1024), SIMS_PER_ROUND))
        duration = rng.lognormal(np.log(3600.0), 0.5, SIMS_PER_ROUND)
        failures = rng.uniform(0.1, 0.9, SIMS_PER_ROUND)  # expected per task
        segments = rng.integers(4, 16, SIMS_PER_ROUND)
        sims = []
        for i in range(SIMS_PER_ROUND):
            name = f"r{r}.sim{i}"
            graph.add_task(
                name, float(duration[i]), "summit", nodes=int(nodes[i]),
                deps=gate, failure_rate=float(failures[i] / duration[i]),
                checkpoint_interval=float(duration[i] / segments[i]),
                checkpoint_write_time=30.0,
            )
            sims.append(name)
        graph.add_task(f"r{r}.train", 1800.0, "cs2", deps=sims)
        graph.add_task(f"r{r}.analyze", 900.0, "thetagpu", nodes=8,
                       deps=(f"r{r}.train",))
        gate = (f"r{r}.analyze",)
    return graph


def _fields(run) -> dict:
    """Every WorkflowRun field but the trace object, which telemetry owns."""
    return {f.name: getattr(run, f.name) for f in dataclasses.fields(run)
            if f.name != "trace"}


def _compare(ctx: Context, graph, plain, traced) -> None:
    """Traced and untraced runs must agree task for task, field for field."""
    a, b = _fields(plain), _fields(traced)
    bad = [
        f"{name}: traced run differs"
        for name in graph.tasks
        if (a["start_times"].get(name), a["end_times"].get(name),
            a["attempts"].get(name))
        != (b["start_times"].get(name), b["end_times"].get(name),
            b["attempts"].get(name))
    ]
    ctx.checks.count(len(graph.tasks), bad)
    for key in a:
        ctx.checks.expect(a[key] == b[key], f"WorkflowRun.{key} differs")
    accounted = (plain.useful_node_seconds + plain.checkpoint_node_seconds
                 + plain.lost_node_seconds)
    ctx.checks.expect(
        math.isclose(plain.busy_node_seconds, accounted, rel_tol=1e-9),
        "busy node-seconds != useful + checkpoint + lost",
    )


def run(ctx: Context) -> Outcome:
    from repro.resilience.retry import RetryPolicy
    from repro.telemetry import Telemetry
    from repro.telemetry.stream import (
        ShardAggregator, ShardedJsonlSink, shard_paths,
    )

    span = ctx.tracer.span
    retry = RetryPolicy(max_attempts=MAX_ATTEMPTS)
    first: dict = {}
    traced_s: list[float] = []

    def one_pass(i: int) -> None:
        with ctx.measure("setup", "workflows.dag.build"):
            graph = build_graph(ctx.seed)
        with ctx.measure("run", "workflows.dag.execute"):
            plain = graph.execute(retry=retry, seed=ctx.seed)

        if i == 0:
            first.update(
                run=_fields(plain), tasks=len(graph.tasks),
                failures=plain.n_failures, retries=plain.n_retries,
                checkpoints=plain.n_checkpoints,
            )
        else:
            ctx.checks.expect(_fields(plain) == first["run"],
                              "same seed executed differently")
        if i == 0 or ctx.tracer.enabled:
            traced_pass(i, graph, plain)

    def traced_pass(i: int, graph, plain) -> None:
        """Execute again into telemetry shards, then roll them up."""
        shards = ctx.tmp / f"shards-{i}"
        with span("workflows.dag.traced") as t:
            sink = ShardedJsonlSink(shards)
            telemetry = Telemetry(sink=sink)
            with span("workflows.dag.execute_traced"):
                traced = graph.execute(
                    retry=retry, seed=ctx.seed, telemetry=telemetry
                )
            with span("telemetry.stream.close"):
                telemetry.close()
        traced_s.append(t[0])
        with span("telemetry.stream.aggregate"):
            rollup = ShardAggregator().consume_directory(shards)

        _compare(ctx, graph, plain, traced)
        for what in ("spans", "instants", "samples"):
            sunk = getattr(sink, f"n_{what}")
            rolled = getattr(rollup, f"n_{what}")
            ctx.checks.expect(sunk == rolled,
                              f"rollup {what} {rolled} != sink {sunk}")
        paths = shard_paths(shards)
        first.setdefault("records", rollup.n_records)
        first.setdefault("shard_bytes", sum(p.stat().st_size for p in paths))
        for path in paths:
            path.unlink()

    ctx.passes(one_pass)
    if ctx.trace:
        served, service_layers = campaign.run(ctx)
        ctx.tracer.enabled = True
    outcome = Outcome(
        items=first["tasks"],
        metrics={
            "dag_s": (ctx.median("run"), "s"),
            "dag_traced_s": (ctx.scale(statistics.median(traced_s)), "s"),
            "tasks": (first["tasks"], "count"),
            "failures": (first["failures"], "count"),
        },
        failed_share=(ctx.checks.failed, ctx.checks.attempted,
                      "tasks and run checks (plus campaign jobs if traced)"),
        digest=digest(repr(first["run"])),
    )
    if ctx.trace:
        tr = ctx.tracer
        outcome.layers = {
            "workflows.dag.build_s": tr.median("workflows.dag.build"),
            "workflows.dag.execute_s": tr.median("workflows.dag.execute"),
            "workflows.dag.execute_traced_s":
                tr.median("workflows.dag.execute_traced"),
            "telemetry.stream.close_s": tr.median("telemetry.stream.close"),
            "telemetry.stream.aggregate_s":
                tr.median("telemetry.stream.aggregate"),
            "telemetry.records": first["records"],
            "telemetry.shard_bytes": first["shard_bytes"],
            "workflows.dag.failures": first["failures"],
            "workflows.dag.retries": first["retries"],
            "workflows.dag.checkpoints": first["checkpoints"],
            **service_layers,
        }
        outcome.metrics.update(served)
    return outcome
