"""Command-line interface: ``python -m repro.cli <command>``.

Commands mirror the paper's strands:

- ``machine``   — describe a machine-registry entry (``repro machine
  frontier-like``) or list the registry; ``--system`` still describes the
  OLCF Systems (Summit with its partitions, Rhea, Andes);
- ``comm``      — Section VI-B allreduce analysis for a catalog model;
- ``io``        — Section VI-B read-bandwidth feasibility;
- ``scaling``   — weak/strong scaling table for a catalog model;
- ``apps``      — simulate the five Section IV-B applications;
- ``survey``    — regenerate Figures 1-6 from the calibrated portfolio;
- ``gordon-bell`` — print Table III and the AI finalist list;
- ``resilience`` — goodput under node failures and checkpoint-restart for a
  Section IV-B application, with empirical Young/Daly validation;
- ``sweep``     — vectorized cost-model sweep: per-app step-time breakdown
  over a node-count grid, or the Section VI-B comm-vs-compute crossover
  surface (``--crossover``);
- ``telemetry`` — run an instrumented scenario (workflow DAG, batch
  scheduler, or checkpoint-restart job) and export a Perfetto-loadable
  Chrome trace plus a metrics summary; ``--shard-dir`` spills the records
  out-of-core to JSONL shards (exports stitched back byte-identically),
  ``--jsonl-out``/``--metrics-out`` add streaming JSONL and Prometheus
  exports;
- ``verify``    — run the paper-parity conformance battery: the full
  expectation registry (every paper-stated number), cross-path
  differential runners and structural invariant audits, with a
  deterministic JSON report for CI (same seed, byte-identical bytes);
- ``serve``     — run the crash-safe campaign server over a declarative
  campaign spec: bulk ingestion, time-bounded leases with heartbeats,
  write-ahead journal, backpressure, graceful drain;
- ``submit``    — bulk-ingest a campaign spec's jobs into a running server;
- ``campaign-status`` — query a running server (counts, attempts,
  requeues, metrics; ``--results`` dumps the completed result set);
- ``events``    — tail a running server's live event stream (journal
  records, telemetry instants, counter samples); ``--follow`` survives
  server restarts with exactly-once journal delivery;
- ``work``      — run a worker loop (acquire leases, heartbeat, compute,
  complete) against a running server.

``resilience``, ``sweep``, ``telemetry`` and ``verify`` accept ``--json``
for machine-readable output, and ``--machine NAME`` to run against a
machine-registry entry instead of Summit (``repro sweep --machine
frontier-like``); omitting the flag — or naming ``summit`` — keeps every
output byte-identical to earlier releases. ``telemetry`` and
``resilience`` accept ``--replicas N`` for seeded Monte-Carlo ensembles,
and ``resilience`` accepts ``--jobs N`` to run its replicas over a process
pool — the results are bit-identical at every worker count.

Library errors exit with distinct nonzero codes (see ``EXIT_CODES``) and a
one-line ``error:`` message on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

from repro import errors, units
from repro.core import ScalingStudyRunner, SummitSimulator, UsageSurvey
from repro.models.catalog import CATALOG
from repro.training.parallelism import DataSource, ParallelismPlan


def _cmd_machine(args: argparse.Namespace) -> int:
    if args.system is not None:
        from repro.machine.summit import andes, rhea, summit

        factory = {"summit": summit, "rhea": rhea, "andes": andes}[args.system]
        print(factory().describe())
        return 0
    from repro.machine.spec import get_machine, machine_names

    if args.name is not None:
        print(get_machine(args.name).describe())
        return 0
    print("machine registry (describe one with `repro machine NAME`):")
    for name in machine_names():
        spec = get_machine(name)
        gpu = (
            f"{spec.gpus_per_node} x {spec.gpus.name}"
            if spec.gpus is not None else "CPU-only"
        )
        print(f"  {name:<16} {spec.name:<16} [{spec.provenance:<9}] "
              f"{spec.node_count:>5} nodes, {gpu}")
    return 0


def _cmd_comm(args: argparse.Namespace) -> int:
    sim = SummitSimulator()
    estimate = sim.allreduce_estimate(args.model)
    detailed = sim.allreduce_detailed(args.model, args.nodes)
    print(f"model:            {args.model}")
    print(f"paper estimate:   {units.format_time(estimate)} "
          f"(message / 12.5 GB/s)")
    print(f"ring at {args.nodes} nodes: {units.format_time(detailed)} "
          f"(latency included)")
    return 0


def _cmd_io(args: argparse.Namespace) -> int:
    sim = SummitSimulator()
    print(sim.io_report(args.model, n_nodes=args.nodes)["summary"])
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    plan = ParallelismPlan(
        local_batch=args.batch,
        accumulation_steps=args.accumulation,
        model_shards=args.shards,
        overlap_fraction=args.overlap,
        compute_jitter_cv=args.jitter,
    )
    runner = ScalingStudyRunner(
        args.model, plan, data_source=DataSource(args.data_source)
    )
    print(runner.table(_parse_nodes(args.nodes), strong=args.strong))
    return 0


def _cmd_apps(args: argparse.Namespace) -> int:
    from repro.apps.extreme_scale import EXTREME_SCALE_APPS

    print(f"{'app':<11}{'nodes':>7}{'PFLOP/s':>10}{'efficiency':>12}  reported")
    for key, app in EXTREME_SCALE_APPS.items():
        result = app.simulate()
        print(
            f"{key:<11}{app.peak_nodes:>7}"
            f"{result['measured_flops'] / 1e15:>10.1f}"
            f"{result['measured_efficiency']:>11.1%}  {result['reported']}"
        )
    return 0


def _cmd_survey(args: argparse.Namespace) -> int:
    print(UsageSurvey.calibrated(seed=args.seed).report())
    return 0


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.apps.extreme_scale import get_app

    _check_replicas(args.replicas)
    if args.analytic_only and args.replicas > 1:
        raise errors.ConfigurationError(
            f"--replicas {args.replicas} needs the empirical simulation "
            "that --analytic-only skips"
        )
    app = get_app(args.app)
    nodes = args.nodes if args.nodes is not None else app.peak_nodes
    mtbf_seconds = args.mtbf_years * 365 * 24 * 3600.0
    state_bytes = args.state_gb * 1e9
    report = app.resilience_report(
        n_nodes=nodes,
        node_mtbf_seconds=mtbf_seconds,
        state_bytes_per_node=state_bytes,
        tier=args.tier,
        empirical=not args.analytic_only,
        seed=args.seed,
        machine=args.machine,
    )
    ensemble = None
    if args.replicas > 1:
        ensemble = app.resilience_ensemble(
            n_nodes=nodes,
            node_mtbf_seconds=mtbf_seconds,
            state_bytes_per_node=state_bytes,
            tier=args.tier,
            n_replicas=args.replicas,
            seed=args.seed,
            n_jobs=args.jobs,
            machine=args.machine,
        )
    if args.json:
        import dataclasses
        import json

        payload = dataclasses.asdict(report)
        payload.update(_machine_field(args))
        payload["goodput_fraction"] = report.goodput_fraction
        payload["lost_node_hours"] = report.lost_node_hours
        payload["overhead_fraction"] = report.overhead_fraction
        if not args.analytic_only:
            payload["agreement"] = report.agreement()
            payload["matches_analytical"] = report.matches_analytical()
        if ensemble is not None:
            overheads = [s.overhead_fraction for s in ensemble]
            payload["ensemble"] = {
                "n_replicas": args.replicas,
                "overhead_fractions": overheads,
                "mean_overhead": sum(overheads) / len(overheads),
            }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(report.format())
    if not args.analytic_only:
        agreement = report.agreement()
        assert agreement is not None
        print(
            "empirical checkpoint+rework overhead "
            f"{'matches' if report.matches_analytical() else 'DEVIATES FROM'} "
            f"the Young/Daly optimum (rel. err {agreement:.1%}, tol 20%)"
        )
    if ensemble is not None:
        overheads = [s.overhead_fraction for s in ensemble]
        mean = sum(overheads) / len(overheads)
        spread = max(overheads) - min(overheads)
        print(
            f"ensemble of {args.replicas} seeded replicas: "
            f"mean overhead {mean:.4f} (spread {spread:.4f}, "
            f"analytic {report.analytical_overhead:.4f})"
        )
    return 0


def _check_replicas(replicas: int) -> None:
    if replicas < 1:
        raise errors.ConfigurationError(
            f"--replicas must be >= 1, got {replicas}"
        )


def _check_positive(value: float, flag: str) -> float:
    if not 0.0 < value < math.inf:  # NaN fails this too
        raise errors.ConfigurationError(
            f"{flag} must be positive and finite, got {value}"
        )
    return value


def _parse_list(spec: str, kind: type, flag: str, sep: str = ",") -> list:
    """``sep``-separated ``kind`` values; a bad token is a config error."""
    values = []
    for token in spec.split(sep):
        try:
            values.append(kind(token))
        except ValueError:
            raise errors.ConfigurationError(
                f"{flag}: {token!r} is not a valid {kind.__name__}"
            ) from None
    return values


def _parse_nodes(spec: str) -> list[int]:
    """Node-count grid: ``1,16,256`` (list) or ``4:4608:16`` (range w/ step)."""
    if ":" not in spec:
        return _parse_list(spec, int, "--nodes")
    bounds = _parse_list(spec, int, "--nodes", sep=":")
    if len(bounds) != 3 or bounds[2] == 0:
        raise errors.ConfigurationError(
            f"--nodes: range {spec!r} must be start:stop:step with a "
            "nonzero step"
        )
    start, stop, step = bounds
    return list(range(start, stop + 1, step))


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    nodes = _parse_nodes(args.nodes)
    if args.crossover:
        compute_ms = _check_positive(
            50.0 if args.compute_ms is None else args.compute_ms,
            "--compute-ms",
        )
        message_mb = [
            _check_positive(mb, "--message-mb") for mb in _parse_list(
                "102.4,1400" if args.message_mb is None else args.message_mb,
                float, "--message-mb",
            )
        ]
        sim = SummitSimulator.for_machine(args.machine)
        sizes = np.array([mb * 1e6 for mb in message_mb])
        result = sim.crossover_surface(
            sizes, np.array(nodes), compute_time=compute_ms * 1e-3,
        )
        from repro.cost import crossover_nodes

        cross = crossover_nodes(result)
        paper = result.term("paper_estimate")[:, 0]
        ring = result.term("comm")
        if args.json:
            import json

            payload = {
                "mode": "crossover",
                "compute_ms": compute_ms,
                "nodes": nodes,
                **_machine_field(args),
                "rows": [
                    {
                        "message_bytes": float(size),
                        "paper_estimate_seconds": float(paper[i]),
                        "ring_at_max_nodes_seconds": float(ring[i, -1]),
                        "crossover_nodes": (
                            None if np.isnan(cross[i]) else int(cross[i])
                        ),
                    }
                    for i, size in enumerate(sizes)
                ],
            }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(
            f"Section VI-B crossover surface "
            f"(compute budget {compute_ms:g} ms/step)"
        )
        print(f"{'message':>10}  {'paper est.':>10}  {'ring@max':>10}  "
              f"{'comm>compute at':>15}")
        for i, size in enumerate(sizes):
            at = "never" if np.isnan(cross[i]) else f"{int(cross[i])} nodes"
            print(
                f"{units.format_bytes(size):>10}  "
                f"{units.format_time(paper[i]):>10}  "
                f"{units.format_time(ring[i, -1]):>10}  {at:>15}"
            )
        return 0

    for flag, value in (("--compute-ms", args.compute_ms),
                        ("--message-mb", args.message_mb)):
        if value is not None:
            raise errors.ConfigurationError(f"{flag} needs --crossover")
    from repro.apps.extreme_scale import get_app

    app = get_app(args.app)
    result = app.sweep_nodes(nodes, machine=args.machine)
    total = result.total()
    if args.json:
        import json

        payload = {
            "mode": "app",
            "app": app.key,
            "nodes": nodes,
            **_machine_field(args),
            "rows": [
                {
                    "nodes": n,
                    **{term: float(result.at(i)[term])
                       for term in result.breakdown},
                    "total_seconds": float(total[i]),
                }
                for i, n in enumerate(nodes)
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{app.key}: step-time sweep over {len(nodes)} node counts "
          f"(one vectorized pass)")
    print(f"{'nodes':>7}  {'compute':>9}  {'comm_exp':>9}  {'io_exp':>9}  "
          f"{'straggler':>9}  {'total':>9}  {'samples/s':>12}")
    for i, n in enumerate(nodes):
        bd = result.at(i)
        print(
            f"{n:>7}  {bd['compute'] * 1e3:>8.2f}m  "
            f"{bd['comm_exposed'] * 1e3:>8.2f}m  "
            f"{bd['io_exposed'] * 1e3:>8.2f}m  "
            f"{bd['straggler'] * 1e3:>8.2f}m  {total[i] * 1e3:>8.2f}m  "
            f"{bd['samples'] / total[i]:>12.0f}"
        )
    return 0


def _machine_field(args: argparse.Namespace) -> dict:
    """The ``machine`` entry for a JSON payload.

    Omitted entirely for the historical Summit default (flag absent *or*
    ``--machine summit``) so those outputs stay byte-identical to every
    earlier release.
    """
    if args.machine is None or args.machine == "summit":
        return {}
    return {"machine": args.machine}


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        ShardedJsonlSink,
        chrome_trace,
        load_shards,
        summary,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.telemetry.scenarios import run_scenario, run_scenario_replicas

    _check_replicas(args.replicas)
    sink = None
    if args.shard_dir:
        from repro.telemetry import DEFAULT_SHARD_MAX_BYTES

        # Out-of-core mode: records spill to JSONL shards as they close;
        # the exports below are stitched back from the shards and are
        # byte-identical to the in-memory run (the streaming-identity
        # invariant in `repro verify` pins exactly this).
        sink = ShardedJsonlSink(
            args.shard_dir,
            shard_max_bytes=(
                args.shard_bytes if args.shard_bytes is not None
                else DEFAULT_SHARD_MAX_BYTES
            ),
        )
    elif args.shard_bytes is not None:
        raise errors.ConfigurationError("--shard-bytes requires --shard-dir")
    if args.replicas > 1:
        tel, replicas = run_scenario_replicas(
            args.scenario, args.replicas, seed=args.seed,
            machine=args.machine, sink=sink,
        )
        results = [r.results for r in replicas]
        report_lines = []
        for i, replica in enumerate(replicas):
            report_lines.append(f"replica {i}:")
            report_lines.extend(
                f"  {line}" for line in replica.report_lines if line
            )
        name = replicas[0].name
    else:
        scenario = run_scenario(
            args.scenario, seed=args.seed, machine=args.machine, sink=sink,
        )
        tel = scenario.telemetry
        results = scenario.results
        report_lines = scenario.report_lines
        name = scenario.name
    if sink is not None:
        tel.close()
        tel = load_shards(args.shard_dir)
    if args.out:
        write_chrome_trace(tel, args.out)
    if args.jsonl_out:
        write_jsonl(tel, args.jsonl_out)
    if args.metrics_out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(args.metrics_out, tel.metrics.render_prometheus())
    if args.json:
        import json

        trace = chrome_trace(tel)
        payload = {
            "scenario": name,
            "seed": args.seed,
            "n_replicas": args.replicas,
            **_machine_field(args),
            "out": args.out,
            "n_trace_events": len(trace["traceEvents"]),
            "n_spans": len(tel.finished_spans()),
            "n_instants": sum(r["type"] == "instant" for r in tel.records),
            "results": results,
            "metrics": tel.metrics.as_dict(),
        }
        if args.shard_dir:
            payload["shard_dir"] = args.shard_dir
            payload["n_shards"] = sink.n_shards
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(
        f"telemetry scenario {name!r} (seed {args.seed}"
        + (f", {args.replicas} replicas" if args.replicas > 1 else "")
        + ")"
    )
    print()
    for line in report_lines:
        print(f"  {line}")
    print()
    print(summary(tel))
    if args.shard_dir:
        print()
        print(f"telemetry spilled to {sink.n_shards} shard(s) under "
              f"{args.shard_dir} (exports stitched from shards)")
    if args.out:
        print()
        print(f"Chrome trace written to {args.out} "
              "(load in Perfetto / chrome://tracing)")
    if args.jsonl_out:
        print(f"JSONL records written to {args.jsonl_out}")
    if args.metrics_out:
        print(f"Prometheus metrics written to {args.metrics_out}")
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    """Tail (or catch up on) a running campaign server's event stream."""
    from repro.segmentlog import canonical_json

    client = _service_client(args)

    def emit(frame) -> None:
        if args.json:
            print(canonical_json(frame.to_wire()), flush=True)
        else:
            payload = frame.payload
            label = payload.get("type", payload.get("name", "?"))
            detail = payload.get("job_id") or payload.get("resource") or ""
            print(f"[{frame.topic} #{frame.seq}] {label}"
                  + (f" {detail}" if detail else ""), flush=True)

    if args.follow:
        n = 0
        for frame in client.follow(
            args.topic, since_seq=args.since_seq, give_up_s=args.give_up,
        ):
            emit(frame)
            n += 1
        if not args.json:
            print(f"stream ended after {n} frame(s): campaign drained")
        return 0
    frames = client.events(
        args.topic, since_seq=args.since_seq, max_frames=args.max_frames
    )
    for frame in frames:
        emit(frame)
    if not args.json:
        print(f"{len(frames)} frame(s) on {args.topic!r} after "
              f"seq {args.since_seq}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import build_registry, run_conformance

    if args.list:
        for e in build_registry():
            print(f"{e.key:<42} {e.paper:<18} {e.description}")
        return 0
    sections = args.sections.split(",") if args.sections else None
    report = run_conformance(
        seed=args.seed, sections=sections, machine=args.machine,
    )
    output = report.to_json() if args.json else report.format() + "\n"
    if args.out:
        from repro.atomicio import atomic_write_text

        atomic_write_text(args.out, output)
        if not args.json:
            print(output, end="")
        print(f"report written to {args.out}")
    else:
        print(output, end="")
    return 0 if report.passed else 1


def _load_spec(args: argparse.Namespace):
    from repro.service import CampaignSpec, drug_campaign

    if args.spec:
        return CampaignSpec.from_file(args.spec)
    if args.drug:
        return drug_campaign(args.drug, seed=args.seed)
    raise errors.ConfigurationError(
        "provide --spec CAMPAIGN.json or --drug N"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    spec = _load_spec(args)
    print(f"serving campaign {spec.name!r}: {len(spec.jobs)} jobs, "
          f"lease {spec.lease_timeout_s:g}s, "
          f"journal {args.journal}, socket {args.socket}", flush=True)
    serve(
        spec, args.journal, args.socket,
        fsync=not args.no_fsync,
        sweep_interval_s=args.sweep_interval,
    )
    print("campaign server drained cleanly")
    return 0


def _service_client(args: argparse.Namespace):
    """CLI-facing client: retry patience is bounded by ``--timeout`` so a
    wrong socket path fails fast with a typed error, not a 30s stall."""
    from repro.resilience.retry import RetryPolicy
    from repro.service import ServiceClient

    policy = RetryPolicy(
        max_attempts=8, backoff_base=0.05, backoff_factor=2.0,
        backoff_max=1.0, jitter_fraction=0.0, deadline_s=args.timeout,
    )
    return ServiceClient(args.socket, timeout_s=args.timeout, policy=policy)


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    client = _service_client(args)
    response = client.submit_spec(spec)
    print(f"campaign {spec.name!r}: {response['ingested']} jobs ingested, "
          f"{response['known']} already known")
    return 0


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args)
    status = client.status()
    if args.results:
        status["results"] = client.results()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counts = status["counts"]
    print(f"campaign {status['campaign']!r} "
          f"({'recovered' if status['recovered'] else 'fresh'} journal)")
    print(f"  jobs: {status['n_jobs']}  pending {counts['pending']}  "
          f"leased {counts['leased']}  done {counts['done']}  "
          f"failed {counts['failed']}")
    print(f"  attempts {status['total_attempts']}  "
          f"requeues {status['total_requeues']}  "
          f"finished {status['finished']}")
    if status["failed_jobs"]:
        print(f"  failed: {', '.join(status['failed_jobs'])}")
    if args.results:
        for job_id, result in status["results"].items():
            print(f"  {job_id}: {json.dumps(result, sort_keys=True)}")
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, run_worker

    completed = run_worker(
        ServiceClient(args.socket, session=args.session),
        max_jobs=args.max_jobs, idle_exit_s=args.idle_exit_s,
    )
    print(f"worker {args.session or '(anon)'}: {completed} jobs completed")
    return 0


def _cmd_gordon_bell(args: argparse.Namespace) -> int:
    from repro.apps.registry import GORDON_BELL_FINALISTS, gordon_bell_table

    print("Table III — Summit Gordon Bell finalists (total / AI-ML)")
    for (year, category), (total, ai) in sorted(gordon_bell_table().items()):
        print(f"  {year} {category:<6} {total} / {ai}")
    if args.verbose:
        for f in GORDON_BELL_FINALISTS:
            if f.uses_ai:
                print(f"  {f.year} [{f.category}] {f.name}: {f.description}")
    return 0


_EPILOG = """\
common options:
  --replicas N   (telemetry, resilience) run N seeded Monte-Carlo replicas
                 over SeedSequence child seeds; telemetry merges the
                 replica traces into one well-formed Chrome trace
  --jobs N       (resilience) run the replicas over N worker processes;
                 results are bit-identical to the serial run at every
                 worker count. Worker start-up costs about eight laanait
                 replicas, so the pool pays only for larger ensembles
                 (2 workers: 32 replicas ~1.3x faster, 8 no faster)
  --machine NAME (sweep, verify, telemetry, resilience) run against a
                 machine-registry entry (summit, frontier-like,
                 perlmutter-like, tpu-pod-like); the default is Summit and
                 is byte-identical to omitting the flag
"""


def _add_machine_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", default=None, metavar="NAME",
                   help="registry machine to run against (list with "
                        "`repro machine`); default summit, byte-identical "
                        "to omitting the flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction toolkit for 'Learning to Scale the Summit'",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "machine",
        help="describe a registry machine, or list the registry",
    )
    p.add_argument("name", nargs="?", default=None, metavar="NAME",
                   help="registry machine to describe, e.g. summit or "
                        "frontier-like (omit to list the registry)")
    p.add_argument("--system", choices=("summit", "rhea", "andes"),
                   default=None,
                   help="describe an OLCF System (all partitions) instead "
                        "of a registry spec")
    p.set_defaults(fn=_cmd_machine)

    p = sub.add_parser("comm", help="Section VI-B allreduce analysis")
    p.add_argument("--model", choices=sorted(CATALOG), default="bert_large")
    p.add_argument("--nodes", type=int, default=4608)
    p.set_defaults(fn=_cmd_comm)

    p = sub.add_parser("io", help="Section VI-B read-bandwidth feasibility")
    p.add_argument("--model", choices=sorted(CATALOG), default="resnet50")
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(fn=_cmd_io)

    p = sub.add_parser("scaling", help="scaling study for a catalog model")
    p.add_argument("--model", choices=sorted(CATALOG), default="resnet50")
    p.add_argument("--nodes", default="1,16,256,4096",
                   help="node counts: comma list or start:stop:step range")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--accumulation", type=int, default=1)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--overlap", type=float, default=0.7)
    p.add_argument("--jitter", type=float, default=0.0)
    p.add_argument("--data-source", choices=[s.value for s in DataSource],
                   default="nvme")
    p.add_argument("--strong", action="store_true",
                   help="strong scaling (fixed global batch)")
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("apps", help="simulate the Section IV-B applications")
    p.set_defaults(fn=_cmd_apps)

    p = sub.add_parser("survey", help="regenerate the usage-survey figures")
    p.add_argument("--seed", type=int, default=2022)
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("gordon-bell", help="Table III and AI finalists")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=_cmd_gordon_bell)

    from repro.apps.extreme_scale import EXTREME_SCALE_APPS

    p = sub.add_parser(
        "resilience",
        help="goodput under node failures + checkpoint-restart",
    )
    p.add_argument("--app", choices=sorted(EXTREME_SCALE_APPS),
                   default="laanait")
    p.add_argument("--nodes", type=int, default=None,
                   help="job width (default: the app's peak node count)")
    p.add_argument("--mtbf-years", type=float, default=5.0,
                   help="per-node MTBF in years")
    p.add_argument("--state-gb", type=float, default=30.0,
                   help="checkpoint payload per node in GB")
    p.add_argument("--tier", choices=("nvme", "shared_fs"), default="nvme")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analytic-only", action="store_true",
                   help="skip the event-driven empirical simulation")
    p.add_argument("--replicas", type=int, default=1,
                   help="Monte-Carlo ensemble size over child seeds "
                        "(default 1: the single seeded run)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the replica ensemble "
                        "(0 = all cores); pays only past about 8 replicas")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON")
    _add_machine_arg(p)
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser(
        "sweep",
        help="vectorized cost-model sweep (per-app or --crossover)",
    )
    p.add_argument("--app", choices=sorted(EXTREME_SCALE_APPS),
                   default="kurth",
                   help="Section IV-B application to sweep")
    p.add_argument("--nodes", default="1,16,64,256,1024,4096",
                   help="node grid: comma list or start:stop:step range")
    p.add_argument("--crossover", action="store_true",
                   help="map the Section VI-B comm-vs-compute crossover "
                        "surface instead of an app sweep")
    p.add_argument("--message-mb",
                   help="gradient message sizes in MB (crossover mode; "
                        "default 102.4,1400: ResNet-50 and BERT-large)")
    p.add_argument("--compute-ms", type=float,
                   help="per-step compute budget in ms (crossover mode; "
                        "default 50)")
    p.add_argument("--json", action="store_true",
                   help="emit the sweep table as JSON")
    _add_machine_arg(p)
    p.set_defaults(fn=_cmd_sweep)

    from repro.telemetry.scenarios import SCENARIOS

    p = sub.add_parser(
        "telemetry",
        help="run an instrumented scenario and export a Chrome trace",
    )
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="dag",
                   help="which canned simulation to instrument")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="TRACE_JSON",
                   help="write the Chrome trace-event file here "
                        "(load in Perfetto / chrome://tracing)")
    p.add_argument("--jsonl-out", default=None, metavar="RECORDS_JSONL",
                   help="also stream the JSONL record export here "
                        "(bounded memory, byte-identical to to_jsonl)")
    p.add_argument("--metrics-out", default=None, metavar="PROM_TXT",
                   help="also write the metrics registry in Prometheus "
                        "text exposition format")
    p.add_argument("--shard-dir", default=None, metavar="DIR",
                   help="spill telemetry out-of-core to JSONL shards in "
                        "DIR as records close; exports are stitched back "
                        "from the shards, byte-identical to in-memory")
    p.add_argument("--shard-bytes", type=int, default=None, metavar="N",
                   help="shard rotation threshold in bytes "
                        "(default 4 MiB; requires --shard-dir)")
    p.add_argument("--replicas", type=int, default=1,
                   help="run N seeded replicas and merge their traces "
                        "into one (default 1)")
    p.add_argument("--json", action="store_true",
                   help="emit scenario results + metrics as JSON")
    _add_machine_arg(p)
    p.set_defaults(fn=_cmd_telemetry)

    def add_spec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default=None, metavar="CAMPAIGN.json",
                       help="declarative campaign spec file")
        p.add_argument("--drug", type=int, default=0, metavar="N",
                       help="instead of --spec: a Section V drug-discovery "
                            "campaign of N docking jobs")
        p.add_argument("--seed", type=int, default=2022,
                       help="seed for --drug campaign generation")

    p = sub.add_parser(
        "serve",
        help="run the crash-safe campaign server (WAL + leases)",
    )
    add_spec_args(p)
    p.add_argument("--journal", required=True, metavar="DIR",
                   help="write-ahead journal directory; restart with the "
                        "same directory to resume after a crash")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--sweep-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="lease-expiry sweep period (default: half the "
                        "spec's heartbeat interval)")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip journal fsyncs (faster, NOT crash-safe; "
                        "tests only)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="bulk-ingest a campaign spec into a running server",
    )
    add_spec_args(p)
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-request timeout in seconds")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "campaign-status",
        help="query a running campaign server",
    )
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--timeout", type=float, default=10.0)
    p.add_argument("--results", action="store_true",
                   help="also fetch the completed result set")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_campaign_status)

    p = sub.add_parser(
        "events",
        help="tail a running campaign server's live event stream",
    )
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--topic", default="journal",
                   choices=("journal", "spans", "events", "counters"),
                   help="journal (durable, exactly-once across restarts) "
                        "or a live telemetry topic (ring-buffered)")
    p.add_argument("--since-seq", type=int, default=0, metavar="SEQ",
                   help="start after this sequence number (0 = everything)")
    p.add_argument("--follow", action="store_true",
                   help="stay subscribed until the campaign drains, "
                        "reconnecting across server restarts")
    p.add_argument("--max-frames", type=int, default=1000,
                   help="catch-up frame cap (ignored with --follow)")
    p.add_argument("--give-up", type=float, default=30.0, metavar="SECONDS",
                   help="with --follow: abandon after this long of "
                        "continuous server unreachability")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="per-request / frame-silence timeout in seconds")
    p.add_argument("--json", action="store_true",
                   help="emit one wire frame per line (machine-readable)")
    p.set_defaults(fn=_cmd_events)

    p = sub.add_parser(
        "work",
        help="run a worker loop against a running campaign server",
    )
    p.add_argument("--socket", required=True, metavar="PATH")
    p.add_argument("--session", default=None,
                   help="session id (default: random)")
    p.add_argument("--max-jobs", type=int, default=1,
                   help="leases to acquire per round-trip")
    p.add_argument("--idle-exit-s", type=float, default=None,
                   help="exit after this long with no work (default: "
                        "wait for the campaign to finish)")
    p.set_defaults(fn=_cmd_work)

    p = sub.add_parser(
        "verify",
        help="run the paper-parity conformance battery (exit 1 on failure)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sections", default=None,
                   help="comma-separated registry sections to check "
                        "(e.g. fig1,section4b; default: all)")
    p.add_argument("--json", action="store_true",
                   help="emit the full conformance report as JSON "
                        "(byte-identical for identical seeds)")
    p.add_argument("--out", default=None, metavar="REPORT",
                   help="also write the report to this file")
    p.add_argument("--list", action="store_true",
                   help="list every registered expectation and exit")
    _add_machine_arg(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


#: Library errors exit with a distinct, stable code per class — scripts and
#: supervisors branch on them instead of parsing tracebacks. Lookup
#: walks the MRO, so a subclass without its own entry inherits its parent's.
EXIT_CODES: dict[type, int] = {
    errors.ConfigurationError: 3,
    errors.CapacityError: 4,
    errors.SimulationError: 5,
    errors.ConvergenceError: 6,
    errors.TaxonomyError: 7,
    errors.ServiceError: 8,
    errors.Saturated: 9,
    errors.LeaseExpired: 10,
    errors.CorruptLog: 11,
    errors.ProtocolError: 12,
    errors.ReproError: 64,
}


def exit_code_for(exc: errors.ReproError) -> int:
    """Most-derived EXIT_CODES entry for ``exc``'s class."""
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    return 64  # pragma: no cover - ReproError is always in the MRO


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # every command that takes --seed
            raise errors.ConfigurationError(
                f"--seed must be >= 0, got {args.seed}"
            )
        return args.fn(args)
    except errors.ReproError as exc:
        print(f"error: [{type(exc).__name__}] {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
