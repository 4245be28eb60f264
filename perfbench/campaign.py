"""The service campaign: one closed-loop worker against a server process.

Each pass starts ``python -m repro.cli serve`` over a fresh journal and
result-cache directory with fsync on, until it answers a ping. The
benchmark process is the single worker: with one request outstanding at a
time it runs ``acquire(1)``, then ``run_job``, then ``complete`` until no
lease is left. Wave 1 ingests distinct ``quadrature`` jobs; wave 2 ingests
two thirds as many, half of them repeating wave-1 content, so the server
completes those from its result cache at ingest.

Its wall time drifted by a fifth within minutes on a shared host, more than
any bound could absorb, so it is no workload of its own: the traced
``workflow-dag`` run drives it for the service's layer metrics (its journal
is the other segmented-JSONL writer beside the telemetry shards).
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np

from harness import SRC, Context, percentile

PASSES = 4  # the first is a warm-up
WAVE1 = 360
WAVE2 = 240  # half repeat wave-1 content
SERVER_WAIT_S = 30.0


def make_waves(seed: int):
    """Two seeded job waves; the second repeats ``WAVE2 // 2`` of the first."""
    from repro.service import JobSpec

    rng = np.random.default_rng(seed)
    n_new = WAVE1 + WAVE2 - WAVE2 // 2
    seeds = rng.choice(10**9, size=n_new, replace=False)
    samples = rng.integers(256, 4096, size=n_new)
    contents = [({"n_samples": int(n)}, int(s)) for n, s in zip(samples, seeds)]
    wave1 = [JobSpec(f"w1-{i:05d}", "quadrature", p, seed=s)
             for i, (p, s) in enumerate(contents[:WAVE1])]
    repeats = rng.choice(WAVE1, size=WAVE2 // 2, replace=False)
    wave2_contents = [contents[int(k)] for k in repeats] + contents[WAVE1:]
    order = rng.permutation(len(wave2_contents))
    wave2 = [JobSpec(f"w2-{i:05d}", "quadrature", *wave2_contents[int(k)])
             for i, k in enumerate(order)]
    return wave1, wave2


class _Server:
    """A ``repro.cli serve`` child process over its own directories."""

    def __init__(self, workdir, name: str):
        from repro.service import CampaignSpec, ServiceClient

        workdir.mkdir(parents=True)
        self.journal = workdir / "journal"
        spec_path = workdir / "spec.json"
        spec_path.write_text(CampaignSpec(name=name).to_json())
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_CACHE_DIR"] = str((workdir / "cache").resolve())
        socket_path = workdir / "s"  # relative: unix socket paths are short
        self.log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--spec", str(spec_path), "--journal", str(self.journal),
             "--socket", str(socket_path)],
            env=env, stdout=self.log, stderr=subprocess.STDOUT,
        )
        self.client = ServiceClient(socket_path, session="perfbench-worker")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.log.close()

    def stop(self) -> None:
        """Drain the server and wait for it; kill it if it will not exit."""
        try:
            self.client.drain()
            self.proc.wait(timeout=SERVER_WAIT_S)
        except BaseException:
            self.kill()
            raise
        self.log.close()


def run(ctx: Context) -> tuple[dict, dict]:
    """Drive ``PASSES`` campaigns, tracing all but the first.

    Returns ``(metrics, layers)``: the metrics at the reference CPU speed
    of ``ctx``'s samples, the layers as wall times. Output checks go to
    ``ctx.checks``.
    """
    from repro.service import CampaignSpec, expected_results, run_job
    from repro.service.journal import segment_paths

    tracer = ctx.tracer
    span = tracer.span
    wave1, wave2 = make_waves(ctx.seed)
    n_jobs = len(wave1) + len(wave2)
    n_repeats = WAVE2 // 2
    expected = expected_results(CampaignSpec("expected", tuple(wave1 + wave2)))
    last: dict = {}

    def work(client) -> None:
        """The closed loop: one request outstanding until no lease is left."""
        while True:
            with span("service.client.acquire"):
                leases = client.acquire(1)
            if not leases:
                return
            job = leases[0]["job"]
            with span("service.handlers.run_job"):
                result = run_job(job["handler"], job["params"], job["seed"])
            with span("service.client.complete"):
                client.complete(job["job_id"], result)

    for i in range(PASSES):
        tracer.enabled = i > 0
        with span("service.server.start"):
            server = _Server(ctx.tmp / f"campaign-{i}",
                             name=f"perfbench-{ctx.seed}")
            try:
                server.client.wait_ready(timeout_s=SERVER_WAIT_S)
            except BaseException:
                server.kill()
                raise
        try:
            client = server.client
            with span("service.campaign"):
                for wave in (wave1, wave2):
                    with span("service.client.ingest"):
                        client.submit(wave)
                    work(client)
            status = client.status()
            results = client.results()
        finally:
            server.stop()

        checks = ctx.checks
        bad = [f"{job_id}: result differs from expected_results"
               for job_id, want in expected.items()
               if results.get(job_id) != want]
        checks.count(len(expected), bad)
        checks.expect(len(results) == n_jobs,
                      f"{len(results)} results for {n_jobs} jobs")
        checks.expect(status["total_requeues"] == 0,
                      f"{status['total_requeues']} requeues")
        checks.expect(not status["failed_jobs"], "campaign jobs failed")
        metrics = status["metrics"]
        cached = metrics.get("service.cache_completions", {}).get("value", 0)
        checks.expect(cached == n_repeats,
                      f"{cached} cache completions for {n_repeats} repeats")
        last.update(
            fsyncs=metrics["journal.fsyncs"]["value"],
            journal_bytes=sum(p.stat().st_size
                              for p in segment_paths(server.journal)),
            cached=cached,
        )

    def ms(*names: str, q: float) -> float:
        return percentile(
            [1e3 * d for name in names for d in tracer.durations(name)], q
        )

    rpc = ("service.client.acquire", "service.client.complete")
    n_rpc = sum(len(tracer.durations(name)) for name in rpc)
    campaign_s = ctx.scale(tracer.median("service.campaign"))
    rpc_unit = f"ms (n={n_rpc} round-trips)"
    named = {
        "jobs_per_s": (n_jobs / campaign_s, "1/s"),
        "campaign_s": (campaign_s, "s"),
        "rpc_p50_ms": (ctx.scale(ms(*rpc, q=50)), rpc_unit),
        "rpc_p99_ms": (ctx.scale(ms(*rpc, q=99)), rpc_unit),
    }
    layers = {
        "service.server.start_s": tracer.median("service.server.start"),
        "service.client.ingest_ms": ms("service.client.ingest", q=50),
        "service.client.acquire_ms.p50": ms("service.client.acquire", q=50),
        "service.client.acquire_ms.p99": ms("service.client.acquire", q=99),
        "service.client.complete_ms.p50": ms("service.client.complete", q=50),
        "service.client.complete_ms.p99": ms("service.client.complete", q=99),
        "service.handlers.run_job_ms": ms("service.handlers.run_job", q=50),
        "service.journal.fsyncs": last["fsyncs"],
        "service.journal.bytes": last["journal_bytes"],
        "service.cache_completions": last["cached"],
        "service.cache_hit_ratio": last["cached"] / n_repeats,
    }
    return named, layers
