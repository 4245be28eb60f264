"""Deterministic chaos harness for the campaign service.

The harness is test code: the production service carries no fault hook.
Worker faults are injected at the client boundary — a worker process
(``python -m tests.service_chaos``) runs the production
:func:`~repro.service.worker.run_worker` over a :class:`ChaosClient` — and
server faults come from outside, as real SIGKILLs of a ``repro serve``
process.

SAIH's point (PAPERS.md) cuts both ways: evaluation machinery must itself
be trustworthy. So fault injection here is **seeded and replayable** — a
:class:`ChaosPlan` derived from a seed always kills the same workers after
the same number of completion attempts, SIGKILLs the server at the same
campaign progress thresholds, and tears the same journal tails. Tests assert
plan determinism (same seed → same schedule) and recovery determinism (the
surviving campaign's result set is byte-identical to an uninterrupted run).

Fault repertoire:

- **worker kill** — ``os._exit(137)`` in place of a planned ``complete``,
  while holding the lease (exercises lease expiry + requeue);
- **dropped heartbeats** — the client sends no heartbeat while it runs a
  planned job, so its lease expires mid-flight and its late completion
  must be rejected (exercises the :class:`~repro.errors.LeaseExpired`
  double-completion guard);
- **server SIGKILL** — no cleanup, no flush; recovery is journal replay
  (exercises the WAL durability contract);
- **torn journal tail** — garbage appended to the last segment after a
  kill, simulating a write torn by the crash (exercises replay's
  discard-don't-die tolerance);
- **slow / failing handlers** — ``chaos:sleep`` and ``chaos:flaky`` jobs
  injected at spec level (exercise heartbeats and attempt accounting).
  They are not production handlers: harness workers register them, and
  in-process tests register them with ``monkeypatch.setitem(HANDLERS,
  ...)`` (the ``chaos_handlers`` fixture in ``tests/conftest.py``).

:func:`run_chaos_campaign` is the orchestrator the crash tests and the CI
chaos job drive: real subprocesses, real SIGKILLs, real sockets.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.atomicio import atomic_write_text
from repro.errors import ConfigurationError, ServiceError, SimulationError
from repro.segmentlog import canonical_json
from repro.service import HANDLERS, ServiceClient, run_worker
from repro.service.journal import segment_paths
from repro.service.spec import CampaignSpec, JobSpec

__all__ = [
    "ChaosClient",
    "ChaosOutcome",
    "ChaosPlan",
    "WorkerChaos",
    "chaos_campaign",
    "chaos_handlers",
    "run_chaos_campaign",
    "tear_journal_tail",
]


@dataclass(frozen=True)
class WorkerChaos:
    """One worker's deterministic fault schedule, keyed by the count of
    completions the worker has attempted so far."""

    kill_at: tuple[int, ...] = ()
    drop_heartbeats_at: tuple[int, ...] = ()

    def kill_before_complete(self, n_attempted: int) -> bool:
        return n_attempted in self.kill_at

    def drop_heartbeats(self, n_attempted: int) -> bool:
        return n_attempted in self.drop_heartbeats_at


@dataclass(frozen=True)
class ChaosPlan:
    """The full, seed-derived fault schedule for one campaign run."""

    seed: int
    n_workers: int
    workers: tuple[WorkerChaos, ...]
    #: SIGKILL the server when this many jobs are done (ascending).
    server_kill_after_done: tuple[int, ...] = ()
    #: After each server kill, tear the journal tail? (parallel list)
    tear_tail_after_kill: tuple[bool, ...] = ()

    @classmethod
    def from_seed(
        cls,
        seed: int,
        n_workers: int = 2,
        n_jobs: int = 24,
        server_kills: int = 1,
        worker_kill_probability: float = 0.5,
    ) -> "ChaosPlan":
        """Derive a schedule deterministically — same seed, same plan.

        >>> ChaosPlan.from_seed(7) == ChaosPlan.from_seed(7)
        True
        >>> ChaosPlan.from_seed(7) == ChaosPlan.from_seed(8)
        False
        """
        if n_workers < 1 or n_jobs < 4:
            raise ConfigurationError("need >= 1 worker and >= 4 jobs")
        rng = random.Random(seed)
        workers = []
        for _ in range(n_workers):
            kill_at: tuple[int, ...] = ()
            drop_at: tuple[int, ...] = ()
            if rng.random() < worker_kill_probability:
                kill_at = (rng.randrange(1, max(2, n_jobs // n_workers)),)
            if rng.random() < 0.5:
                drop_at = (rng.randrange(0, max(1, n_jobs // n_workers)),)
            workers.append(WorkerChaos(kill_at=kill_at,
                                       drop_heartbeats_at=drop_at))
        lo, hi = max(1, n_jobs // 4), max(2, (3 * n_jobs) // 4)
        kills = tuple(sorted(rng.randrange(lo, hi)
                             for _ in range(server_kills)))
        tears = tuple(rng.random() < 0.5 for _ in kills)
        return cls(
            seed=seed, n_workers=n_workers, workers=tuple(workers),
            server_kill_after_done=kills, tear_tail_after_kill=tears,
        )

    def worker(self, index: int) -> WorkerChaos:
        return self.workers[index % len(self.workers)]

    # -- JSON round-trip (workers read the plan from a file) -----------------------

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosPlan":
        return cls(
            seed=int(data["seed"]),
            n_workers=int(data["n_workers"]),
            workers=tuple(
                WorkerChaos(
                    kill_at=tuple(w.get("kill_at", ())),
                    drop_heartbeats_at=tuple(w.get("drop_heartbeats_at", ())),
                )
                for w in data["workers"]
            ),
            server_kill_after_done=tuple(
                data.get("server_kill_after_done", ())
            ),
            tear_tail_after_kill=tuple(data.get("tear_tail_after_kill", ())),
        )

    def to_file(self, path: str | Path) -> Path:
        return atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ChaosPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _h_sleep(params: dict[str, Any], seed: int) -> Any:
    """Hold the lease for ``seconds`` (slow-handler injection)."""
    seconds = float(params.get("seconds", 0.1))
    time.sleep(seconds)
    return {"slept_s": round(seconds, 9)}


def chaos_handlers() -> dict[str, Callable[[dict[str, Any], int], Any]]:
    """The harness's job handlers, keyed for ``repro.service.HANDLERS``.

    ``chaos:flaky`` fails its first ``fail_attempts`` calls for each job
    seed, then reports the call it succeeded on. Each call of this function
    starts fresh counts. A count equals the job's attempt number when one
    worker runs every attempt of that job.
    """
    calls: Counter[int] = Counter()

    def flaky(params: dict[str, Any], seed: int) -> Any:
        calls[seed] += 1
        attempt = calls[seed]
        fail_attempts = int(params.get("fail_attempts", 1))
        if attempt <= fail_attempts:
            raise SimulationError(
                f"flaky handler failing on attempt {attempt}/{fail_attempts}"
            )
        return {"succeeded_on_attempt": attempt}

    return {"chaos:sleep": _h_sleep, "chaos:flaky": flaky}


class ChaosClient(ServiceClient):
    """A worker's client that injects one :class:`WorkerChaos` schedule.

    The schedule is keyed by ``attempted``, the count of completions this
    client has sent, whether the server accepted them or not: a job whose
    heartbeats were dropped comes back ``LeaseExpired``, and the schedule
    still moves on to the next job. While the count is planned to drop
    heartbeats, :meth:`heartbeat` sends nothing, so the running job's lease
    expires under it. At a planned kill count, :meth:`complete` exits the
    process with status 137 in place of sending: the lease is held, the
    result lost, nothing flushed — SIGKILL semantics.
    """

    def __init__(self, socket_path: str | Path, chaos: WorkerChaos,
                 **kwargs: Any):
        super().__init__(socket_path, **kwargs)
        self.chaos = chaos
        self.attempted = 0

    def heartbeat(self, job_ids: list[str]) -> float:
        if self.chaos.drop_heartbeats(self.attempted):
            return 0.0  # nothing sent, so no deadline was granted
        return super().heartbeat(job_ids)

    def complete(self, job_id: str, result: Any) -> bool:
        if self.chaos.kill_before_complete(self.attempted):
            os._exit(137)
        self.attempted += 1
        return super().complete(job_id, result)


def chaos_campaign(
    n_jobs: int = 24,
    seed: int = 0,
    slow_every: int = 6,
    name: str = "chaos-campaign",
    sleep_s: float = 0.15,
    **overrides: Any,
) -> CampaignSpec:
    """A campaign mixing fast deterministic jobs with slow lease-holders.

    Every ``slow_every``-th job is a ``chaos:sleep`` that holds its lease
    for ``sleep_s``; ``slow_every=1`` makes every job one.

    Every handler here is a pure function of (params, seed) — no
    ``chaos:flaky`` — so :func:`repro.service.expected_results` predicts
    the exact final result set regardless of how many faults interrupt the
    run (with :func:`chaos_handlers` registered, for ``chaos:sleep``).
    """
    jobs = []
    for i in range(n_jobs):
        if slow_every and i % slow_every == slow_every - 1:
            jobs.append(JobSpec(
                job_id=f"job-{i:04d}", handler="chaos:sleep",
                params={"seconds": sleep_s}, seed=seed + i,
            ))
        else:
            jobs.append(JobSpec(
                job_id=f"job-{i:04d}", handler="quadrature",
                params={"n_samples": 512}, seed=seed + i,
            ))
    overrides.setdefault("lease_timeout_s", 1.5)
    overrides.setdefault("heartbeat_interval_s", 0.2)
    overrides.setdefault("max_attempts", 6)
    overrides.setdefault("backoff_base_s", 0.02)
    overrides.setdefault("backoff_max_s", 0.2)
    return CampaignSpec(name=name, jobs=tuple(jobs), **overrides)


def tear_journal_tail(
    journal_dir: str | Path, garbage: bytes = b'{"seq":1e9,"type":"lea'
) -> Path | None:
    """Simulate a write torn by the crash: partial JSON, no newline, at the
    tail of the last segment. Replay must discard it, not die."""
    segments = segment_paths(journal_dir)
    if not segments:
        return None
    with open(segments[-1], "ab") as fh:
        fh.write(garbage)
    return segments[-1]


# -- the orchestrator -----------------------------------------------------------


@dataclass
class ChaosOutcome:
    """What a chaos run did and what survived."""

    results: dict[str, Any]
    status: dict[str, Any]
    server_kills: int = 0
    worker_kills: int = 0
    tails_torn: int = 0
    workers_replaced: int = 0
    log_paths: list[str] = field(default_factory=list)
    #: Wire frames a live ``events --follow`` subscriber saw across every
    #: server kill/restart (populated when ``tail_events=True``).
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def results_json(self) -> str:
        """Canonical encoding, for byte-identity comparisons."""
        return canonical_json(self.results)


def _python_env() -> dict[str, str]:
    """Child env able to import repro and this harness from this checkout."""
    import repro

    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "").split(os.pathsep)
    for root in (Path(repro.__file__).resolve().parents[1],
                 Path(__file__).resolve().parents[1]):
        if str(root) not in paths:
            paths.insert(0, str(root))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _short_socket_path() -> Path:
    # AF_UNIX paths are length-capped (~107 bytes); pytest tmp dirs can
    # blow past that, so sockets live in their own short tempdir.
    return Path(tempfile.mkdtemp(prefix="rsvc-")) / "s"


class _Procs:
    """Server + worker subprocess management for one chaos run."""

    def __init__(self, workdir: Path, socket_path: Path, env: dict[str, str]):
        self.workdir = workdir
        self.socket_path = socket_path
        self.env = env
        self.server: subprocess.Popen | None = None
        self.workers: dict[str, subprocess.Popen] = {}
        self.follower: subprocess.Popen | None = None
        self.logs: list[Path] = []

    def _spawn(self, args: list[str], log_name: str) -> subprocess.Popen:
        log = self.workdir / log_name
        self.logs.append(log)
        with open(log, "ab") as fh:
            return subprocess.Popen(
                [sys.executable, "-m", *args],
                stdout=fh, stderr=subprocess.STDOUT, env=self.env,
                cwd=str(self.workdir),
            )

    def start_server(self, spec_path: Path, journal_dir: Path) -> None:
        self.server = self._spawn(
            ["repro.cli", "serve", "--spec", str(spec_path),
             "--journal", str(journal_dir),
             "--socket", str(self.socket_path),
             "--sweep-interval", "0.05"],
            "server.log",
        )

    def start_follower(self, give_up_s: float) -> Path:
        """A live ``events --follow`` subscriber; frames go to events.jsonl.

        stdout carries the JSON frame stream only (stderr goes to its own
        log), and the process is expected to ride out every server SIGKILL
        by reconnecting and resubscribing from the last seq it saw.
        """
        out = self.workdir / "events.jsonl"
        err = self.workdir / "follower.log"
        self.logs.append(err)
        with open(out, "wb") as out_fh, open(err, "ab") as err_fh:
            self.follower = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "events",
                 "--socket", str(self.socket_path), "--follow", "--json",
                 "--give-up", str(give_up_s)],
                stdout=out_fh, stderr=err_fh, env=self.env,
                cwd=str(self.workdir),
            )
        return out

    def kill_server(self) -> None:
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGKILL)
            self.server.wait(timeout=10)

    def start_worker(self, session: str, plan_path: Path | None,
                     index: int) -> None:
        args = ["tests.service_chaos", str(self.socket_path),
                "--session", session, "--idle-exit-s", "20"]
        if plan_path is not None:
            args += ["--chaos-plan", str(plan_path),
                     "--chaos-worker", str(index)]
        self.workers[session] = self._spawn(args, f"{session}.log")

    def reap(self) -> None:
        for proc in [self.server, self.follower, *self.workers.values()]:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def run_chaos_campaign(
    spec: CampaignSpec,
    plan: ChaosPlan,
    workdir: str | Path,
    deadline_s: float = 90.0,
    tail_events: bool = False,
) -> ChaosOutcome:
    """Drive ``spec`` through real subprocesses under ``plan``'s faults.

    Starts one server and ``plan.n_workers`` chaos-wrapped workers, then
    supervises: SIGKILLs the server at each planned completion threshold
    (optionally tearing the journal tail) and restarts it against the same
    journal; replaces killed workers with clean ones. Returns once every
    job is DONE or FAILED, with the final result set fetched from the
    recovered server.

    ``tail_events`` additionally runs a live ``events --follow`` subscriber
    for the whole campaign — including across the server SIGKILLs — and
    returns the frames it saw in ``outcome.events``. The crash tests assert
    that stream is gap-free and seq-ordered: the exactly-once claim of the
    disk-backed journal topic, exercised by real kills.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    journal_dir = workdir / "journal"
    spec_path = workdir / "campaign.json"
    atomic_write_text(spec_path, spec.to_json())
    plan_path = workdir / "chaos-plan.json"
    plan.to_file(plan_path)
    socket_path = _short_socket_path()

    procs = _Procs(workdir, socket_path, _python_env())
    outcome = ChaosOutcome(results={}, status={})
    client = ServiceClient(socket_path, session="chaos-supervisor")
    kills_pending = list(plan.server_kill_after_done)
    tears_pending = list(plan.tear_tail_after_kill)
    deadline = time.time() + deadline_s
    events_path: Path | None = None
    try:
        procs.start_server(spec_path, journal_dir)
        client.wait_ready(timeout_s=30.0)
        if tail_events:
            events_path = procs.start_follower(give_up_s=deadline_s)
        for i in range(plan.n_workers):
            procs.start_worker(f"chaos-w{i}", plan_path, i)
        while True:
            if time.time() > deadline:
                raise ServiceError(
                    f"chaos campaign exceeded {deadline_s:.0f}s deadline "
                    f"(status: {outcome.status.get('counts')})"
                )
            try:
                status = client.status()
            except (ServiceError, OSError):
                time.sleep(0.05)
                continue
            outcome.status = status
            done = status["counts"]["done"] + status["counts"]["failed"]
            if kills_pending and done >= kills_pending[0]:
                kills_pending.pop(0)
                procs.kill_server()
                outcome.server_kills += 1
                if tears_pending.pop(0):
                    if tear_journal_tail(journal_dir) is not None:
                        outcome.tails_torn += 1
                procs.start_server(spec_path, journal_dir)
                client.wait_ready(timeout_s=30.0)
            # Replace chaos-killed workers with clean ones so planned
            # worker deaths cannot stall the campaign.
            for session, proc in list(procs.workers.items()):
                code = proc.poll()
                if code == 137:
                    outcome.worker_kills += 1
                    del procs.workers[session]
                    replacement = f"{session}-r{outcome.workers_replaced}"
                    procs.start_worker(replacement, None, 0)
                    outcome.workers_replaced += 1
                elif code not in (None, 0):
                    raise ServiceError(
                        f"worker {session} exited with code {code}; "
                        f"see {workdir / (session + '.log')}"
                    )
            if status["finished"]:
                break
            time.sleep(0.05)
        outcome.results = client.results()
        client.drain()
        if procs.server is not None:
            procs.server.wait(timeout=15)
        if procs.follower is not None:
            # The drain frame then end-of-stream reach the follower; it
            # must exit on its own, not be reaped.
            procs.follower.wait(timeout=30)
    finally:
        procs.reap()
        outcome.log_paths = [str(p) for p in procs.logs]
    if events_path is not None and events_path.exists():
        outcome.events = [
            json.loads(line)
            for line in events_path.read_text().splitlines() if line
        ]
    return outcome


def main(argv: list[str] | None = None) -> int:
    """One harness worker process: the production loop over a chaos client."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.service_chaos",
        description="Campaign worker with the harness handlers and an "
                    "optional seeded fault schedule",
    )
    parser.add_argument("socket", help="unix socket path of the server")
    parser.add_argument("--session", required=True)
    parser.add_argument("--idle-exit-s", type=float, default=None)
    parser.add_argument("--chaos-plan", default=None,
                        help="path to a chaos plan JSON (default: no faults)")
    parser.add_argument("--chaos-worker", type=int, default=0,
                        help="this worker's index in the chaos plan")
    args = parser.parse_args(argv)
    HANDLERS.update(chaos_handlers())
    chaos = WorkerChaos()
    if args.chaos_plan:
        chaos = ChaosPlan.from_file(args.chaos_plan).worker(args.chaos_worker)
    client = ChaosClient(args.socket, chaos, session=args.session)
    completed = run_worker(client, idle_exit_s=args.idle_exit_s)
    print(f"worker {args.session}: {completed} jobs completed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
