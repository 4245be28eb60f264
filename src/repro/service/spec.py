"""The declarative campaign spec — one schema shared by CLI, service, tests.

A :class:`CampaignSpec` is the entire contract between a submitter and the
campaign server: which jobs to run (each a deterministic ``handler`` +
``params`` + ``seed`` triple), how long a session may hold a lease before
the job is requeued, how often it must heartbeat, how many jobs the server
will buffer before shedding load, and the :class:`RetryPolicy` governing
both server-side requeue accounting and client-side backoff.

Everything is plain JSON — ``to_json``/``from_json`` round-trip exactly —
so the same file drives ``repro submit``, ``repro serve`` and the test
suite, its fault harness included. Job identity is the ``job_id`` string;
job *content* (what gets memoized in the shared
:class:`~repro.exec.cache.ResultCache`) is the (handler, params, seed)
triple, via :meth:`JobSpec.content_payload`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.resilience.retry import RetryPolicy

__all__ = ["CampaignSpec", "JobSpec", "drug_campaign"]


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: a named deterministic handler plus its inputs."""

    job_id: str
    handler: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be non-empty")
        if not self.handler:
            raise ConfigurationError("handler must be non-empty")
        try:
            json.dumps(self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"job {self.job_id!r} params must be JSON-serialisable"
            ) from exc

    def content_payload(self) -> dict[str, Any]:
        """What the job *is*, for result-cache keying (identity excluded)."""
        return {"handler": self.handler, "params": self.params,
                "seed": self.seed}

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        return cls(
            job_id=str(data["job_id"]),
            handler=str(data["handler"]),
            params=dict(data.get("params", {})),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A whole campaign: jobs plus the service's robustness envelope."""

    name: str
    jobs: tuple[JobSpec, ...] = ()
    lease_timeout_s: float = 60.0
    heartbeat_interval_s: float = 15.0
    max_pending: int = 10_000
    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_max_s: float = 5.0
    deadline_s: float | None = None
    #: Ring-buffer depth per live event topic (journal backlog is disk-backed
    #: and unaffected; this bounds spans/events/counters catch-up only).
    event_history: int = 4096

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if self.lease_timeout_s <= 0:
            raise ConfigurationError("lease_timeout_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ConfigurationError("heartbeat_interval_s must be positive")
        if self.heartbeat_interval_s >= self.lease_timeout_s:
            raise ConfigurationError(
                "heartbeat_interval_s must be shorter than lease_timeout_s "
                "or a healthy session cannot keep its lease alive"
            )
        if self.max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if self.event_history < 1:
            raise ConfigurationError("event_history must be >= 1")
        seen: set[str] = set()
        for job in self.jobs:
            if job.job_id in seen:
                raise ConfigurationError(
                    f"duplicate job_id {job.job_id!r} in campaign"
                )
            seen.add(job.job_id)
        self.retry_policy()  # validates the backoff parameters

    def retry_policy(self) -> RetryPolicy:
        """The one policy both server requeue and client backoff share."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base_s,
            backoff_max=self.backoff_max_s,
            jitter_fraction=0.0,
            deadline_s=self.deadline_s,
        )

    # -- JSON round-trip -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["jobs"] = [job.to_dict() for job in self.jobs]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CampaignSpec":
        known = {
            "lease_timeout_s", "heartbeat_interval_s", "max_pending",
            "max_attempts", "backoff_base_s", "backoff_max_s", "deadline_s",
            "event_history",
        }
        kwargs = {k: data[k] for k in known if k in data and data[k] is not None}
        return cls(
            name=str(data["name"]),
            jobs=tuple(JobSpec.from_dict(j) for j in data.get("jobs", ())),
            **kwargs,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())


def drug_campaign(
    n_jobs: int = 32,
    seed: int = 2022,
    name: str = "section5-drug-discovery",
    **overrides: Any,
) -> CampaignSpec:
    """A Section V-shaped docking campaign: one ``docking`` job per batch.

    Deterministic: the same ``(n_jobs, seed)`` always yields the same spec,
    so an interrupted and an uninterrupted run of the same campaign can be
    compared byte for byte.

    >>> spec = drug_campaign(4)
    >>> [j.job_id for j in spec.jobs]
    ['dock-0000', 'dock-0001', 'dock-0002', 'dock-0003']
    >>> spec == CampaignSpec.from_json(spec.to_json())
    True
    """
    jobs = tuple(
        JobSpec(
            job_id=f"dock-{i:04d}",
            handler="docking",
            params={"n_compounds": 64, "batch": i},
            seed=seed + i,
        )
        for i in range(n_jobs)
    )
    return CampaignSpec(name=name, jobs=jobs, **overrides)
