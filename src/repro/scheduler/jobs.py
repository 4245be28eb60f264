"""Job records and synthetic campaign generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.portfolio.project import Project


@dataclass(frozen=True)
class Job:
    """One batch job.

    ``uses_ai`` tags the job for the delivered-hours accounting; ``project``
    optionally links back to the portfolio record it was generated from.
    """

    job_id: str
    nodes: int
    duration: float  # seconds of execution once started
    submit_time: float
    uses_ai: bool = False
    project: Project | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        # A Python int width pays one type test. Any other width must pass
        # :func:`is_integer` (NaN, floats and bools do not) and is stored as
        # an int, so a numpy width cannot turn the scheduler's node-second
        # sums into numpy scalars.
        if type(self.nodes) is not int:
            if not is_integer(self.nodes, 1):
                raise ConfigurationError(
                    f"{self.job_id}: nodes must be >= 1 and an integer, "
                    f"got {self.nodes!r}"
                )
            object.__setattr__(self, "nodes", int(self.nodes))
        elif self.nodes < 1:
            raise ConfigurationError(f"{self.job_id}: nodes must be >= 1")
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigurationError(
                f"{self.job_id}: duration must be positive and finite"
            )
        if not math.isfinite(self.submit_time) or self.submit_time < 0:
            raise ConfigurationError(
                f"{self.job_id}: submit time must be finite and non-negative"
            )

    @property
    def node_seconds(self) -> float:
        return self.nodes * self.duration


#: Summit's batch-queue size/walltime structure ("bins"): wider jobs get
#: longer walltime limits — the capability-computing policy of Section II-B.
SUMMIT_QUEUE_BINS = (
    # (min_nodes, max_walltime_hours)
    (2765, 24.0),  # bin 1: >= 60 % of the machine
    (922, 24.0),
    (92, 12.0),
    (46, 6.0),
    (1, 2.0),
)

#: Longest stream :func:`synthetic_facility_year` builds: about 60
#: Summit-years (a 4,608-node year is ~83,000 jobs). A larger node-second
#: budget is finite but would take hours and gigabytes to materialise.
MAX_SYNTHETIC_JOBS = 5_000_000


def is_integer(value, least: int) -> bool:
    """Whether ``value`` is an integer of at least ``least``: numpy ints
    count; bools, floats (whole ones included) and NaN do not."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= least
    )


def walltime_limit(nodes: int) -> float:
    """Walltime limit in seconds for a job of ``nodes`` nodes under
    Summit's queue policy."""
    if not nodes >= 1:  # written so that NaN fails it
        raise ConfigurationError(f"nodes must be >= 1, got {nodes!r}")
    for min_nodes, hours in SUMMIT_QUEUE_BINS:
        if nodes >= min_nodes:
            return hours * 3600.0
    raise AssertionError("unreachable: last bin matches all sizes")


def synthetic_facility_year(
    seed: int = 0,
    n_nodes: int = 4608,
    horizon: float = 365.0 * 86400.0,
    utilization_target: float = 0.85,
    ai_fraction: float = 0.3,
    capability_fraction: float = 0.02,
) -> list[Job]:
    """A utilization-targeted synthetic job stream over ``horizon`` seconds.

    The whole-facility replay workload (ROADMAP item 3's stream, sized for
    the facility-year demo): most jobs are narrow (log-uniform up to ~2 %
    of the machine — the long tail of the Section II job census) with a
    ``capability_fraction`` of wide jobs (log-uniform from ~20 % of the
    machine up to all of it) that carry most of the node-hours, the INCITE
    shape. Durations are log-normal within each width's Summit walltime
    bin, submissions uniform over the horizon, and the stream is cut when
    offered load reaches ``utilization_target`` of the machine's
    node-seconds — so the queue stays statistically stable across a year
    instead of exploding or draining. At Summit scale this yields roughly
    a hundred thousand jobs per simulated year.

    All draws are vectorized in fixed-size blocks from one seeded
    ``Generator``, so the stream is deterministic in ``seed`` and
    independent of how the budget rounds against block boundaries.

    A budget whose stream would exceed :data:`MAX_SYNTHETIC_JOBS` jobs is
    rejected before any job is built; the length is estimated as the
    budget over the first block's mean node-seconds per job.
    """
    if not is_integer(n_nodes, 1):
        raise ConfigurationError(
            f"n_nodes must be an integer >= 1, got {n_nodes!r}"
        )
    # each check below is written so that NaN fails it
    if not 0.0 < horizon < math.inf:
        raise ConfigurationError("horizon must be positive and finite")
    if not 0.0 < utilization_target <= 1.0:
        raise ConfigurationError("utilization_target must be in (0, 1]")
    if not 0.0 <= capability_fraction <= 1.0:
        raise ConfigurationError("capability_fraction must be in [0, 1]")
    if not 0.0 <= ai_fraction <= 1.0:
        raise ConfigurationError("ai_fraction must be in [0, 1]")
    budget = utilization_target * n_nodes * horizon
    if not budget < math.inf:
        raise ConfigurationError(
            "the node-second budget (utilization_target x n_nodes x "
            "horizon) must be finite"
        )
    rng = np.random.default_rng(seed)
    narrow_cap = max(2, n_nodes // 50)  # Summit: 92 nodes, the 12 h bin edge
    wide_floor = max(1, n_nodes // 5)  # Summit: 921 nodes, the 20 % bin edge
    block = 8192
    jobs: list[Job] = []
    filled = 0.0
    while filled < budget:
        is_wide = rng.random(block) < capability_fraction
        narrow = np.exp(
            rng.uniform(0.0, np.log(narrow_cap), block)
        ).astype(np.int64)
        wide = np.exp(
            rng.uniform(np.log(wide_floor), np.log(n_nodes), block)
        ).astype(np.int64)
        nodes = np.minimum(
            np.maximum(1, np.where(is_wide, wide, narrow)), n_nodes
        )
        limits = np.select(
            [nodes >= min_nodes for min_nodes, _ in SUMMIT_QUEUE_BINS],
            [hours * 3600.0 for _, hours in SUMMIT_QUEUE_BINS],
        )
        durations = np.clip(
            limits * rng.lognormal(mean=-1.2, sigma=0.6, size=block),
            300.0, limits,
        )
        submits = rng.uniform(0.0, horizon, block)
        uses_ai = rng.random(block) < ai_fraction
        work = nodes * durations
        if not jobs:
            estimate = budget / float(work.mean())
            if estimate > MAX_SYNTHETIC_JOBS:
                raise ConfigurationError(
                    f"the node-second budget {budget:.3g} needs about "
                    f"{estimate:.3g} jobs; at most {MAX_SYNTHETIC_JOBS} "
                    "are built"
                )
        cum = filled + np.cumsum(work)
        take = min(int(np.searchsorted(cum, budget, side="left")) + 1, block)
        base = len(jobs)
        # .tolist() yields the Python ints, floats and bools Job keeps
        jobs.extend(
            Job(f"y{seed}-j{base + j}", n, d, s, ai)
            for j, (n, d, s, ai) in enumerate(zip(
                nodes[:take].tolist(), durations[:take].tolist(),
                submits[:take].tolist(), uses_ai[:take].tolist(),
            ))
        )
        filled = float(cum[take - 1])
    jobs.sort(key=lambda job: job.submit_time)
    return jobs


def campaign_from_portfolio(
    projects: list[Project],
    jobs_per_project: int = 3,
    horizon: float = 7 * 24 * 3600.0,
    seed: int = 0,
) -> list[Job]:
    """Generate a synthetic job stream from portfolio records.

    Job sizes follow a log-uniform distribution from 1 node to a per-project
    cap that scales with the project's allocation (bigger awards run wider,
    the INCITE capability expectation) up to Summit's 4 608 nodes;
    durations are log-normal within the size bin's walltime limit;
    submissions are uniform over the horizon.
    """
    if not projects:
        raise ConfigurationError("no projects")
    if jobs_per_project < 1:
        raise ConfigurationError("jobs_per_project must be >= 1")
    rng = np.random.default_rng(seed)
    max_alloc = max(p.allocation_hours for p in projects)
    jobs: list[Job] = []
    for p_idx, project in enumerate(projects):
        # cap grows with allocation share: DD projects run small, INCITE wide
        cap = max(1, int(4608 * (project.allocation_hours / max_alloc)))
        for j in range(jobs_per_project):
            log_nodes = rng.uniform(0, np.log(max(2, cap)))
            nodes = max(1, int(np.exp(log_nodes)))
            limit = walltime_limit(nodes)
            duration = float(
                np.clip(limit * rng.lognormal(mean=-1.2, sigma=0.6), 300.0, limit)
            )
            jobs.append(
                Job(
                    job_id=f"{project.project_id}-j{j}",
                    nodes=nodes,
                    duration=duration,
                    submit_time=float(rng.uniform(0, horizon)),
                    uses_ai=project.uses_ai,
                    project=project,
                )
            )
    jobs.sort(key=lambda job: job.submit_time)
    return jobs
