"""Queue ordering policies.

Summit's scheduler prioritises *capability* jobs — the wider the job, the
higher its queue priority — with aging so small jobs eventually run, and
backfill so idle nodes are used by jobs that cannot delay the queue head.

:func:`priority_key` is the order at a given instant. Every queued job
ages at the same rate, so the order it gives never changes between
events; :func:`queue_key` is that order without the instant, and
:func:`tie_margin` says when float rounding can still tell them apart.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.scheduler.jobs import Job


class Policy(enum.Enum):
    """Queue ordering discipline."""

    FIFO = "fifo"
    CAPABILITY = "capability"  # Summit: wide jobs first, with aging
    SMALLEST_FIRST = "smallest_first"  # throughput-greedy anti-policy


#: Capability aging: the nodes-equivalent of priority a queued job gains
#: per hour of waiting, so small jobs are not starved.
AGING_NODES_PER_HOUR = 4.0


def priority_key(policy: Policy, job: Job, now: float):
    """Sort key (lower = runs earlier) for ``job`` under ``policy`` at ``now``.

    Capability priority: node count dominates, but waiting time buys
    priority at :data:`AGING_NODES_PER_HOUR`.
    """
    wait_hours = max(0.0, (now - job.submit_time) / 3600.0)
    if policy is Policy.FIFO:
        return (job.submit_time,)
    if policy is Policy.CAPABILITY:
        return (
            -(job.nodes + AGING_NODES_PER_HOUR * wait_hours),
            job.submit_time,
        )
    if policy is Policy.SMALLEST_FIRST:
        return (job.nodes, job.submit_time)
    raise AssertionError(f"unhandled policy {policy}")


def queue_key(policy: Policy) -> Callable[[Job], tuple]:
    """The ``now``-free sort key of ``policy``'s queue order.

    FIFO and smallest-first keys never read ``now``. The capability key
    ``-(nodes + aging · (now - submit) / 3600)`` equals
    ``aging · submit / 3600 - nodes`` minus the same ``aging · now / 3600``
    for every queued job, so it sorts queued jobs by
    ``(aging · submit / 3600 - nodes, submit)`` at every ``now`` — exactly
    in real arithmetic, and in floats whenever neighbouring keys are more
    than :func:`tie_margin` apart. ``nodes`` closes the tuple so that only
    jobs :func:`priority_key` ties at every ``now`` compare equal.
    """
    if policy is Policy.FIFO:
        return lambda job: (job.submit_time,)
    if policy is Policy.CAPABILITY:
        return lambda job: (
            AGING_NODES_PER_HOUR * job.submit_time / 3600.0 - job.nodes,
            job.submit_time,
            job.nodes,
        )
    if policy is Policy.SMALLEST_FIRST:
        return lambda job: (job.nodes, job.submit_time)
    raise AssertionError(f"unhandled policy {policy}")


def tie_margin(n_nodes: int, horizon: float) -> float:
    """A gap between two capability :func:`queue_key` values beyond which
    their :func:`priority_key` order is fixed at every ``now <= horizon``.

    Derivation, with ``u = 2**-53`` the unit roundoff, ``R`` the aging
    rate per second, ``S = R·submit`` and ``A = R·(now - submit)``:

    - :func:`priority_key` rounds four times (``now - submit``, ``/3600``,
      ``·aging``, ``nodes +``), so it is off by at most ``u·(nodes + 4A)``;
    - :func:`queue_key` rounds three times (``aging·``, ``/3600``,
      ``- nodes``), so it is off by at most ``u·(nodes + 3S)``;
    - ``S + A = R·now <= R·horizon``, so one job's two errors add up to at
      most ``2u·(n_nodes + 2R·horizon)``, and a pair's to twice that.

    A static gap above the pair's ``4u·(n_nodes + 2R·horizon)`` leaves the
    exact gap of their priority keys (the same number) larger than both
    rounding errors, so the two jobs never swap and never tie. The margin
    doubles that bound to cover the second-order terms and the rounding
    of the bound itself.
    """
    rate = AGING_NODES_PER_HOUR / 3600.0
    return 2.0**-50 * (n_nodes + 2.0 * rate * horizon)
