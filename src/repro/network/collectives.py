"""Analytic cost models for MPI-style collectives.

These are the standard alpha-beta cost expressions (Thakur et al.,
Rabenseifner) that underpin Section VI-B of the paper:

    ring allreduce:  t = 2 (p-1) alpha  +  2 (p-1)/p * M / B

so for large ``p`` the achieved *algorithmic* bandwidth tends to ``B / 2`` —
on Summit 25 GB/s injection becomes 12.5 GB/s, making a 100 MB ResNet-50
gradient take ~8 ms and a 1.4 GB BERT-large gradient ~110 ms per step.

The functions take the number of participants ``p``, the message size in
bytes ``M``, and a :class:`~repro.network.link.LinkSpec` describing the
injection link. The formulas themselves live in :mod:`repro.cost.kernels`
(shared with the vectorized sweep path); this module is the LinkSpec-typed
adapter for the two allreduce forms Section VI-B prices: the alpha-beta
allreduce (ring by default, or the fastest of the ring, recursive-doubling
and binomial-tree kernels) and the paper's closed form ``M / (B/2)``.
"""

from __future__ import annotations

import enum

from repro.cost import kernels
from repro.errors import ConfigurationError
from repro.network.link import LinkSpec


class AllreduceAlgorithm(enum.Enum):
    RING = "ring"
    RECURSIVE_DOUBLING = "recursive_doubling"
    BINOMIAL_TREE = "binomial_tree"


def ring_allreduce_time(p: int, size_bytes: float, link: LinkSpec) -> float:
    """Ring allreduce: reduce-scatter pass plus allgather pass.

    ``t = 2 (p-1) alpha + 2 (p-1)/p * M / B``. Each element crosses each
    rank's injection link twice, so the asymptotic algorithmic bandwidth is
    half the link bandwidth.
    """
    kernels.check_participants(p, size_bytes)
    return kernels.ring_allreduce_time(
        p, size_bytes, link.latency, link.total_bandwidth
    )


def allreduce_time(
    p: int,
    size_bytes: float,
    link: LinkSpec,
    algorithm: AllreduceAlgorithm | None = AllreduceAlgorithm.RING,
) -> float:
    """Allreduce cost under ``algorithm``; ``None`` picks the fastest.

    Production MPI/NCCL implementations switch algorithms on message size —
    passing ``None`` reproduces that tuned behaviour.
    """
    return kernels.allreduce_time(
        p,
        size_bytes,
        link.latency,
        link.total_bandwidth,
        None if algorithm is None else algorithm.value,
    )


def paper_allreduce_estimate(size_bytes: float, link: LinkSpec) -> float:
    """The paper's back-of-envelope allreduce time: message size over half
    the injection bandwidth, ignoring latency terms.

    Section VI-B: "the algorithm (ring-based allreduce) bandwidth being half
    of network bandwidth, i.e., 12.5 GB/s, communication time is roughly
    8 ms and 110 ms" for ResNet-50 (100 MB) and BERT-large (1.4 GB).
    """
    if size_bytes < 0:
        raise ConfigurationError(f"negative message size: {size_bytes}")
    return kernels.paper_allreduce_estimate(size_bytes, link.total_bandwidth)
