"""Vectorizable cost kernels — every analytic formula, written exactly once.

Each kernel accepts plain Python numbers *or* NumPy arrays (broadcast
together) and returns the same kind: scalars in, Python floats out; arrays
in, arrays out. The scalar path runs pure Python arithmetic, so rewiring the
seed call sites (``network.collectives``, ``training.step_time``,
``storage.io_model``, ``storage.checkpoint``, ...) onto these kernels keeps
their results **bit-identical** to the original formulas, while the array
path evaluates thousands of configurations in one NumPy pass.

Bit-parity between the two paths is a design requirement (the Hypothesis
suite in ``tests/test_cost_properties.py`` asserts element-wise equality),
which dictates two non-obvious choices:

- ``_ln`` routes array inputs through ``math.log`` on the unique values
  rather than ``np.log``: NumPy's SIMD log can differ from libm in the last
  ulp, and sweep axes have few unique values so the cost is negligible.
- ``_ceil_log2`` uses exact integer arithmetic (``bit_length`` /
  ``np.frexp``) instead of ``ceil(log2(p))`` floating-point round-trips.

>>> ring_allreduce_time(4, 100e6, 1e-6, 25e9)   # doctest: +ELLIPSIS
0.006006...
>>> import numpy as np
>>> t = ring_allreduce_time(np.array([1, 4]), 100e6, 1e-6, 25e9)
>>> float(t[0]), float(t[1]) == ring_allreduce_time(4, 100e6, 1e-6, 25e9)
(0.0, True)
"""

from __future__ import annotations

import math
from typing import Any, Union

import numpy as np

from repro.errors import ConfigurationError

Number = Union[float, int, np.ndarray]

#: Allreduce algorithm keys accepted by :func:`allreduce_time`.
ALLREDUCE_ALGORITHMS = ("ring", "recursive_doubling", "binomial_tree")


# -- scalar/array dispatch helpers ---------------------------------------------


def _is_array(*xs: Any) -> bool:
    return any(isinstance(x, np.ndarray) for x in xs)


def _maximum(a: Number, b: Number) -> Number:
    if _is_array(a, b):
        return np.maximum(a, b)
    return a if a >= b else b


def _minimum(a: Number, b: Number) -> Number:
    if _is_array(a, b):
        return np.minimum(a, b)
    return a if a <= b else b


def _sqrt(x: Number) -> Number:
    # Both are correctly rounded per IEEE-754, so the paths agree bitwise.
    return np.sqrt(x) if _is_array(x) else math.sqrt(x)


def _ln(x: Number) -> Number:
    """Natural log with exact scalar/array parity (see module docstring)."""
    if _is_array(x):
        flat = np.asarray(x, dtype=float).ravel()
        uniq, inverse = np.unique(flat, return_inverse=True)
        logs = np.array([math.log(v) for v in uniq], dtype=float)
        return logs[inverse].reshape(np.shape(x))
    return math.log(x)


def _ceil_log2(p: Number) -> Number:
    """``ceil(log2(p))`` for integer-valued ``p >= 1``, computed exactly."""
    if _is_array(p):
        mantissa, exponent = np.frexp(np.asarray(p, dtype=float))
        return exponent - (mantissa == 0.5)
    return (int(p) - 1).bit_length()


def _one_if_not_pow2(p: Number) -> Number:
    if _is_array(p):
        mantissa, _ = np.frexp(np.asarray(p, dtype=float))
        return np.where(mantissa == 0.5, 0, 1)
    return 0 if int(p) & (int(p) - 1) == 0 else 1


def check_participants(p: Number, size_bytes: Number) -> None:
    """Shared validation for the collective kernels."""
    if np.min(p) < 1:
        raise ConfigurationError(f"need at least one participant, got {p}")
    if np.min(size_bytes) < 0:
        raise ConfigurationError(f"negative message size: {size_bytes}")


# -- collectives (alpha-beta models, Section VI-B) ------------------------------


def ring_allreduce_time(
    p: Number, size_bytes: Number, latency: Number, bandwidth: Number
) -> Number:
    """Ring allreduce: ``2 (p-1) alpha + 2 (p-1)/p * M / B``.

    Exactly ``0.0`` at ``p == 1`` (both factors vanish), so no guard is
    needed for degenerate rings.
    """
    return 2 * (p - 1) * latency + 2 * (p - 1) / p * size_bytes / bandwidth


def recursive_doubling_allreduce_time(
    p: Number, size_bytes: Number, latency: Number, bandwidth: Number
) -> Number:
    """Recursive doubling: ``ceil(log2 p)`` rounds (+1 fold-in round for
    non-power-of-two ``p``), full message each round."""
    rounds = _ceil_log2(p) + _one_if_not_pow2(p)
    return rounds * (latency + size_bytes / bandwidth)


def binomial_tree_allreduce_time(
    p: Number, size_bytes: Number, latency: Number, bandwidth: Number
) -> Number:
    """Binomial reduce to a root followed by binomial broadcast."""
    return 2 * _ceil_log2(p) * (latency + size_bytes / bandwidth)


def best_allreduce_time(
    p: Number, size_bytes: Number, latency: Number, bandwidth: Number
) -> Number:
    """Minimum over the three algorithms — tuned NCCL/MPI behaviour."""
    return _minimum(
        _minimum(
            ring_allreduce_time(p, size_bytes, latency, bandwidth),
            recursive_doubling_allreduce_time(p, size_bytes, latency, bandwidth),
        ),
        binomial_tree_allreduce_time(p, size_bytes, latency, bandwidth),
    )


def allreduce_time(
    p: Number,
    size_bytes: Number,
    latency: Number,
    bandwidth: Number,
    algorithm: str | None = "ring",
) -> Number:
    """Allreduce cost under ``algorithm``; ``None`` (or ``"best"``) picks the
    fastest per configuration.

    >>> allreduce_time(8, 1e6, 0.0, 25e9, "ring") < allreduce_time(
    ...     8, 1e6, 0.0, 25e9, "binomial_tree")
    True
    """
    if algorithm is None or algorithm == "best":
        return best_allreduce_time(p, size_bytes, latency, bandwidth)
    if algorithm == "ring":
        return ring_allreduce_time(p, size_bytes, latency, bandwidth)
    if algorithm == "recursive_doubling":
        return recursive_doubling_allreduce_time(p, size_bytes, latency, bandwidth)
    if algorithm == "binomial_tree":
        return binomial_tree_allreduce_time(p, size_bytes, latency, bandwidth)
    raise ConfigurationError(
        f"unknown allreduce algorithm {algorithm!r}; "
        f"known: {ALLREDUCE_ALGORITHMS} or None"
    )


def paper_allreduce_estimate(size_bytes: Number, bandwidth: Number) -> Number:
    """The paper's bandwidth-only estimate: message over half the injection
    bandwidth (Section VI-B's 8 ms / 110 ms numbers).

    >>> paper_allreduce_estimate(1.4e9, 25e9)
    0.112
    """
    return size_bytes / (bandwidth / 2.0)


def transfer_time(size_bytes: Number, latency: Number, bandwidth: Number) -> Number:
    """Point-to-point alpha-beta transfer: ``alpha + M / B``."""
    return latency + size_bytes / bandwidth


# -- training step terms (Section IV-B decomposition) ---------------------------


def step_compute_time(
    local_batch: Number, flops_per_sample: Number, sustained_flops: Number
) -> Number:
    """Seconds of pure compute for one local micro-step."""
    return local_batch * flops_per_sample / sustained_flops


def exposed_time(total: Number, overlap_fraction: Number, hideable: Number) -> Number:
    """What survives compute overlap: ``max(0, total - overlap * hideable)``."""
    return _maximum(0.0, total - overlap_fraction * hideable)


def straggler_penalty(compute: Number, jitter_cv: Number, n_ranks: Number) -> Number:
    """Synchronous-SGD straggler term: ``compute * cv * sqrt(2 ln n)``.

    Exactly ``0.0`` when ``cv == 0`` or ``n_ranks == 1`` (``ln 1 == 0``),
    matching the guarded scalar implementation it replaces.
    """
    return compute * jitter_cv * _sqrt(2.0 * _ln(n_ranks))


# -- storage (Section VI-B I/O analysis) ----------------------------------------


def shared_pool_bandwidth(
    aggregate: Number, per_client_cap: Number, n_clients: Number
) -> Number:
    """Per-client bytes/s from a shared pool: ``min(cap, aggregate / n)``."""
    return _minimum(per_client_cap, aggregate / n_clients)


def input_read_time(
    samples_per_step: Number, bytes_per_sample: Number, rate: Number
) -> Number:
    """Input-pipeline seconds per step at ``rate`` bytes/s (inf rate -> 0)."""
    return samples_per_step * bytes_per_sample / rate


def per_device_read_bandwidth(
    samples_per_second_per_device: Number, bytes_per_sample: Number
) -> Number:
    """Bytes/s one accelerator consumes at full training rate."""
    return samples_per_second_per_device * bytes_per_sample


def required_read_bandwidth(
    samples_per_second_per_device: Number, bytes_per_sample: Number, n_devices: Number
) -> Number:
    """Aggregate read bytes/s for ideal data-parallel scaling — the paper's
    ~20 TB/s full-Summit ResNet-50 number.

    >>> required_read_bandwidth(5000, 150e3, 6) == 5000 * 150e3 * 6
    True
    """
    return (
        per_device_read_bandwidth(samples_per_second_per_device, bytes_per_sample)
        * n_devices
    )


def bandwidth_margin(available: Number, required: Number) -> Number:
    """Headroom ratio: > 1 means the tier sustains the requirement."""
    return available / required


# -- checkpointing (Young/Daly) --------------------------------------------------


def system_mtbf(node_mtbf_seconds: Number, n_nodes: Number) -> Number:
    """Job-wide MTBF: failures compose across nodes."""
    return node_mtbf_seconds / n_nodes


def young_interval(write_time: Number, mtbf: Number) -> Number:
    """Young's optimal checkpoint interval: ``sqrt(2 * delta * MTBF)``."""
    return _sqrt(2.0 * write_time * mtbf)


def young_overhead(write_time: Number, interval: Number, mtbf: Number) -> Number:
    """Checkpoint + expected-rework fraction:
    ``delta / tau + (tau / 2 + delta) / MTBF``."""
    return write_time / interval + (interval / 2.0 + write_time) / mtbf


# -- convergence ------------------------------------------------------------------


def two_regime_samples(
    batch: Number, min_samples: Number, critical_batch: Number
) -> Number:
    """Samples-to-target under the two-regime law:
    ``S_min * (1 + B / B_crit)`` (Shallue et al., McCandlish et al.)."""
    return min_samples * (1.0 + batch / critical_batch)
